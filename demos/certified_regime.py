"""A run inside the theorem's certified regime, and whether a kernel
map can reach it.

The final bound is labelled "certified" only when alpha < 1/(1000 log n)
and beta >= 1000 log m. With eta = 0.1/B and B = lambda1 (d + 10 sqrt(d)
+ 50), beta = eta * n * lambda1 is about 0.1 n / (d + 10 sqrt(d) + 50),
and alpha = beta / R, so the spectral ratio R must exceed about
1000 beta log n. This prints that arithmetic for identity d = 2 at
n = 5e5, runs it from v* and certifies the trajectory (about 2 s).

For poly2 and rff the generator's R shapes the input spectrum, not the
feature spectrum, so the second part measures the feature spectrum with
the offline oracle at n = 20000 and extrapolates: beta and alpha both
grow linearly in n, so it prints the n at which beta reaches 1000 log m
and alpha at that n. poly2 (m = 3) gets there near n = 1.65e7, so the
last part runs poly2 d = 2 at n = 1.7e7 from v* and certifies it (about
30 s; its passes replay the stream from its seed, so the run holds
neither the stream nor a step table).
"""

import math

import streamkpca as sk

d, n, ratio = 2, 500_000, 2e7
gen = sk.SpikedSpec(input_dim=d, n=n, lambda1=1.0, lambda2=1.0 / ratio,
                    basis_seed=0, sample_seed=1)
bound = gen.norm_guard()
eta = 0.1 / bound
beta = eta * n * gen.lambda1
print(f"B = lambda1 (d + 10 sqrt(d) + 50) = {bound:.2f}, eta = 0.1/B = {eta:.3e}")
print(f"beta ~ eta n lambda1 = {beta:.0f}   (needs >= 1000 log m = "
      f"{1000 * math.log(d):.0f}, m = d = {d})")
print(f"R must exceed ~1000 beta log n = {1000 * beta * math.log(n):.3g}; "
      f"this run's target R = {ratio:.0e}\n")



def certify(phi, gen):
    """Run trial 0 of phi over gen from v* with its checks, and print
    the oracle, the final state, every entry and the certification."""
    config = sk.RunConfig(feature_map=phi, generator=gen, init="vstar",
                          run_checks=True)
    trial = sk.run_trial(config, 0)
    result = trial.result
    print(f"oracle: alpha = {result.alpha:.3e} (needs < 1/(1000 log n) = "
          f"{1 / (1000 * math.log(gen.n)):.3e}), beta = {result.beta:.1f} "
          f"(needs >= {1000 * math.log(phi.feature_dim):.1f})")
    print(f"final residual {result.residual:.2e}, log norm {result.log_norm:.0f} nats\n")
    for entry in trial.check_report.entries:
        print(f"  {entry.name:32s} {entry.status}")
    (final,) = [e for e in trial.check_report.entries
                if e.name == "final_residual_bound"]
    print(f"\nfinal_residual_bound: {final.details['certification']}\n")


certify(sk.FeatureMapSpec.identity(d), gen)

print("kernel maps, input d = 2, oracle at n = 20000:")
print(f"  {'map':24s} {'input R':>8s} {'feature R':>10s} {'n for beta':>11s}"
      f" {'alpha there':>12s} {'needs <':>9s}")
for phi in (sk.FeatureMapSpec.poly2(d), sk.FeatureMapSpec.rff(d, 16, 4.0, 7),
            sk.FeatureMapSpec.rff(d, 16, 20000.0, 7)):
    for ratio in (20, 2e7):
        small = sk.SpikedSpec(input_dim=d, n=20_000, lambda1=1.0,
                              lambda2=1.0 / ratio, basis_seed=0, sample_seed=1)
        xs, truth = sk.make_spiked_stream(small)
        eta = sk.select_learning_rate(phi.norm_bound(truth.norm_bound))
        energies = sk.compute_alpha_beta(sk.summarize(xs, phi), eta)
        n_beta = 1000 * math.log(phi.feature_dim) / energies.beta * small.n
        alpha = energies.alpha * n_beta / small.n
        name = f"{phi.kind} m={phi.feature_dim}" + (
            f" bandwidth={phi.bandwidth:g}" if phi.kind == "rff" else "")
        print(f"  {name:24s} {ratio:8.0e} {energies.beta / energies.alpha:10.3g}"
              f" {n_beta:11.3g} {alpha:12.3g} {1 / (1000 * math.log(n_beta)):9.3g}")

print("\npoly2 m=3, n = 1.7e7, target R = 2e7, from v*:")
certify(sk.FeatureMapSpec.poly2(d),
        sk.SpikedSpec(input_dim=d, n=17_000_000, lambda1=1.0, lambda2=1.0 / 2e7,
                      basis_seed=0, sample_seed=0))
