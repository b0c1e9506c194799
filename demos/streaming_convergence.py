"""One pass over a spiked stream, compared against the offline oracle.

Generates a stream with a strong spectral spike, runs the normalized
streaming update once through it, and prints how the alignment with the
offline top eigenvector evolves. Also cross-checks the LAPACK oracle
against the two pure-numpy reference eigensolvers.
"""

from streamkpca import (
    FeatureMapSpec,
    OjaConfig,
    SpikedSpec,
    alignment_error,
    init_state_at,
    jacobi_eigendecomposition,
    make_spiked_stream,
    oja_step,
    power_iteration_top,
    select_learning_rate,
    summarize,
)

d, n = 10, 3000
gen = SpikedSpec(
    input_dim=d,
    n=n,
    lambda1=1.0,
    lambda2=1.0 / 60.0,
    tail_decay=0.7,
    basis_seed=1,
    sample_seed=2,
)
xs, truth = make_spiked_stream(gen)
phi = FeatureMapSpec.identity(d)

summary = summarize(xs, phi)
print(f"empirical spectral ratio: {summary.ratio:.1f} "
      f"(population target {truth.ratio:.1f})")

lam, vec = power_iteration_top(summary.second_moment, tol=1e-12, max_iters=100000)
jac = jacobi_eigendecomposition(summary.second_moment)
print(f"top eigenvalue of M: oracle {summary.lambda1:.6f}, "
      f"jacobi {jac.eigenvalues[0]:.6f}, power {lam:.6f}")
print(f"alignment error of the oracle's top vector: vs jacobi "
      f"{alignment_error(summary.top_vector, jac.top_vector):.2e}, "
      f"vs power {alignment_error(summary.top_vector, vec):.2e}\n")

bound = phi.norm_bound(truth.norm_bound)
eta = select_learning_rate(bound)
print(f"certified ||phi(x)||^2 bound {bound:.1f} -> eta = {eta:.2e}\n")

cfg = OjaConfig(eta=eta, feature_map=phi, norm_bound=bound)
state = init_state_at(truth.top_direction)  # start on the population spike
print("step   align-err(offline x*)   log ||v||")
for i, x in enumerate(xs, start=1):
    state, _ = oja_step(state, x, cfg)
    if i in (1, 10, 100, 500, 1000, 2000, 3000):
        err = alignment_error(summary.top_vector, state.v_hat)
        print(f"{i:5d}   {err:20.3e}   {state.log_norm:9.4f}")

final_err = alignment_error(summary.top_vector, state.v_hat)
print(f"\nfinal alignment error vs offline oracle: {final_err:.3e}")
print(f"memory held during the pass: one unit vector of length {d} "
      f"plus two scalars")
