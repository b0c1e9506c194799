"""One pass over a spiked stream, compared against the offline oracle.

Generates a stream with a strong spectral spike, runs the normalized
streaming update once through it, and prints how the alignment with the
offline top eigenvector evolves. Also checks the oracle's top two
eigenvalues against numpy's eigvalsh.
"""

import numpy as np

from streamkpca import (
    FeatureMapSpec,
    OjaConfig,
    SpikedSpec,
    alignment_error,
    init_state_at,
    make_spiked_stream,
    oja_step,
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

ref = np.linalg.eigvalsh(summary.second_moment)
print(f"top two eigenvalues of M: oracle {summary.lambda1:.6f}, "
      f"{summary.lambda2:.6f}; eigvalsh {ref[-1]:.6f}, {ref[-2]:.6f}\n")

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
