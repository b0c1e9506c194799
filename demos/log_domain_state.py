"""Why the stream state is (unit direction, log norm).

The unnormalized iterate's norm grows exponentially along the stream;
on long streams it would overflow float64 long before the pass ends.
The state therefore keeps the unit direction plus the accumulated log
norm, with each increment computed through log1p of the closed-form
ratio. This script shows the growth that never gets materialized. The
pass keeps no record of its steps either: run_stream returns the final
state alone.
"""

import numpy as np

from streamkpca import (
    FeatureMapSpec,
    OjaConfig,
    SpikedSpec,
    init_state_at,
    make_spiked_stream,
    run_stream,
    select_learning_rate,
    summarize,
)

d = 6
gen = SpikedSpec(
    input_dim=d,
    n=600_000,
    lambda1=1.0,
    lambda2=0.05,
    tail_decay=1.0,
    basis_seed=8,
    sample_seed=80,
)
xs, truth = make_spiked_stream(gen)
phi = FeatureMapSpec.identity(d)
bound = phi.norm_bound(truth.norm_bound)
eta = select_learning_rate(bound)
cfg = OjaConfig(eta=eta, feature_map=phi, norm_bound=bound)

final = run_stream(xs, cfg, init_state_at(truth.top_direction))

log10_norm = final.log_norm / np.log(10.0)
print(f"stream length: {gen.n}")
print(f"accumulated log ||v_n|| = {final.log_norm:.1f}")
print(f"so ||v_n|| is about 10^{log10_norm:.0f}")
print(f"float64 overflows near 10^308 -> materializing v_n directly "
      f"{'would overflow' if log10_norm > 308 else 'is still possible here'}")
print(f"state kept instead: {final.v_hat.shape[0]} direction entries, "
      f"one log-norm scalar, one step counter")

offline = summarize(np.asarray(xs)[:5000], phi)  # oracle stays desk-scale on a prefix
align = float(final.v_hat @ offline.top_vector) ** 2
print(f"squared alignment with the offline oracle on a 5000-sample prefix: "
      f"{align:.6f}")
