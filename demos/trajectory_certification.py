"""Every recorded trajectory can be certified after the fact.

Records one stream with Trajectory.record (which collects the units of
rows run_stream hands its readers), replays all the growth and drift
inequalities against the oracle-computed energies, then corrupts a
single recorded scalar and shows that the suite notices.
"""

import dataclasses

from streamkpca import (
    FeatureMapSpec,
    OjaConfig,
    SpikedSpec,
    Trajectory,
    compute_alpha_beta,
    init_state_at,
    make_spiked_stream,
    run_all_checks,
    select_learning_rate,
    summarize,
)

gen = SpikedSpec(
    input_dim=6,
    n=400,
    lambda1=1.0,
    lambda2=0.04,
    tail_decay=0.8,
    basis_seed=3,
    sample_seed=30,
)
xs, truth = make_spiked_stream(gen)
phi = FeatureMapSpec.identity(6)
bound = phi.norm_bound(truth.norm_bound)
eta = select_learning_rate(bound)

summary = summarize(xs, phi)
energies = compute_alpha_beta(summary, eta)
print(f"oracle energies: alpha = {energies.alpha:.4f}, beta = {energies.beta:.4f}\n")

cfg = OjaConfig(eta=eta, feature_map=phi, norm_bound=bound)
traj = Trajectory.record(xs, cfg, init_state_at(summary.top_vector), seed=30)

report = run_all_checks(traj, summary.top_vector, energies.alpha, energies.beta)
print("fresh trajectory:")
for entry in report.entries:
    margin = "" if entry.margin != entry.margin else f"  margin={entry.margin:+.3e}"
    print(f"  {entry.name:32s} {entry.status}{margin}")

# Corrupt one recorded log ratio (step 101: table row 101, column 2) by
# a part in a thousand, in a copy of the table; the fresh trajectory is
# left as it was.
table = traj.table.copy()
table[101, 2] *= 1.001
tampered = dataclasses.replace(traj, table=table)
report = run_all_checks(tampered, summary.top_vector, energies.alpha, energies.beta)
print("\nafter perturbing one log ratio by 1e-3 relative:")
for entry in report.failures():
    print(f"  {entry.name:32s} FAILS  margin={entry.margin:+.3e} "
          f"at step {entry.location}")
