"""Post-hoc certification of a recorded trajectory.

Every growth inequality the analysis guarantees is rechecked here from
the recorded per-step scalars and direction snapshots, with the oracle's
(alpha, beta) supplied by the caller. Each hypothesis a statement needs
(e.g. starting exactly at v*) is tested by one predicate below, which
returns None or the reason it fails. A check whose hypotheses a
trajectory does not meet reports status "vacuous" with the first unmet
one named; it never raises and is never silently skipped. Inequalities
carry a 1e-9 additive slack on the deficient side to absorb float noise,
and margins are reported signed so near-violations stay visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import as_unit_vector
from .oja import Trajectory

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"

SLACK = 1e-9

# Tolerances for the per-step update identities (stricter than SLACK:
# these are recomputations of exact float identities, not inequalities).
IDENTITY_TOL = 1e-12
RECONSTRUCTION_REL_TOL = 1e-9

# Desk-scale gate for explicit unnormalized reconstruction.
RECON_MAX_M = 32
RECON_MAX_N = 64

# Growth-floor denominator constant, and the large constant the
# high-probability guarantee assumes for its alpha/beta hypotheses.
GROWTH_FLOOR_C1 = 200.0
HYPOTHESIS_C = 1000.0

# Random index pairs the two-time-step drift check adds to the adjacent ones.
CHECK_PAIR_COUNT = 100


@dataclass
class CheckResult:
    """Outcome of one named check."""

    name: str
    status: str
    margin: float = math.nan
    location: object = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "margin": _jsonable(self.margin),
            "location": self.location,
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }


@dataclass
class CheckReport:
    """All check outcomes for one trajectory plus the constants used."""

    entries: list[CheckResult]
    constants: dict

    def failures(self) -> list[CheckResult]:
        return [e for e in self.entries if e.status == FAIL]

    @property
    def ok(self) -> bool:
        return not self.failures()

    def to_dict(self) -> dict:
        return {
            "constants": {k: _jsonable(v) for k, v in self.constants.items()},
            "checks": [e.to_dict() for e in self.entries],
            "ok": self.ok,
        }


def _jsonable(v):
    """JSON-safe copy: NaN -> None, +-inf -> "inf"/"-inf", numpy -> Python."""
    if isinstance(v, float):
        if math.isnan(v):
            return None
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
    if isinstance(v, np.floating):
        return _jsonable(float(v))
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, list):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _at_vstar(traj: Trajectory) -> str | None:
    return None if traj.init_kind == "vstar" else "initializer is not at-v*"


def _nonempty(traj: Trajectory) -> str | None:
    return None if traj.n else "empty trajectory"


def _small_alpha(alpha: float) -> str | None:
    if 0.0 < alpha < 0.1:  # NaN fails too
        return None
    return f"requires alpha in (0, 0.1); alpha={alpha:g}"


def _bound_below_one(name: str, bound: float) -> str | None:
    # A unit vector's residual is at most 1: a bound of 1 cannot fail.
    if not bound >= 1.0:  # NaN is judged, and fails
        return None
    return f"requires a residual bound below 1; {name}={bound:g}"


def _budget_below_most(budget: float, most: float) -> str | None:
    # <phi_i, P v_hat>^2 <= ||phi_i||^2, so eta * sum ||phi_i||^2 is the
    # most the orthogonal energy can be: a budget that large cannot fail.
    if not budget >= most:  # NaN is judged
        return None
    return f"requires a budget below eta * sum(phi_norm_sq)={most:g}; budget={budget:g}"


def _nonzero_step(traj: Trajectory) -> str | None:
    if np.any(traj.s != 0.0):
        return None
    return "no step has s != 0, so the floor is log(0) = -inf"


def _desk_scale(traj: Trajectory) -> str | None:
    if traj.m <= RECON_MAX_M and traj.n <= RECON_MAX_N:
        return None
    return (
        f"explicit reconstruction gated to m<={RECON_MAX_M}, "
        f"n<={RECON_MAX_N}; trajectory has m={traj.m}, n={traj.n}"
    )


def _vacuous(name: str, reason: str) -> CheckResult:
    return CheckResult(name, VACUOUS, details={"reason": reason})


def _judged(
    name: str, margin: float, slack: float = SLACK, location=None, **details
) -> CheckResult:
    """PASS when margin >= -slack, else FAIL (a NaN margin fails)."""
    status = PASS if margin >= -slack else FAIL
    return CheckResult(name, status, margin, location, details)


def _orthogonal_into(out, rows, proj, v_star) -> np.ndarray:
    """out = rows minus their v_star components, given proj = rows @ v_star.

    Blocked callers compute proj once for all rows and pass a slice: the
    BLAS product's last bits depend on how many rows it gets at once.
    """
    np.multiply(proj[:, None], v_star, out=out)
    return np.subtract(rows, out, out=out)


def _row_norms_in_place(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm(rows, axis=1), bit for bit, squaring rows in place."""
    np.multiply(rows, rows, out=rows)
    return np.sqrt(np.add.reduce(rows, axis=1))


def sample_check_pairs(
    n: int, seed: int, count: int = CHECK_PAIR_COUNT
) -> tuple[np.ndarray, np.ndarray]:
    """All adjacent index pairs plus ``count`` seeded random pairs in [0, n],
    as index arrays (a, b) in ascending (a, b) order without repeats."""
    a, b = np.arange(n), np.arange(1, n + 1)
    if n >= 1:
        rng = np.random.default_rng(seed)
        drawn = np.empty((2, count), dtype=np.int64)
        for k in range(count):
            drawn[0, k] = rng.integers(0, n)
            drawn[1, k] = rng.integers(drawn[0, k] + 1, n + 1)
        a, b = np.concatenate([a, drawn[0]]), np.concatenate([b, drawn[1]])
    # b <= n, so these keys sort as the (a, b) tuples do. A sort and a
    # mask of repeats take about a tenth of np.unique's time (numpy 2.4).
    keys = np.sort(a * (n + 1) + b)
    keys = keys[np.diff(keys, prepend=-1) > 0]
    return keys // (n + 1), keys % (n + 1)


def _norm_update_identity(traj: Trajectory) -> CheckResult:
    """The recorded log ratio against the norm update it must equal, by
    two independent routes: the closed form recomputed from the recorded
    scalars, and a direct norm evaluation from consecutive direction
    snapshots via ||u_i|| = (1 + eta*s_i^2) / <v_hat_i, v_hat_{i-1}>."""
    name = "norm_update_identity"
    reason = _nonempty(traj)
    if reason:
        return _vacuous(name, reason)
    snaps = traj.snapshots
    eta, s, log_ratio = traj.config.eta, traj.s, traj.log_ratio
    closed = np.log1p((2.0 * eta + eta * eta * traj.phi_norm_sq) * s**2)
    diff_closed = np.abs(log_ratio - closed)
    dots = np.einsum("ij,ij->i", snaps[1:], snaps[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        u_norm = np.where(dots > 0, (1.0 + eta * s**2) / dots, np.nan)
        direct = 2.0 * np.log(u_norm)
    diff_direct = np.abs(log_ratio - direct)
    diff_direct = np.where(np.isfinite(diff_direct), diff_direct, np.inf)
    worst = np.maximum(diff_closed, diff_direct)
    return _judged(
        name,
        IDENTITY_TOL - float(worst.max()),
        slack=0.0,
        location=int(np.argmax(worst)) + 1,
        max_closed_form_diff=float(diff_closed.max()),
        max_direct_norm_diff=float(diff_direct.max()),
        tolerance=IDENTITY_TOL,
    )


def _norm_never_decreases(traj: Trajectory) -> CheckResult:
    """Every per-step log ratio is nonnegative."""
    name = "norm_never_decreases"
    reason = _nonempty(traj)
    if reason:
        return _vacuous(name, reason)
    log_ratio = traj.log_ratio
    loc = int(np.argmin(log_ratio)) + 1
    return _judged(name, float(log_ratio.min()), slack=0.0, location=loc)


def _step_growth_floor(traj: Trajectory) -> CheckResult:
    """Per-step growth floor. The statement uses coefficient 1 on
    eta*s^2; the conservative proof constant is 1/2. Both margins are
    reported so either reading is visible in the output."""
    name = "step_growth_floor"
    reason = _nonempty(traj)
    if reason:
        return _vacuous(name, reason)
    eta, s, log_ratio = traj.config.eta, traj.s, traj.log_ratio
    floor_stated = log_ratio - eta * s**2
    floor_half = log_ratio - 0.5 * eta * s**2
    return _judged(
        name,
        float(floor_stated.min()),
        slack=IDENTITY_TOL,
        location=int(np.argmin(floor_stated)) + 1,
        margin_stated_coefficient=float(floor_stated.min()),
        margin_half_coefficient=float(floor_half.min()),
    )


def _interval_growth_floor(traj: Trajectory) -> CheckResult:
    """Interval growth floor for every pair a < b, via prefix sums:
    2(L_b - L_a) >= sum_{i=a+1}^{b} eta*s_i^2. It is the step floor
    summed, so it fails only where the step floor does; it is kept as
    the analysis's interval lemma."""
    name = "interval_growth_floor"
    reason = _nonempty(traj)
    if reason:
        return _vacuous(name, reason)
    energy = np.concatenate(([0.0], np.cumsum(traj.config.eta * traj.s**2)))
    d_arr = 2.0 * traj.log_norm - energy
    run_max = np.maximum.accumulate(d_arr)[:-1]
    margins = d_arr[1:] - run_max
    b_worst = int(np.argmin(margins)) + 1
    a_worst = int(np.argmax(d_arr[:b_worst]))
    return _judged(name, float(margins.min()), location=[a_worst, b_worst])


def _increment_reconstruction(traj: Trajectory) -> CheckResult:
    """Explicit unnormalized reconstruction, desk scale only: each
    increment must have the norm and the alignment the update rule
    dictates, delta_i = eta * s_i * ||v_{i-1}|| * f_i."""
    name = "increment_reconstruction"
    reason = _nonempty(traj) or _desk_scale(traj)
    if reason:
        return _vacuous(name, reason)
    snaps = traj.snapshots
    scale = np.exp(traj.log_norm)
    deltas = np.diff(snaps * scale[:, None], axis=0)
    eta, s = traj.config.eta, traj.s
    expected_norm = eta * np.abs(s) * scale[:-1] * np.sqrt(traj.phi_norm_sq)
    norm_err = np.abs(np.linalg.norm(deltas, axis=1) - expected_norm)
    expected_proj = eta * s**2 * scale[:-1]
    proj_err = np.abs(np.einsum("ij,ij->i", deltas, snaps[:-1]) - expected_proj)
    tol_steps = RECONSTRUCTION_REL_TOL * np.maximum(1.0, scale[1:])
    worst_step = float(np.max(np.maximum(norm_err, proj_err) - tol_steps))
    return _judged(name, -worst_step, slack=0.0, step_consistency_excess=worst_step)


def _residual_bounded_by_growth(traj: Trajectory, v, alpha: float) -> CheckResult:
    """Residual orthogonal to v* is bounded by sqrt(alpha) plus the
    initial residual shrunk by the accumulated norm growth; for at-v*
    starts the bound tightens to sqrt(alpha) alone. Vacuous, with the
    reason, when sqrt(alpha) >= 1, which puts every bound at 1 or above."""
    name = "residual_bounded_by_growth"
    reason = _bound_below_one("sqrt(alpha)", math.sqrt(alpha))
    if reason:
        return _vacuous(name, reason)
    snaps = traj.snapshots
    # Row norms of the orthogonal part, a block of rows at a time into a
    # reused buffer, so no (n+1, m) temporary exists.
    proj = snaps @ v
    residuals = np.empty(len(snaps))
    orth = np.empty((min(len(snaps), linalg.BLOCK_ROWS), traj.m))
    for start in range(0, len(snaps), linalg.BLOCK_ROWS):
        rows = snaps[start : start + linalg.BLOCK_ROWS]
        k = len(rows)
        part = _orthogonal_into(orth[:k], rows, proj[start : start + k], v)
        residuals[start : start + k] = _row_norms_in_place(part)
    shrink = np.exp(-traj.log_norm)
    bounds = math.sqrt(alpha) + residuals[0] * shrink
    margins = bounds - residuals
    margin = float(margins.min())
    loc = int(np.argmin(margins))
    details = {"initial_residual": float(residuals[0])}
    if traj.init_kind == "vstar":
        corollary = math.sqrt(alpha) - residuals
        details["corollary_margin"] = float(corollary.min())
        if corollary.min() < margin:
            margin = float(corollary.min())
            loc = int(np.argmin(corollary))
    return _judged(name, margin, location=loc, **details)


def _drift_requires_growth(traj: Trajectory, v, alpha: float) -> CheckResult:
    """Between any two recorded steps, the orthogonal part cannot drift
    without the log norm growing: ||P v_b - P v_a||^2 <= 50*alpha*(L_b - L_a).

    Vacuous, with the reason, unless the run starts at v* and has a step.
    """
    name = "drift_requires_growth"
    reason = _at_vstar(traj) or _nonempty(traj)
    if reason:
        return _vacuous(name, reason)
    snaps = traj.snapshots
    a_idx, b_idx = sample_check_pairs(traj.n, traj.seed)
    # Pair norms a block of pairs at a time into reused buffers, so no
    # (n, m) temporary exists. The indices lie in [0, n]; np.take's
    # default mode="raise" would copy each block through a buffer.
    proj = snaps @ v
    drift = np.empty(len(a_idx))
    picked, orth_a, orth_b = np.empty((3, min(len(a_idx), linalg.BLOCK_ROWS), traj.m))
    for start in range(0, len(a_idx), linalg.BLOCK_ROWS):
        a = a_idx[start : start + linalg.BLOCK_ROWS]
        b = b_idx[start : start + linalg.BLOCK_ROWS]
        k = len(a)
        np.take(snaps, a, axis=0, out=picked[:k], mode="clip")
        _orthogonal_into(orth_a[:k], picked[:k], proj[a], v)
        np.take(snaps, b, axis=0, out=picked[:k], mode="clip")
        diff = _orthogonal_into(orth_b[:k], picked[:k], proj[b], v)
        diff -= orth_a[:k]
        drift[start : start + k] = _row_norms_in_place(diff)
    lhs = drift**2
    rhs = 50.0 * alpha * (traj.log_norm[b_idx] - traj.log_norm[a_idx])
    margins = rhs - lhs
    worst = int(np.argmin(margins))
    return _judged(
        name,
        float(margins.min()),
        location=[int(a_idx[worst]), int(b_idx[worst])],
        pairs_checked=len(a_idx),
    )


def _orthogonal_energy_budget(traj: Trajectory, v, alpha: float) -> CheckResult:
    """Total feature energy hitting the orthogonal complement,
    eta * sum <phi_i, P v_{i-1}>^2, stays within the budget
    100 * alpha^2 * log^2(n) * L_n.

    Feature vectors are reconstructed from consecutive snapshots; steps
    with s_i = 0 leave no trace in the trajectory and are skipped (their
    count is reported). Vacuous, with the reason, unless the run starts
    at v*, has a step and has a budget below eta * sum ||phi_i||^2, the
    most the energy can be.

    Raises:
        OverflowError: alpha is so large that the budget is not finite.
    """
    name = "orthogonal_energy_budget"
    reason = _at_vstar(traj) or _nonempty(traj)
    if reason:
        return _vacuous(name, reason)
    n, s = traj.n, traj.s
    eta = traj.config.eta
    rhs = 0.0
    if n > 1:
        rhs = 100.0 * alpha**2 * math.log(n) ** 2 * float(traj.log_norm[-1])
    if not math.isfinite(rhs):
        # As alpha**2 raises for a larger alpha.
        raise OverflowError(f"energy budget {rhs} is not finite")
    with np.errstate(over="ignore"):
        most = eta * float(np.sum(traj.phi_norm_sq))
    reason = _budget_below_most(rhs, most)
    if reason:
        return _vacuous(name, reason)
    snaps = traj.snapshots
    growth = np.exp(0.5 * traj.log_ratio)
    nonzero = s != 0.0
    skipped = int(np.count_nonzero(~nonzero))
    lhs = 0.0
    if np.any(nonzero):
        # Each step's <phi_i, P v_{i-1}>, a block of steps at a time into
        # reused buffers, so no (n, m) temporary exists; the squares of
        # the kept steps are summed once. A skipped step divides by 1.0
        # in place of 0 and its value is dropped. An eta * s that
        # underflows to 0 makes lhs inf or NaN, reported below.
        proj = snaps[:-1] @ v
        divisor = np.where(nonzero, eta * s, 1.0)
        energies = np.empty(n)
        feats, orth = np.empty((2, min(n, linalg.BLOCK_ROWS), traj.m))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for start in range(0, n, linalg.BLOCK_ROWS):
                rows = slice(start, start + linalg.BLOCK_ROWS)
                prev = snaps[:-1][rows]
                k = len(prev)
                phi = np.multiply(growth[rows, None], snaps[1:][rows], out=feats[:k])
                phi -= prev
                phi /= divisor[rows, None]
                energies[rows] = np.einsum(
                    "ij,ij->i", phi, _orthogonal_into(orth[:k], prev, proj[rows], v)
                )
            lhs = eta * float(np.sum(energies[nonzero] ** 2))
    details = {"lhs": lhs, "rhs": rhs, "skipped_zero_s_steps": skipped}
    if not math.isfinite(lhs):
        details["reason"] = "non-finite energy: eta * s underflows or a feature overflows"
    return _judged(name, rhs - lhs, **details)


def _aligned_energy_growth_floor(
    traj: Trajectory, alpha: float, beta: float
) -> CheckResult:
    """The final log norm is at least (beta/8) / (1 + C1 alpha^2 log^2 n),
    for at-v* starts with alpha < 0.1 only."""
    name = "aligned_energy_growth_floor"
    reason = _at_vstar(traj) or _small_alpha(alpha) or _nonempty(traj)
    if reason:
        return _vacuous(name, reason)
    n, final = traj.n, float(traj.log_norm[-1])
    log_n = math.log(n) if n > 1 else 0.0
    floor = (beta / 8.0) / (1.0 + GROWTH_FLOOR_C1 * alpha**2 * log_n**2)
    return _judged(name, final - floor, log_norm=final, floor=floor)


def _final_norm_floor(traj: Trajectory) -> CheckResult:
    """2 L_n >= log(eta * sum_i s_i^2 ||v_{i-1}||^2), the unconditional
    inner-product floor, evaluated fully in the log domain. Vacuous,
    with the reason, when no step has s_i != 0: the floor is then
    log(0) = -inf."""
    name = "final_norm_floor"
    reason = _nonempty(traj) or _nonzero_step(traj)
    if reason:
        return _vacuous(name, reason)
    s, log_norm = traj.s, traj.log_norm
    nonzero = s != 0.0
    terms = 2.0 * np.log(np.abs(s[nonzero])) + 2.0 * log_norm[:-1][nonzero]
    peak = float(terms.max())
    lse = peak + math.log(float(np.sum(np.exp(terms - peak))))
    rhs = math.log(traj.config.eta) + lse
    return _judged(name, 2.0 * float(log_norm[-1]) - rhs, log_domain_rhs=rhs)


def envelope_slack(beta: float) -> float:
    """exp(-beta/200): the envelope's probabilistic term."""
    return math.exp(-beta / 200.0)


def envelope(alpha: float, beta: float) -> float:
    """sqrt(alpha) + exp(-beta/200): the final residual's envelope."""
    return math.sqrt(alpha) + envelope_slack(beta)


def within_envelope(residual: float, alpha: float, beta: float) -> bool:
    """The residual sits inside the envelope, up to SLACK."""
    return envelope(alpha, beta) - residual >= -SLACK


def alpha_hypothesis_ok(alpha: float, n: int) -> bool:
    """The guarantee's alpha < 1 / (C log n) hypothesis, C = HYPOTHESIS_C."""
    return n > 1 and alpha < 1.0 / (HYPOTHESIS_C * math.log(n))


def beta_hypothesis_ok(beta: float, m: int) -> bool:
    """The guarantee's beta >= C log m hypothesis, C = HYPOTHESIS_C."""
    return m > 1 and beta >= HYPOTHESIS_C * math.log(m)


def _final_residual_bound(
    traj: Trajectory, v, alpha: float, beta: float
) -> CheckResult:
    """Final residual against the sqrt(alpha) + exp(-beta/200) envelope.

    For an at-v* start the residual must sit below sqrt(alpha) (a
    deterministic guarantee). For a random start the envelope only
    holds with high probability, so a single-run exceedance is reported
    as vacuous, never as a failure; certification happens at the
    multi-seed aggregate level in the harness. The guarantee's
    large-constant hypotheses on alpha and beta are evaluated and the
    result is labeled "certified" only when they hold, "empirical"
    otherwise. The final direction is the last snapshot row. Vacuous,
    with the reason, when the bound is 1 or more.
    """
    final = traj.snapshots[-1]
    resid_vec = final - float(final @ v) * v
    observed = float(np.linalg.norm(resid_vec))
    sqrt_alpha = math.sqrt(alpha)
    bound = envelope(alpha, beta)
    alpha_ok = alpha_hypothesis_ok(alpha, traj.n)
    beta_ok = beta_hypothesis_ok(beta, traj.m)
    details = {
        "observed_residual": observed,
        "envelope": bound,
        "sqrt_alpha": sqrt_alpha,
        "probability_floor": 1.0 - envelope_slack(beta),
        "alpha_hypothesis_ok": alpha_ok,
        "beta_hypothesis_ok": beta_ok,
        "certification": "certified" if (alpha_ok and beta_ok) else "empirical",
    }
    name = "final_residual_bound"
    at_vstar = traj.init_kind == "vstar"
    if at_vstar:
        bound = sqrt_alpha
    margin = bound - observed
    reason = _bound_below_one("sqrt(alpha)" if at_vstar else "envelope", bound)
    if not (reason or at_vstar):
        if math.isnan(margin):
            details["reason"] = "NaN margin: the envelope or the residual is not a number"
        elif not within_envelope(observed, alpha, beta):
            reason = (
                "probabilistic envelope exceeded; a single run cannot certify or "
                "refute a probability bound"
            )
    if reason:
        details["reason"] = reason
        return CheckResult(name, VACUOUS, margin=margin, details=details)
    return _judged(name, margin, **details)


def run_all_checks(traj: Trajectory, v_star, alpha: float, beta: float) -> CheckReport:
    """Every entry of the certificate, once each, in report order. Each
    entry reports its own unmet hypothesis as vacuous instead of
    erroring; this adds no gate or verdict of its own.

    Raises:
        ValueError: v_star is not a unit vector.
        OverflowError: alpha is so large that the energy budget is not
            finite.
    """
    v = as_unit_vector(v_star, "v_star")
    entries = [
        _norm_update_identity(traj),
        _norm_never_decreases(traj),
        _step_growth_floor(traj),
        _interval_growth_floor(traj),
        _increment_reconstruction(traj),
        _residual_bounded_by_growth(traj, v, alpha),
        _drift_requires_growth(traj, v, alpha),
        _orthogonal_energy_budget(traj, v, alpha),
        _aligned_energy_growth_floor(traj, alpha, beta),
        _final_norm_floor(traj),
        _final_residual_bound(traj, v, alpha, beta),
    ]
    constants = {
        "alpha": alpha,
        "beta": beta,
        "eta": traj.config.eta,
        "n": traj.n,
        "m": traj.m,
        "init": traj.init_kind,
    }
    return CheckReport(entries=entries, constants=constants)
