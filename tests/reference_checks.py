"""The certificate over whole arrays: the spec the one-pass checker in
streamkpca.checks is tested against.

Each entry reads the in-memory Trajectory's table as whole columns
(``Columns``) at once, with one matrix-vector product for every
projection onto v*, and sums with np.sum. The one-pass checker carries
its sums one step at a time and projects each row on its own, so the
two agree in statuses, locations and reasons, and in margins to
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from streamkpca.checks import (
    CHECK_PAIR_COUNT,
    GROWTH_FLOOR_C1,
    IDENTITY_TOL,
    VACUOUS,
    CheckReport,
    CheckResult,
    _at_vstar,
    _bound_below_one,
    _budget_below_most,
    _drawn_pairs,
    _increment_tol,
    _judged,
    _nonempty,
    _positive_beta,
    _small_alpha,
    _sorted_unique,
    _vacuous,
    alpha_hypothesis_ok,
    beta_hypothesis_ok,
    envelope,
    envelope_slack,
    within_envelope,
)
from streamkpca.linalg import as_unit_vector


@dataclass
class Columns:
    """A Trajectory's table as whole arrays: the step columns (index i
    is step i + 1), the (n+1, m) snapshots (row 0 the start) and the
    log norm, n + 1 entries relative to step 0. ``init_kind`` is
    "vstar" where the start is v* by checks._at_vstar, else "random"."""

    config: object
    init_kind: str
    seed: int
    n: int
    m: int
    s: np.ndarray
    phi_norm_sq: np.ndarray
    log_ratio: np.ndarray
    snapshots: np.ndarray
    log_norm: np.ndarray


def columns(traj, v) -> Columns:
    s, phi_norm_sq, log_ratio = traj.table[1:, :3].T
    init_kind = "random" if _at_vstar(traj.init_v_hat, v) else "vstar"
    return Columns(
        traj.config, init_kind, traj.seed, traj.n, traj.m, s, phi_norm_sq,
        log_ratio, np.ascontiguousarray(traj.table[:, 3:]),
        np.concatenate(([0.0], 0.5 * np.cumsum(log_ratio))),
    )


def _not_at_vstar(traj) -> str | None:
    return None if traj.init_kind == "vstar" else "initializer is not at-v*"


def sample_check_pairs(
    n: int, seed: int, count: int = CHECK_PAIR_COUNT
) -> tuple[np.ndarray, np.ndarray]:
    """All adjacent index pairs plus ``count`` seeded random pairs in [0, n],
    as index arrays (a, b) in ascending (a, b) order without repeats."""
    a, b = np.arange(n), np.arange(1, n + 1)
    if n >= 1:
        drawn = _drawn_pairs(n, seed, count)
        a, b = np.concatenate([a, drawn[0]]), np.concatenate([b, drawn[1]])
    # b <= n, so these keys sort as the (a, b) tuples do.
    keys = _sorted_unique(a * (n + 1) + b)
    return keys // (n + 1), keys % (n + 1)


def norm_update_identity(traj) -> CheckResult:
    name = "norm_update_identity"
    reason = _nonempty(traj)
    if reason:
        return _vacuous(name, reason)
    snaps = traj.snapshots
    eta, s, log_ratio = traj.config.eta, traj.s, traj.log_ratio
    floor = eta * s**2
    closed = np.log1p(eta * (2.0 + eta * traj.phi_norm_sq) * s**2)
    diff_closed = np.abs(log_ratio - closed)
    dots = np.einsum("ij,ij->i", snaps[1:], snaps[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        u_norm = np.where(dots > 0, (1.0 + floor) / dots, np.nan)
        direct = 2.0 * np.log(u_norm)
    diff_direct = np.abs(log_ratio - direct)
    diff_direct = np.where(np.isfinite(diff_direct), diff_direct, np.inf)
    worst = np.where(log_ratio >= floor, np.maximum(diff_closed, diff_direct), np.inf)
    return _judged(
        name,
        IDENTITY_TOL - float(worst.max()),
        slack=0.0,
        location=int(np.argmax(worst)) + 1,
        max_closed_form_diff=float(diff_closed.max()),
        max_direct_norm_diff=float(diff_direct.max()),
        tolerance=IDENTITY_TOL,
    )


def increment_reconstruction(traj) -> CheckResult:
    name = "increment_reconstruction"
    reason = _nonempty(traj)
    if reason:
        return _vacuous(name, reason)
    snaps = traj.snapshots
    with np.errstate(all="ignore"):
        growth = np.exp(0.5 * traj.log_ratio)
        increments = growth[:, None] * snaps[1:] - snaps[:-1]
        expected = traj.config.eta * np.abs(traj.s) * np.sqrt(traj.phi_norm_sq)
        norms = np.sqrt(np.einsum("ij,ij->i", increments, increments))
        excess = np.abs(norms - expected) / growth
    tol, worst = _increment_tol(traj.m), float(excess.max())
    return _judged(
        name, tol - worst, slack=0.0, location=int(np.argmax(excess)) + 1,
        max_increment_diff=worst, tolerance=tol,
    )


def orthogonal_parts(traj, v) -> np.ndarray:
    """Every snapshot row minus its component along v."""
    snaps = traj.snapshots
    return snaps - (snaps @ v)[:, None] * v


def residual_bounded_by_growth(traj, v, alpha: float) -> CheckResult:
    name = "residual_bounded_by_growth"
    reason = _bound_below_one("sqrt(alpha)", math.sqrt(alpha))
    if reason:
        return _vacuous(name, reason)
    residuals = np.linalg.norm(orthogonal_parts(traj, v), axis=1)
    bounds = math.sqrt(alpha) + residuals[0] * np.exp(-traj.log_norm)
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


def drift_requires_growth(traj, v, alpha: float) -> CheckResult:
    name = "drift_requires_growth"
    reason = _not_at_vstar(traj) or _nonempty(traj)
    if reason:
        return _vacuous(name, reason)
    orth = orthogonal_parts(traj, v)
    a_idx, b_idx = sample_check_pairs(traj.n, traj.seed)
    lhs = np.linalg.norm(orth[b_idx] - orth[a_idx], axis=1) ** 2
    rhs = 50.0 * alpha * (traj.log_norm[b_idx] - traj.log_norm[a_idx])
    margins = rhs - lhs
    worst = int(np.argmin(margins))
    return _judged(
        name,
        float(margins.min()),
        location=[int(a_idx[worst]), int(b_idx[worst])],
        pairs_checked=len(a_idx),
    )


def orthogonal_energy_budget(traj, v, alpha: float) -> CheckResult:
    name = "orthogonal_energy_budget"
    reason = _not_at_vstar(traj) or _nonempty(traj)
    if reason:
        return _vacuous(name, reason)
    n, s = traj.n, traj.s
    eta = traj.config.eta
    rhs = 0.0
    if n > 1:
        rhs = 100.0 * alpha**2 * math.log(n) ** 2 * float(traj.log_norm[-1])
    if not math.isfinite(rhs):
        raise OverflowError(f"energy budget {rhs} is not finite")
    with np.errstate(over="ignore"):
        most = eta * float(np.sum(traj.phi_norm_sq))
    reason = _budget_below_most(rhs, most)
    if reason:
        return _vacuous(name, reason)
    snaps = traj.snapshots
    nonzero = s != 0.0
    skipped = int(np.count_nonzero(~nonzero))
    lhs = 0.0
    if np.any(nonzero):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            growth = np.exp(0.5 * traj.log_ratio)
            phi = growth[:, None] * snaps[1:] - snaps[:-1]
            phi /= np.where(nonzero, eta * s, 1.0)[:, None]
            energies = np.einsum("ij,ij->i", phi, orthogonal_parts(traj, v)[:-1])
            lhs = eta * float(np.sum(energies[nonzero] ** 2))
    details = {"lhs": lhs, "rhs": rhs, "skipped_zero_s_steps": skipped}
    if not math.isfinite(lhs):
        details["reason"] = "non-finite energy: eta * s underflows or a feature overflows"
    return _judged(name, rhs - lhs, **details)


def aligned_energy_growth_floor(traj, alpha: float, beta: float) -> CheckResult:
    name = "aligned_energy_growth_floor"
    reason = (
        _not_at_vstar(traj)
        or _small_alpha(alpha)
        or _nonempty(traj)
        or _positive_beta(beta)
    )
    if reason:
        return _vacuous(name, reason)
    n, final = traj.n, float(traj.log_norm[-1])
    log_n = math.log(n) if n > 1 else 0.0
    floor = (beta / 8.0) / (1.0 + GROWTH_FLOOR_C1 * alpha**2 * log_n**2)
    return _judged(name, final - floor, log_norm=final, floor=floor)


def final_residual_bound(traj, v, alpha: float, beta: float) -> CheckResult:
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


def run_all_checks(traj, v_star, alpha: float, beta: float) -> CheckReport:
    """The seven entries, in report order, from the whole arrays."""
    v = as_unit_vector(v_star, "v_star")
    traj = columns(traj, v)
    entries = [
        norm_update_identity(traj),
        increment_reconstruction(traj),
        residual_bounded_by_growth(traj, v, alpha),
        drift_requires_growth(traj, v, alpha),
        orthogonal_energy_budget(traj, v, alpha),
        aligned_energy_growth_floor(traj, alpha, beta),
        final_residual_bound(traj, v, alpha, beta),
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
