"""Certification of a run's steps.

Every growth inequality the analysis guarantees is rechecked here from
the run's step table (per-step scalars and directions), with the
oracle's (alpha, beta) supplied by the caller. Each hypothesis a
statement needs (e.g. starting exactly at v*) is tested by one predicate
below, which returns None or the reason it fails; a run starts at v*
when its start is v* in every entry, within linalg.UNIT_NORM_TOL. A
check whose hypotheses a trajectory does not meet reports status
"vacuous" with the first unmet one named; it never raises and is never
silently skipped. Inequalities carry a 1e-9 additive slack on the
deficient side to absorb float noise, and margins are reported signed
so near-violations stay visible. The per-step identities are held to
tolerances instead: the log ratio to 1e-12, and to be at least the step
floor eta s_i^2, each step's increment over its growth to
(1.5 m + 12) eps. The analysis's interval floor and final norm floor
are sums of that step floor, so they are implied and not listed.

The certificate (``_Certificate``) is one pass over a run's units (the
k + 1 table rows of a stretch of steps, from the row before its first;
the first unit starts at step 1) that holds O(m) state: each running
extreme with the first step where it occurs, the log norm and every
sum, each carried from unit to unit by linalg.carried, so one term at
a time, the orthogonal parts of the few rows the random drift pairs
need (drawn from (n, seed) before the pass) and the last direction.
Every per-row product is row-local (np.einsum, or a reduction along
axis 1), so no bit of the report depends on where the units are cut:
``run --check`` feeds it run_stream's units as they are solved,
``check`` a file's as they are parsed, to the same bits.
``tests/reference_checks.py`` keeps the whole-array checker this pass
is tested against.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .linalg import UNIT_NORM_TOL, as_unit_vector, carried

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"

SLACK = 1e-9

# Tolerance for the log ratio's update identity (stricter than SLACK:
# it recomputes an exact float identity, not an inequality).
IDENTITY_TOL = 1e-12


def _increment_tol(m: int) -> float:
    """(3m + 24) u, u = eps/2: a first-order bound on the rounding error
    of an honest step's increment identity over its growth (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3), which
    README's certificate section adds up term by term."""
    return (1.5 * m + 12.0) * float(np.finfo(np.float64).eps)


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
        return _jsonable(asdict(self))


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
    if isinstance(v, list):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _at_vstar(start: np.ndarray, v: np.ndarray) -> str | None:
    """None where the start is v, the unit v*, in every entry within
    UNIT_NORM_TOL: the one rule for a start at v*."""
    if np.abs(start - v).max() <= UNIT_NORM_TOL:
        return None
    return "initializer is not at-v*"


def _nonempty(traj) -> str | None:
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


def _positive_beta(beta: float) -> str | None:
    # At beta <= 0 the growth floor is at most 0, and L_n, a sum of log
    # ratios, falls below 0 only where norm_update_identity fails.
    if not beta <= 0.0:  # NaN is judged, and fails
        return None
    return f"requires beta > 0; beta={beta:g}"


def _vacuous(name: str, reason: str) -> CheckResult:
    return CheckResult(name, VACUOUS, details={"reason": reason})


def _judged(
    name: str, margin: float, slack: float = SLACK, location=None, **details
) -> CheckResult:
    """PASS when margin >= -slack, else FAIL (a NaN margin fails)."""
    status = PASS if margin >= -slack else FAIL
    return CheckResult(name, status, margin, location, details)


def _drawn_pairs(n: int, seed: int, count: int) -> np.ndarray:
    """The (2, count) seeded random index pairs a < b in [0, n], n >= 1,
    in the order they are drawn."""
    rng = np.random.default_rng(seed)
    drawn = np.empty((2, count), dtype=np.int64)
    for k in range(count):
        drawn[0, k] = rng.integers(0, n)
        drawn[1, k] = rng.integers(drawn[0, k] + 1, n + 1)
    return drawn


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of nonnegative integers. A sort and a mask of repeats
    take about a tenth of its time (numpy 2.4), and np.unique imports
    numpy.ma, which a run does not otherwise need."""
    ordered = np.sort(values)
    return ordered[np.diff(ordered, prepend=-1) > 0]


def _sorted_unique_pairs(pairs: np.ndarray) -> np.ndarray:
    """The distinct columns (a, b) of a (2, k) integer array, in
    ascending (a, b) order: one lexsort and a mask of repeats, with no
    key a * (n + 1) + b to overflow int64."""
    ordered = pairs[:, np.lexsort(pairs[::-1])]
    repeat = (ordered[:, 1:] == ordered[:, :-1]).all(axis=0)
    return ordered[:, np.concatenate(([True], ~repeat))]


class _Extreme:
    """The least value fed so far, or with largest=True the greatest, and
    the index where it first occurs: what np.argmin (np.argmax) over all
    of it, in order, gives, a NaN beating every number."""

    def __init__(self, largest: bool = False):
        self.largest = largest
        self.value = math.nan
        self.index = None

    def feed(self, values: np.ndarray, first_index: int) -> None:
        """Take values, indexed from first_index."""
        j = int(values.argmax() if self.largest else values.argmin())
        value = float(values[j])
        beats = math.isnan(value) or (
            value > self.value if self.largest else value < self.value
        )
        if self.index is None or (beats and not math.isnan(self.value)):
            self.value, self.index = value, first_index + j


def _orthogonal_into(
    out: np.ndarray, rows: np.ndarray, v: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """out = rows minus their v components, each row on its own, the
    components formed in work (which may be out, unless out is rows)."""
    proj = np.einsum("ij,j->i", rows, v)
    np.multiply(proj[:, None], v, out=work)
    return np.subtract(rows, work, out=out)


def _row_norms(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.linalg.norm(rows, axis=1), bit for bit, with the squares in out
    (which may be rows)."""
    np.multiply(rows, rows, out=out)
    return np.sqrt(np.add.reduce(out, axis=1))


class _Certificate:
    """The certificate's state after the units fed so far: ``add`` takes
    the next unit's rows, ``report`` gives the entries once every unit is
    fed. ``traj`` is a _Head (or a Trajectory or TrajectoryFile). The
    run starts at v* when its init_v_hat is v_star (_at_vstar), decided
    once here. A non-finite value fails its entry, without a numpy
    warning.

    Raises:
        ValueError: v_star is not a unit vector, or not of the run's
            width m.
    """

    def __init__(self, traj, v_star, alpha: float, beta: float):
        v = as_unit_vector(v_star, "v_star")
        if v.shape[0] != traj.m:
            raise ValueError(
                f"v_star has width {v.shape[0]}, the run's directions {traj.m}"
            )
        self.traj, self.v, self.alpha, self.beta = traj, v, alpha, beta
        self.eta = traj.config.eta
        self.off_vstar = _at_vstar(traj.init_v_hat, v)  # None at v*
        self.sqrt_alpha = math.sqrt(alpha)
        # Which entries need the orthogonal parts of the directions.
        self.growth_judged = _bound_below_one("sqrt(alpha)", self.sqrt_alpha) is None
        self.drift_judged = not (self.off_vstar or _nonempty(traj))
        self.ratio_sum = 0.0  # sum of log ratios so far; L = half of it
        self.phi_sum = 0.0
        self.orth_energy = 0.0  # sum of <phi_i, P v_{i-1}>^2 so far
        self.skipped = 0
        self.steps = 0  # steps fed so far
        self.identity = _Extreme(largest=True)
        self.closed_diff = _Extreme(largest=True)
        self.direct_diff = _Extreme(largest=True)
        self.growth = _Extreme()
        self.corollary = _Extreme()
        self.drift = _Extreme()
        self.increment = _Extreme(largest=True)
        self.last = np.array(traj.init_v_hat, dtype=np.float64)
        self.buffers = None  # (increments, work, directions then orth), k + 1 rows of m
        # Random drift pairs that are not adjacent, the rows they need,
        # and those rows' orthogonal parts and log norms once passed.
        self.far = np.empty((2, 0), dtype=np.int64)
        self.pair_rows = {}
        if self.drift_judged:
            drawn = _drawn_pairs(traj.n, traj.seed, CHECK_PAIR_COUNT)
            far = _sorted_unique_pairs(drawn)
            self.far = far[:, far[1] > far[0] + 1]
        self.needed = _sorted_unique(self.far.ravel())
        if self.growth_judged or self.drift_judged:
            orth = np.empty((1, traj.m))
            _orthogonal_into(orth, self.last[None, :], v, orth)
            if self.needed.size and self.needed[0] == 0:
                self.pair_rows[0] = (orth[0].copy(), 0.0)
            self.initial_residual = _row_norms(orth, orth)[0]
            if self.growth_judged:
                self._feed_residuals(np.array([self.initial_residual]), np.zeros(1), 0)

    def _feed_residuals(self, residuals, log_norm, first_index: int) -> None:
        bounds = self.sqrt_alpha + self.initial_residual * np.exp(-log_norm)
        self.growth.feed(bounds - residuals, first_index)
        if not self.off_vstar:
            self.corollary.feed(self.sqrt_alpha - residuals, first_index)

    @np.errstate(all="ignore")
    def add(self, rows: np.ndarray) -> None:
        first, k, eta = self.steps + 1, len(rows) - 1, self.eta
        self.steps += k
        s, phi_norm_sq, log_ratio = rows[1:, 0], rows[1:, 1], rows[1:, 2]
        if self.buffers is None or len(self.buffers[0]) < k + 1:
            self.buffers = np.empty((3, k + 1, self.traj.m))
        # The directions, copied into the buffer that then holds their
        # orthogonal parts: numpy runs an elementwise op on rows' strided
        # columns through three buffers of up to 64 KiB, allocated per call.
        snaps = self.buffers[2][: k + 1]
        np.copyto(snaps, rows[:, 3:])
        prev, cur = snaps[:-1], snaps[1:]
        ratio_sums = carried(self.ratio_sum, log_ratio)
        self.ratio_sum = float(ratio_sums[-1])
        log_norm = 0.5 * ratio_sums  # L at rows first - 1, ..., first - 1 + k
        s_sq = s**2
        eta_s_sq = eta * s_sq

        # The log ratio against the closed form recomputed from the
        # recorded scalars, and against ||u_i|| = (1 + eta*s_i^2) /
        # <v_hat_i, v_hat_{i-1}> from consecutive directions. A log
        # ratio below its step floor eta*s_i^2 (NaN included) differs by
        # inf: an honest one, log1p(eta (2 + eta ||f||^2) s^2), is at
        # least 2 log1p(eta s^2), which is >= eta s^2 up to eta s^2 = 2.51.
        closed = np.log1p(eta * (2.0 + eta * phi_norm_sq) * s_sq)
        diff_closed = np.abs(log_ratio - closed)
        dots = np.einsum("ij,ij->i", cur, prev)
        u_norm = np.where(dots > 0, (1.0 + eta_s_sq) / dots, np.nan)
        diff_direct = np.abs(log_ratio - 2.0 * np.log(u_norm))
        diff_direct = np.where(np.isfinite(diff_direct), diff_direct, np.inf)
        worst = np.maximum(diff_closed, diff_direct)
        self.identity.feed(np.where(log_ratio >= eta_s_sq, worst, np.inf), first)
        self.closed_diff.feed(diff_closed, first)
        self.direct_diff.feed(diff_direct, first)

        # exp(lr_i/2) v_hat_i - v_hat_{i-1} = eta s_i f_i, the increment
        # over ||v_{i-1}||: its norm's error, over the growth exp(lr_i/2).
        growth = np.exp(0.5 * log_ratio)
        increments = np.multiply(growth[:, None], cur, out=self.buffers[0][:k])
        increments -= prev
        norms = np.sqrt(np.einsum("ij,ij->i", increments, increments))
        expected = eta * np.abs(s) * np.sqrt(phi_norm_sq)
        self.increment.feed(np.abs(norms - expected) / growth, first)

        np.copyto(self.last, snaps[-1])

        if not (self.growth_judged or self.drift_judged):
            return
        orth = _orthogonal_into(snaps, snaps, self.v, self.buffers[1][: k + 1])
        work = self.buffers[1][:k]
        if self.growth_judged:
            self._feed_residuals(_row_norms(orth[1:], work), log_norm[1:], first)
        if not self.drift_judged:
            return
        self.phi_sum = float(carried(self.phi_sum, phi_norm_sq)[-1])
        diff = np.subtract(orth[1:], orth[:-1], out=work)
        drift = _row_norms(diff, diff)
        rhs = 50.0 * self.alpha * (log_norm[1:] - log_norm[:-1])
        self.drift.feed(rhs - drift**2, first - 1)
        lo, hi = np.searchsorted(self.needed, [first, first + k])
        for row in self.needed[lo:hi].tolist():
            j = row - first + 1
            self.pair_rows[row] = (orth[j].copy(), log_norm[j])

        # Each step's <phi_i, P v_{i-1}>, with phi_i rebuilt from its
        # increment. A step with s_i = 0 leaves no trace in the
        # directions: it divides by 1.0 in place of 0, is dropped and
        # counted. An eta * s that underflows to 0 makes the energy inf
        # or NaN, which the entry reports.
        nonzero = s != 0.0
        self.skipped += k - int(np.count_nonzero(nonzero))
        if nonzero.any():
            phi = increments
            phi /= np.where(nonzero, eta * s, 1.0)[:, None]
            energies = np.einsum("ij,ij->i", phi, orth[:-1])
            self.orth_energy = float(
                carried(self.orth_energy, energies[nonzero] ** 2)[-1]
            )

    def _drift_requires_growth(self) -> CheckResult:
        """Between any two recorded steps, the orthogonal part cannot
        drift without the log norm growing: ||P v_b - P v_a||^2 <=
        50*alpha*(L_b - L_a), over the adjacent pairs and the random
        ones. The worst pair is np.argmin's over all pairs in ascending
        (a, b) order. Vacuous unless the run starts at v* and has a step."""
        name = "drift_requires_growth"
        reason = self.off_vstar or _nonempty(self.traj)
        if reason:
            return _vacuous(name, reason)
        adjacent = self.drift
        pairs = [(adjacent.value, adjacent.index, adjacent.index + 1)]
        if self.far.size:
            a_rows, a_logs = zip(*(self.pair_rows[a] for a in self.far[0].tolist()))
            b_rows, b_logs = zip(*(self.pair_rows[b] for b in self.far[1].tolist()))
            diff = np.subtract(b_rows, a_rows)
            drift = _row_norms(diff, diff)
            rhs = 50.0 * self.alpha * (np.array(b_logs) - np.array(a_logs))
            far = _Extreme()
            far.feed(rhs - drift**2, 0)
            a, b = self.far[:, far.index].tolist()
            pairs.append((far.value, a, b))
        # np.argmin's pick over all pairs in (a, b) order: the first NaN
        # margin (the one not equal to itself), else the first least.
        margin, a, b = min(
            pairs, key=lambda p: (p[0] == p[0], p[0] if p[0] == p[0] else 0.0, p[1:])
        )
        return _judged(
            name,
            margin,
            location=[a, b],
            pairs_checked=self.traj.n + self.far.shape[1],
        )

    @np.errstate(all="ignore")
    def report(self) -> CheckReport:
        """The seven entries, in report order, and their constants.

        Raises:
            OverflowError: alpha is so large that the energy budget is
                not finite.
        """
        traj, eta, alpha, beta = self.traj, self.eta, self.alpha, self.beta
        n = traj.n
        final_log_norm = 0.5 * self.ratio_sum
        empty = _nonempty(traj)
        out = []

        name = "norm_update_identity"
        if empty:
            out.append(_vacuous(name, empty))
        else:
            out.append(
                _judged(
                    name,
                    IDENTITY_TOL - self.identity.value,
                    slack=0.0,
                    location=self.identity.index,
                    max_closed_form_diff=self.closed_diff.value,
                    max_direct_norm_diff=self.direct_diff.value,
                    tolerance=IDENTITY_TOL,
                )
            )

        name = "increment_reconstruction"
        if empty:
            out.append(_vacuous(name, empty))
        else:
            tol = _increment_tol(traj.m)
            worst = self.increment
            out.append(
                _judged(
                    name,
                    tol - worst.value,
                    slack=0.0,
                    location=worst.index,
                    max_increment_diff=worst.value,
                    tolerance=tol,
                )
            )

        # The residual orthogonal to v* is bounded by sqrt(alpha) plus the
        # initial residual shrunk by the accumulated norm growth; for
        # at-v* starts the bound tightens to sqrt(alpha) alone. Vacuous
        # when sqrt(alpha) >= 1, which puts every bound at 1 or above.
        name = "residual_bounded_by_growth"
        if not self.growth_judged:
            out.append(_vacuous(name, _bound_below_one("sqrt(alpha)", self.sqrt_alpha)))
        else:
            margin, location = self.growth.value, self.growth.index
            details = {"initial_residual": float(self.initial_residual)}
            if not self.off_vstar:
                details["corollary_margin"] = self.corollary.value
                if self.corollary.value < margin:
                    margin, location = self.corollary.value, self.corollary.index
            out.append(_judged(name, margin, location=location, **details))

        out.append(self._drift_requires_growth())
        out.append(self._orthogonal_energy_budget(final_log_norm))

        # The final log norm is at least (beta/8) / (1 + C1 alpha^2
        # log^2 n), for at-v* starts with alpha < 0.1 only. Vacuous at
        # beta <= 0, which puts the floor at 0 or below.
        name = "aligned_energy_growth_floor"
        reason = self.off_vstar or _small_alpha(alpha) or empty or _positive_beta(beta)
        if reason:
            out.append(_vacuous(name, reason))
        else:
            log_n = math.log(n) if n > 1 else 0.0
            floor = (beta / 8.0) / (1.0 + GROWTH_FLOOR_C1 * alpha**2 * log_n**2)
            out.append(
                _judged(
                    name, final_log_norm - floor, log_norm=final_log_norm, floor=floor
                )
            )

        out.append(
            _final_residual_bound(
                self.last, self.v, alpha, beta, n, traj.m, not self.off_vstar
            )
        )
        init = "random" if self.off_vstar else "vstar"
        constants = dict(alpha=alpha, beta=beta, eta=eta, n=n, m=traj.m, init=init)
        return CheckReport(entries=out, constants=constants)

    def _orthogonal_energy_budget(self, final_log_norm: float) -> CheckResult:
        """Total feature energy hitting the orthogonal complement,
        eta * sum <phi_i, P v_{i-1}>^2, stays within the budget
        100 * alpha^2 * log^2(n) * L_n. Steps with s_i = 0 are skipped
        (their count is reported). Vacuous unless the run starts at v*,
        has a step and has a budget below eta * sum ||phi_i||^2, the most
        the energy can be.

        Raises:
            OverflowError: alpha is so large that the budget is not finite.
        """
        name = "orthogonal_energy_budget"
        traj, alpha, n = self.traj, self.alpha, self.traj.n
        reason = self.off_vstar or _nonempty(traj)
        if reason:
            return _vacuous(name, reason)
        rhs = 0.0
        if n > 1:
            rhs = 100.0 * alpha**2 * math.log(n) ** 2 * final_log_norm
        if not math.isfinite(rhs):
            # As alpha**2 raises for a larger alpha.
            raise OverflowError(f"energy budget {rhs} is not finite")
        reason = _budget_below_most(rhs, self.eta * self.phi_sum)
        if reason:
            return _vacuous(name, reason)
        lhs = self.eta * self.orth_energy
        details = {"lhs": lhs, "rhs": rhs, "skipped_zero_s_steps": self.skipped}
        if not math.isfinite(lhs):
            details["reason"] = "non-finite energy: eta * s underflows or a feature overflows"
        return _judged(name, rhs - lhs, **details)


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
    final: np.ndarray, v, alpha: float, beta: float, n: int, m: int, at_vstar: bool
) -> CheckResult:
    """Final residual against the sqrt(alpha) + exp(-beta/200) envelope.

    For an at-v* start the residual must sit below sqrt(alpha) (a
    deterministic guarantee). For a random start the envelope only
    holds with high probability, so a single-run exceedance is reported
    as vacuous, never as a failure. No verdict is drawn across trials
    either: the harness's aggregate reports only
    envelope_failure_fraction, the share of the error-free trials whose
    envelope is below 1 that exceed it. The guarantee's
    large-constant hypotheses on alpha and beta are evaluated and the
    result is labeled "certified" only when they hold, "empirical"
    otherwise. ``final`` is the last direction. Vacuous, with the
    reason, when the bound is 1 or more.
    """
    resid_vec = final - float(final @ v) * v
    observed = float(np.linalg.norm(resid_vec))
    sqrt_alpha = math.sqrt(alpha)
    bound = envelope(alpha, beta)
    alpha_ok = alpha_hypothesis_ok(alpha, n)
    beta_ok = beta_hypothesis_ok(beta, m)
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
    """Every entry of the certificate, once each, in report order, from
    one pass over ``traj.units()``: an in-memory Trajectory, or a
    trajectory file that reads its rows as the pass asks for them (a
    defect in the file raises where the pass reaches it). Each entry
    reports its own unmet hypothesis as vacuous instead of erroring;
    this adds no gate or verdict of its own.

    Raises:
        ValueError: v_star is not a unit vector, or not of the run's
            width m.
        OverflowError: alpha is so large that the energy budget is not
            finite.
    """
    certificate = _Certificate(traj, v_star, alpha, beta)
    for unit in traj.units():
        certificate.add(unit)
    return certificate.report()
