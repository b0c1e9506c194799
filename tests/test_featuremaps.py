import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamkpca.featuremaps import FeatureMapSpec, poly2_dim
from streamkpca.linalg import DimensionError


class TestSpecValidation:
    def test_identity_dim_mismatch(self):
        with pytest.raises(ValueError):
            FeatureMapSpec(kind="identity", input_dim=3, feature_dim=4)

    def test_poly2_dim_mismatch(self):
        with pytest.raises(ValueError):
            FeatureMapSpec(kind="poly2", input_dim=3, feature_dim=5)

    @pytest.mark.parametrize("kind, m", [("identity", 3), ("poly2", 6)])
    @pytest.mark.parametrize("key, value", [("bandwidth", 2.0), ("seed", 0)])
    def test_rff_keys_refused_on_other_maps(self, kind, m, key, value):
        with pytest.raises(
            ValueError, match=f"^key '{key}' is for an rff map only, not {kind}; got {value!r}$"
        ):
            FeatureMapSpec(kind=kind, input_dim=3, feature_dim=m, **{key: value})
        # None is every other map's value, as to_dict leaves both keys out.
        spec = FeatureMapSpec(kind=kind, input_dim=3, feature_dim=m, **{key: None})
        assert FeatureMapSpec.from_dict(spec.to_dict()) == spec

    def test_rff_needs_seed(self):
        with pytest.raises(ValueError):
            FeatureMapSpec(kind="rff", input_dim=3, feature_dim=8, bandwidth=1.0)

    def test_rff_positive_bandwidth(self):
        with pytest.raises(ValueError):
            FeatureMapSpec.rff(3, 8, bandwidth=0.0, seed=1)

    @pytest.mark.parametrize(
        "bandwidth", [math.nan, math.inf, 10**400, Fraction(10**400)]
    )
    def test_rff_finite_bandwidth(self, bandwidth):
        # Beyond float range too: refused, not an OverflowError in apply.
        with pytest.raises(ValueError, match=re.escape(f"got {bandwidth!r}")):
            FeatureMapSpec.rff(3, 8, bandwidth=bandwidth, seed=1)

    def test_rff_seed_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="rff seed must be an integer >= 0"):
            FeatureMapSpec.rff(3, 8, bandwidth=1.0, seed=-1)

    def test_rff_frequencies_must_be_finite(self):
        # A draw z / 1e-320 overflows, z / 1e-300 does not; neither warns.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="bandwidth 1e-320"):
                FeatureMapSpec.rff(3, 8, bandwidth=1e-320, seed=1)
            spec = FeatureMapSpec.rff(3, 8, bandwidth=1e-300, seed=1)
        assert caught == []
        assert np.isfinite(spec.rff_parameters[0]).all()

    @pytest.mark.parametrize(
        "spec", [FeatureMapSpec.identity(3), FeatureMapSpec.poly2(3)], ids=["identity", "poly2"]
    )
    def test_rff_parameters_refused_on_other_maps(self, spec):
        with pytest.raises(ValueError, match=f"for an rff map only, not {spec.kind}$"):
            spec.rff_parameters

    def test_rff_parameters_drawn_once_per_spec(self, monkeypatch):
        # A bandwidth below 1 has its frequencies tested at construction:
        # the test reads the same draw that apply and apply_batch use.
        draws = []
        default_rng = np.random.default_rng

        def counting(seed):
            draws.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        spec = FeatureMapSpec.rff(3, 8, 0.5, 11)
        assert draws == [11]
        x = np.array([0.3, -1.2, 0.7])
        row = spec.apply(x)
        assert spec.apply_batch(x[None, :])[0].tobytes() == row.tobytes()
        assert spec.rff_parameters is spec.rff_parameters
        assert draws == [11]
        # An equal spec draws its own, the same numbers.
        other = FeatureMapSpec.rff(3, 8, 0.5, 11)
        assert draws == [11, 11]
        assert other.apply(x).tobytes() == row.tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FeatureMapSpec(kind="nystrom", input_dim=3, feature_dim=3)

    def test_dict_round_trip(self):
        # Only rff writes bandwidth and seed: a config or sidecar of
        # another kind has three keys.
        three = {"kind", "input_dim", "feature_dim"}
        for spec, keys in (
            (FeatureMapSpec.identity(4), three),
            (FeatureMapSpec.poly2(3), three),
            (FeatureMapSpec.rff(4, 16, 1.5, 77), three | {"bandwidth", "seed"}),
        ):
            assert spec.to_dict().keys() == keys
            assert FeatureMapSpec.from_dict(spec.to_dict()) == spec


class TestApply:
    def test_identity(self):
        spec = FeatureMapSpec.identity(2)
        assert np.array_equal(spec.apply([3.0, 4.0]), [3.0, 4.0])

    def test_poly2_self_kernel(self):
        spec = FeatureMapSpec.poly2(2)
        f = spec.apply([1.0, 1.0])
        assert f.shape == (3,)
        assert abs(float(f @ f) - 4.0) <= 1e-12

    def test_rff_degenerate_frequency(self):
        # A frozen zero draw collapses every input to sqrt(2)*cos(0).
        spec = FeatureMapSpec.rff(2, 1, 1.0, 0)
        vars(spec)["rff_parameters"] = (np.zeros((1, 2)), np.zeros(1))
        feats = spec.apply(np.array([5.0, -3.0]))
        assert np.allclose(feats, [math.sqrt(2.0)], atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            FeatureMapSpec.identity(3).apply([1.0, 2.0])

    def test_determinism_across_equal_specs(self):
        a = FeatureMapSpec.rff(3, 32, 2.0, 123)
        b = FeatureMapSpec.rff(3, 32, 2.0, 123)
        x = np.array([0.3, -1.2, 0.7])
        assert np.array_equal(a.apply(x), b.apply(x))

    def test_different_seeds_differ(self):
        x = np.array([0.3, -1.2, 0.7])
        a = FeatureMapSpec.rff(3, 32, 2.0, 1).apply(x)
        b = FeatureMapSpec.rff(3, 32, 2.0, 2).apply(x)
        assert not np.array_equal(a, b)


def _any_spec(kind: str, d: int, m: int, seed: int) -> FeatureMapSpec:
    if kind == "identity":
        return FeatureMapSpec.identity(d)
    if kind == "poly2":
        return FeatureMapSpec.poly2(d)
    return FeatureMapSpec.rff(d, m, 0.5 + seed % 7, seed)


class TestApplyBatch:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["identity", "poly2", "rff"]),
        k=st.integers(1, 40),
        d=st.integers(1, 12),
        m=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        fortran=st.booleans(),
        buffered=st.booleans(),
    )
    def test_rows_equal_apply_bit_for_bit(self, kind, k, d, m, seed, fortran, buffered):
        spec = _any_spec(kind, d, m, seed)
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-3, 3)
        if fortran:
            xs = np.asfortranarray(xs)
        if buffered:
            # One buffer of k rows lifts a full block, a shorter one,
            # then a full one again, as a pass reuses it.
            out = np.full((k, spec.feature_dim), np.nan)
            blocks = [xs[::-1], xs[: max(1, k // 2)], xs]
        else:
            out, blocks = None, [xs]
        for block in blocks:
            feats = spec.apply_batch(block, out=out)
            assert feats.shape == (len(block), spec.feature_dim)
            assert feats.dtype == np.float64
            assert feats.flags.c_contiguous
            for x, row in zip(block, feats):
                assert row.tobytes() == spec.apply(x).tobytes()
            assert not np.shares_memory(feats, xs)
            assert out is None or np.shares_memory(feats, out)

    @pytest.mark.parametrize("kind", ["identity", "poly2", "rff"])
    @pytest.mark.parametrize(
        "out",
        [np.empty((3, 6)), np.empty((4, 5)), np.empty((4, 6), dtype=np.float32),
         np.empty((6, 4)).T, np.empty(24)],
        ids=["rows", "columns", "dtype", "order", "1-D"],
    )
    def test_unfit_out_is_refused(self, kind, out):
        spec = {"identity": FeatureMapSpec.identity(6), "poly2": FeatureMapSpec.poly2(3),
                "rff": FeatureMapSpec.rff(2, 6, 1.0, 0)}[kind]
        with pytest.raises(ValueError, match="out must be"):
            spec.apply_batch(np.ones((4, spec.input_dim)), out=out)

    def test_accepts_a_list_of_rows(self):
        spec = FeatureMapSpec.poly2(2)
        rows = [[1.0, 2.0], [3.0, -1.0]]
        assert np.array_equal(
            spec.apply_batch(rows), [spec.apply(r) for r in rows]
        )

    @pytest.mark.parametrize(
        "block", [np.ones(3), np.ones((2, 4)), np.ones((2, 3, 1)), [[1.0, 2.0, 3.0], [1.0]]]
    )
    def test_shape_checked_once_per_block(self, block):
        with pytest.raises(DimensionError):
            FeatureMapSpec.identity(3).apply_batch(block)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, value):
        block = np.ones((4, 3))
        block[2, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMapSpec.rff(3, 8, 1.0, 0).apply_batch(block)


class TestNormBound:
    def test_identity(self):
        assert FeatureMapSpec.identity(3).norm_bound(25.0) == 25.0

    def test_rff_constant(self):
        assert FeatureMapSpec.rff(3, 64, 1.0, 0).norm_bound(123.0) == 2.0

    def test_poly2_square(self):
        assert FeatureMapSpec.poly2(3).norm_bound(4.0) == 16.0

    def test_poly2_bound_by_sampling(self):
        # Oracle: maximize ||phi(x)||^2 over 1e5 samples with ||x||^2 <= 4.
        spec = FeatureMapSpec.poly2(3)
        rng = np.random.default_rng(42)
        dirs = rng.standard_normal((10**5, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii_sq = rng.uniform(0.0, 4.0, 10**5)
        xs = dirs * np.sqrt(radii_sq)[:, None]
        worst = 0.0
        for x in xs[:2000]:
            f = spec.apply(x)
            worst = max(worst, float(f @ f))
        # vectorized equivalent for the full sample: ||phi(x)||^2 == ||x||^4
        norms4 = (np.sum(xs**2, axis=1)) ** 2
        assert float(norms4.max()) <= 16.0 + 1e-12
        assert worst <= 16.0 + 1e-12

    @pytest.mark.parametrize("g", [1e-300, 3.7, 1e150, 1e160, 1.7e308])
    def test_poly2_square_rounds_as_a_power(self, g):
        # g * g keeps the bits of g ** 2 and overflows to inf (or
        # underflows to 0), where g ** 2 raises OverflowError.
        try:
            want = g**2
        except OverflowError:
            want = math.inf
        assert FeatureMapSpec.poly2(3).norm_bound(g) == want

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError):
            FeatureMapSpec.identity(3).norm_bound(0.0)


class TestKernelConsistency:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9))
    def test_poly2_kernel_identity(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        spec = FeatureMapSpec.poly2(d)
        x = rng.uniform(-2, 2, d)
        y = rng.uniform(-2, 2, d)
        lhs = float(spec.apply(x) @ spec.apply(y))
        rhs = float(x @ y) ** 2
        limit = 1e-9 * max(1.0, float(x @ x) * float(y @ y))
        assert abs(lhs - rhs) <= limit

    def test_poly2_kernel_identity_bulk(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = int(rng.integers(1, 7))
            spec = FeatureMapSpec.poly2(d)
            x = rng.uniform(-3, 3, d)
            y = rng.uniform(-3, 3, d)
            lhs = float(spec.apply(x) @ spec.apply(y))
            rhs = float(x @ y) ** 2
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, float(x @ x) * float(y @ y))

    def test_rff_approximates_rbf_kernel(self):
        d, m, sigma = 3, 4096, 1.3
        rng = np.random.default_rng(99)
        pairs = []
        while len(pairs) < 100:
            x = rng.uniform(-1.5, 1.5, d)
            y = x + rng.uniform(-1.0, 1.0, d)
            if np.linalg.norm(x - y) <= 3.0 * sigma:
                pairs.append((x, y))
        estimates = np.zeros((50, 100))
        for s in range(50):
            spec = FeatureMapSpec.rff(d, m, sigma, 1000 + s)
            freqs, phases = spec.rff_parameters
            xs = np.array([p[0] for p in pairs])
            ys = np.array([p[1] for p in pairs])
            fx = math.sqrt(2.0 / m) * np.cos(xs @ freqs.T + phases)
            fy = math.sqrt(2.0 / m) * np.cos(ys @ freqs.T + phases)
            estimates[s] = np.sum(fx * fy, axis=1)
        means = estimates.mean(axis=0)
        for (x, y), est in zip(pairs, means):
            target = math.exp(-float(np.sum((x - y) ** 2)) / (2.0 * sigma**2))
            assert abs(est - target) <= 0.05


class TestBoundedness:
    @pytest.mark.parametrize(
        "spec",
        [
            FeatureMapSpec.identity(5),
            FeatureMapSpec.poly2(4),
            FeatureMapSpec.rff(5, 48, 0.8, 3),
        ],
        ids=["identity", "poly2", "rff"],
    )
    def test_norm_bound_dominates(self, spec):
        rng = np.random.default_rng(17)
        for _ in range(200):
            x = rng.uniform(-2, 2, spec.input_dim)
            f = spec.apply(x)
            bound = spec.norm_bound(max(float(x @ x), 1e-12))
            assert float(f @ f) <= bound + 1e-9

    def test_poly2_dim_formula(self):
        assert poly2_dim(2) == 3
        assert poly2_dim(16) == 136
