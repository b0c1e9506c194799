import math
from fractions import Fraction

import numpy as np
import pytest

from unittest import mock

from streamkpca import linalg
from streamkpca.datagen import (
    SpikedSpec,
    make_spiked_stream,
    monte_carlo_offset_norm,
    random_orthonormal_basis,
)
from streamkpca.featuremaps import FeatureMapSpec
from streamkpca.spectral import alignment_error, summarize


def spec(**kw):
    base = dict(
        input_dim=6,
        n=200,
        lambda1=1.0,
        lambda2=0.1,
        tail_decay=1.0,
        basis_seed=1,
        sample_seed=2,
    )
    base.update(kw)
    return SpikedSpec(**base)


class TestSpecValidation:
    def test_zero_lambda2_rejected(self):
        with pytest.raises(ValueError):
            spec(lambda2=0.0)

    def test_lambda2_above_lambda1_rejected(self):
        with pytest.raises(ValueError):
            spec(lambda2=2.0)

    def test_bad_tail_decay(self):
        with pytest.raises(ValueError):
            spec(tail_decay=0.0)
        with pytest.raises(ValueError):
            spec(tail_decay=1.5)

    @pytest.mark.parametrize("key", ["basis_seed", "sample_seed"])
    @pytest.mark.parametrize("value", [-1, 1.5, True])
    def test_seed_must_be_a_nonnegative_integer(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer >= 0"):
            spec(**{key: value})

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError):
            spec(n=0)

    def test_n_beyond_int64_rejected(self):
        # Nothing is drawn before the stream is read, so any n a step
        # index holds is a valid spec.
        assert spec(n=2**63 - 1).n == 2**63 - 1
        with pytest.raises(ValueError, match=f"^n = {2**63} exceeds the int64 maximum"):
            spec(n=2**63)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lambda1", math.nan),
            ("lambda1", math.inf),
            ("lambda2", math.nan),
            ("tail_decay", math.nan),
            # Beyond float range: refused, not an OverflowError later.
            ("lambda1", 10**400),
            ("lambda1", Fraction(10**400)),
            ("lambda2", 10**400),
            ("tail_decay", 10**400),
        ],
    )
    def test_non_finite_spectrum_rejected(self, key, value):
        # Before any draw: a NaN spectrum keeps no sample and never ends.
        with pytest.raises(ValueError, match=key):
            spec(**{key: value})

    def test_isotropic_ratio(self):
        s = spec(lambda2=1.0)
        assert s.target_ratio == 1.0

    def test_dict_round_trip(self):
        s = spec(lambda2=0.05, tail_decay=0.7)
        assert SpikedSpec.from_dict(s.to_dict()) == s
        # A config's integer spectrum is echoed as floats: 1 as 1.0.
        ints = s.to_dict() | {"lambda1": 3, "lambda2": 1, "tail_decay": 1}
        echoed = SpikedSpec.from_dict(ints).to_dict()
        assert echoed == ints
        assert {k: type(v) for k, v in echoed.items()} == {
            k: float if k in ("lambda1", "lambda2", "tail_decay") else int
            for k in ints
        }


class TestStreamGeneration:
    def test_determinism(self):
        xs1, t1 = make_spiked_stream(spec())
        xs2, t2 = make_spiked_stream(spec())
        assert np.array_equal(xs1, xs2)
        assert np.array_equal(t1.basis, t2.basis)

    def test_shape_and_guard(self):
        s = spec(n=5000, input_dim=8, lambda1=2.0)
        stream, truth = make_spiked_stream(s)
        xs = np.asarray(stream)
        assert len(stream) == 5000 and xs.shape == (5000, 8)
        norms = np.sum(xs**2, axis=1)
        assert norms.max() <= truth.norm_bound
        assert truth.norm_bound == 2.0 * (8 + 10 * math.sqrt(8) + 50)

    def test_every_read_replays_the_same_rows(self):
        stream, _ = make_spiked_stream(spec(n=600))
        xs = np.asarray(stream)
        assert np.array(list(stream)).tobytes() == xs.tobytes()
        assert replayed(stream).tobytes() == xs.tobytes()
        assert np.asarray(stream) is not xs

    def test_basis_orthonormal(self):
        b = random_orthonormal_basis(7, 3)
        assert np.abs(b.T @ b - np.eye(7)).max() <= 1e-12

    def test_spectrum_tail(self):
        s = spec(input_dim=4, lambda2=0.4, tail_decay=0.5)
        assert np.allclose(s.spectrum(), [1.0, 0.4, 0.2, 0.1], atol=0)

    def test_population_direction_from_basis(self):
        xs, truth = make_spiked_stream(spec())
        assert np.array_equal(truth.top_direction, truth.basis[:, 0])
        assert truth.ratio == 10.0

    def test_empirical_top_direction_converges(self):
        # Median alignment error between the population spike and the
        # empirical top eigenvector must not increase with n.
        phi = FeatureMapSpec.identity(6)
        medians = []
        for n in (100, 1000, 10000):
            errs = []
            for seed in range(5):
                s = spec(n=n, lambda2=0.125, sample_seed=50 + seed)
                xs, truth = make_spiked_stream(s)
                summary = summarize(xs, phi)
                errs.append(
                    alignment_error(truth.top_direction, summary.top_vector)
                )
            medians.append(float(np.median(errs)))
        assert medians[0] >= medians[1] >= medians[2]


def per_sample_stream(s: SpikedSpec) -> np.ndarray:
    """The generator's reference: one draw, one GEMV and one guard test
    per sample."""
    mix = random_orthonormal_basis(s.input_dim, s.basis_seed) * np.sqrt(
        s.spectrum()
    )
    rng = np.random.default_rng(s.sample_seed)
    xs = np.empty((s.n, s.input_dim))
    count = 0
    while count < s.n:
        x = mix @ rng.standard_normal(s.input_dim)
        if float(x @ x) > s.norm_guard():
            continue
        xs[count] = x
        count += 1
    return xs


def replayed(stream) -> np.ndarray:
    """The stream's blocks() as one array, each block checked to be a
    whole linalg.BLOCK_ROWS block but the last, which is not empty."""
    blocks = list(stream.blocks())
    assert {len(b) for b in blocks[:-1]} <= {linalg.BLOCK_ROWS}
    assert 0 < len(blocks[-1]) <= linalg.BLOCK_ROWS
    return np.concatenate(blocks)


class TightGuardSpec(SpikedSpec):
    """A guard below the mean squared norm, so many draws are redrawn."""

    def norm_guard(self) -> float:
        return 0.8 * float(np.sum(self.spectrum()))


class TestBlockedGeneration:
    @pytest.mark.parametrize("block_rows", [1, 7, 1024])
    @pytest.mark.parametrize(
        "kw",
        [
            dict(input_dim=1, n=30),
            dict(input_dim=6, n=200),
            dict(input_dim=20, n=2100, tail_decay=0.7),
            dict(input_dim=64, n=50, lambda2=1.0),
        ],
    )
    def test_equals_the_per_sample_reference(self, kw, block_rows):
        s = spec(**kw)
        with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
            xs = replayed(make_spiked_stream(s)[0])
        assert xs.tobytes() == per_sample_stream(s).tobytes()

    @pytest.mark.parametrize("block_rows", [1, 5, 1024])
    def test_guard_redraws_match_the_reference(self, block_rows):
        s = TightGuardSpec(
            input_dim=5, n=300, lambda1=1.0, lambda2=1.0, basis_seed=4, sample_seed=9
        )
        reference = per_sample_stream(s)
        # The guard rejects about half the draws here.
        mix = random_orthonormal_basis(5, 4)
        draws = np.random.default_rng(9).standard_normal((600, 5)) @ mix.T
        assert np.mean(np.sum(draws**2, axis=1) > s.norm_guard()) > 0.2
        with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
            stream, truth = make_spiked_stream(s)
            xs = replayed(stream)
        assert xs.tobytes() == reference.tobytes()
        assert np.sum(xs**2, axis=1).max() <= truth.norm_bound


class TestOffsetNormMonteCarlo:
    def test_pure_gaussian_tail(self):
        # With v = 0 the event is |a| >= delta; compare with the exact
        # normal tail via erfc.
        frac = monte_carlo_offset_norm(
            np.array([1.0, 0.0]), np.zeros(2), 0.5, 10**4, seed=0
        )
        exact = math.erfc(0.5 / math.sqrt(2.0))
        assert abs(frac - exact) <= 0.02
        assert frac >= 1.0 - 0.5 - 0.02

    def test_tiny_delta(self):
        frac = monte_carlo_offset_norm(
            np.array([1.0, 0.0]), np.zeros(2), 1e-6, 10**4, seed=1
        )
        assert frac >= 0.999

    def test_orthogonal_offset_always_wins(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        frac = monte_carlo_offset_norm(u, v, 0.9, 10**4, seed=2)
        assert frac == 1.0

    def test_zero_u_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_offset_norm(np.zeros(2), np.ones(2), 0.5, 10**4, 0)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            monte_carlo_offset_norm(np.ones(2), np.zeros(2), 1.5, 10**4, 0)

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_offset_norm(np.ones(2), np.zeros(2), 0.5, 10, 0)

    def test_probability_floor_across_configurations(self):
        # The guarantee Pr >= 1 - delta holds (with sampling slack) for
        # arbitrary offsets: parallel, orthogonal, and generic.
        rng = np.random.default_rng(77)
        for trial in range(20):
            k = int(rng.integers(2, 7))
            u = rng.standard_normal(k)
            style = trial % 3
            if style == 0:
                v = float(rng.uniform(-2, 2)) * u
            elif style == 1:
                w = rng.standard_normal(k)
                v = w - (float(w @ u) / float(u @ u)) * u
            else:
                v = rng.standard_normal(k)
            delta = float(rng.uniform(0.05, 0.9))
            frac = monte_carlo_offset_norm(u, v, delta, 10**4, seed=trial)
            assert frac >= 1.0 - delta - 0.02
