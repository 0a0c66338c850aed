"""Seeded corpus generators: determinism, orthonormality, admissibility, and
the declarative corpus spec."""

import numpy as np
import pytest

import lplab
import lplab.corpus
from lplab import (
    ConfigurationError,
    CorpusSpec,
    DegenerateInputError,
    FiniteRankOperator,
    UNIT_BALL,
    philox_generator,
    power_bounded,
    random_band_limited,
    random_orthonormal_frame,
    sequence_lemma_trials,
    single_spike,
    spike_sequences,
    validate_contract,
)
from lplab.torus_grid import forward_transform_stack


class TestPhiloxStreams:
    def test_same_key_same_draws(self):
        a = philox_generator(12, member_index=3).standard_normal(8)
        b = philox_generator(12, member_index=3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_members_and_streams_decorrelate(self):
        base = philox_generator(12, member_index=3).standard_normal(8)
        other_member = philox_generator(12, member_index=4).standard_normal(8)
        other_stream = philox_generator(12, member_index=3, stream=1).standard_normal(8)
        assert not np.array_equal(base, other_member)
        assert not np.array_equal(base, other_stream)

    def test_stream_range_guard(self):
        with pytest.raises(ValueError, match="stream"):
            philox_generator(1, stream=256)

    @pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (1, -1), (1, 2**64)])
    def test_a_key_off_the_uint64_range_is_refused(self, seed, index):
        with pytest.raises(ConfigurationError, match="at least 0 and below 2"):
            philox_generator(seed, member_index=index)
        with pytest.raises(ConfigurationError, match="at least 0 and below 2"):
            random_band_limited(lplab.TorusGrid(1, 2 * np.pi, 16), 1.0, seed, index=index)

    @pytest.mark.parametrize("stream", [0, 1, 255])
    @pytest.mark.parametrize("seed", [0, 2031, 2**64 - 1])
    def test_rekeyed_draws_equal_fresh_generators(self, seed, stream):
        """The one re-keyed bit generator draws what a fresh Philox keyed by
        (seed, index) on the stream draws, at both ends and the middle of
        the index range, each index re-keyed after another."""
        for lo in (0, 2**63 - 1, 2**64 - 2):
            indices = range(lo, lo + 2)
            generators = lplab.corpus._rekeyed_generators(seed, indices, stream)
            for index, rng in zip(indices, generators):
                np.testing.assert_array_equal(
                    rng.random(43), philox_generator(seed, index, stream).random(43)
                )

    def test_the_largest_key_draws(self):
        top = 2**64 - 1
        grid = lplab.TorusGrid(1, 2 * np.pi, 16)
        assert random_band_limited(grid, 1.0, top, index=top).shape == (1, 16)


class TestBandLimited:
    def test_deterministic_in_seed_and_index(self, grid1):
        f = random_band_limited(grid1, decay=1.0, seed=5, index=2)
        g = random_band_limited(grid1, decay=1.0, seed=5, index=2)
        np.testing.assert_array_equal(f, g)
        h = random_band_limited(grid1, decay=1.0, seed=5, index=3)
        assert not np.array_equal(f, h)

    @pytest.mark.parametrize("zero_mean", [False, True])
    def test_default_count_is_a_one_member_stack(self, grid2, zero_mean):
        one = random_band_limited(grid2, decay=1.2, seed=8, index=3, zero_mean=zero_mean)
        many = random_band_limited(grid2, 1.2, 8, index=1, zero_mean=zero_mean, count=4)
        assert one.shape == (1,) + grid2.shape
        assert np.array_equal(one[0], many[2])

    def test_decay_shapes_spectrum(self, grid1):
        rough = random_band_limited(grid1, decay=0.0, seed=6)
        smooth = random_band_limited(grid1, decay=3.0, seed=6)
        # Energy fraction above radius 32 should collapse under strong decay.
        def high_fraction(f):
            energy = np.abs(np.fft.fftn(f[0])) ** 2
            high = energy[grid1.frequency_norms > 32.0].sum()
            return high / energy.sum()

        assert high_fraction(smooth) < 1e-6
        assert high_fraction(rough) > 0.1

    def test_zero_mean_flag(self, grid2):
        f = random_band_limited(grid2, decay=1.0, seed=7, zero_mean=True)
        coeffs = forward_transform_stack(grid2, f)[0]
        # The zero mode is removed in the spectral domain; one FFT round trip
        # later it is only zero up to rounding noise.
        assert abs(coeffs[grid2.zero_mode_index]) <= 1e-13 * np.abs(coeffs).max()


class TestOrthonormalFrame:
    def test_frame_is_orthonormal(self, grid1):
        op = random_orthonormal_frame(grid1, rank=5, decay=1.0, seed=21)
        flat = op.eigenfunctions.reshape(op.rank, -1)
        gram = grid1.cell_volume * flat @ flat.conj().T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)

    def test_deterministic(self, grid1):
        a = random_orthonormal_frame(grid1, rank=3, decay=1.0, seed=22, index=1)
        b = random_orthonormal_frame(grid1, rank=3, decay=1.0, seed=22, index=1)
        np.testing.assert_array_equal(a.eigenfunctions, b.eigenfunctions)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)

    def test_uniform_weights_stay_in_unit_ball(self, grid1):
        op = random_orthonormal_frame(grid1, rank=4, decay=1.0, seed=23)
        assert np.all(op.eigenvalues <= 1.0)
        assert np.all(op.eigenvalues >= 0.0)
        assert validate_contract(op, UNIT_BALL).passed

    def test_ones_weights(self, grid2):
        op = random_orthonormal_frame(grid2, rank=3, decay=1.0, seed=24, weights="ones")
        np.testing.assert_array_equal(op.eigenvalues, np.ones(3))

    def test_unknown_weight_law(self, grid1):
        with pytest.raises(ValueError, match="weight law"):
            random_orthonormal_frame(grid1, rank=2, decay=1.0, seed=25, weights="zipf")

    def test_rank_bounds(self, grid1):
        with pytest.raises(ValueError, match="rank"):
            random_orthonormal_frame(grid1, rank=0, decay=1.0, seed=26)
        with pytest.raises(ValueError, match="exceeds"):
            random_orthonormal_frame(grid1, rank=grid1.size + 1, decay=1.0, seed=26)

    def test_zero_mean_frame(self, grid1):
        op = random_orthonormal_frame(grid1, rank=3, decay=1.0, seed=27, zero_mean=True)
        for coeffs in forward_transform_stack(grid1, op.eigenfunctions):
            assert abs(coeffs[grid1.zero_mode_index]) <= 1e-12

    @pytest.mark.parametrize("a", [1.0, 0.5, -0.25])
    def test_power_bound_contract_validates(self, grid1, a):
        op = random_orthonormal_frame(
            grid1, rank=3, decay=1.0, seed=28, power_bound=a
        )
        report = validate_contract(op, power_bounded(a))
        assert report.passed, (a, report.checks)


class TestSpikeSequences:
    def test_admissible_by_construction(self):
        for dim in (1, 2, 3):
            table = spike_sequences(dim, count=5, seed=31)
            caps = 2.0 ** (table.indices * dim)
            assert np.all((0.0 <= table.values) & (table.values <= caps)), dim

    def test_deterministic_and_distinct(self):
        first = spike_sequences(2, count=3, seed=32)
        second = spike_sequences(2, count=3, seed=32)
        assert first.lo == second.lo
        assert np.array_equal(first.values, second.values)
        assert not np.array_equal(first.values[0], first.values[1])

    def test_index_window(self):
        table = spike_sequences(1, j_range=(-2, 4), count=1, seed=33)
        assert table.indices.tolist() == list(range(-2, 5))
        assert table.values.shape == (1, 7)
        with pytest.raises(ValueError, match="empty index range"):
            spike_sequences(1, j_range=(3, 1))

    @pytest.mark.parametrize(
        "dim, limit", [(1, 333), (2, 250), (3, 200)], ids=["d1", "d2", "d3"]
    )
    def test_window_stays_inside_binary64(self, dim, limit):
        """The widest windows run without a floating-point warning; one step
        past (d + 2) max |j| = 1000 is refused before anything is drawn."""
        sequence_lemma_trials(dim, trials=20, seed=35, j_range=(-limit, limit))
        for window in ((-limit - 1, 0), (0, limit + 1)):
            with pytest.raises(ConfigurationError, match="binary64"):
                spike_sequences(dim, j_range=window)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="dimension"):
            spike_sequences(4)

    def test_member_draws_only_its_own_sequence(self, monkeypatch):
        direct = spike_sequences(2, count=1000, seed=34)
        for index in (0, 1, 57, 999):
            prefix = spike_sequences(2, count=index + 1, seed=34)
            assert np.array_equal(prefix.values, direct.values[: index + 1])
        keys = []
        original = lplab.corpus._rekeyed_generators

        def counted(master_seed, indices, stream=0):
            for index in indices:
                keys.append((master_seed, index))
                yield from original(master_seed, [index], stream)

        monkeypatch.setattr(lplab.corpus, "_rekeyed_generators", counted)
        first = spike_sequences(2, count=3, seed=34)
        assert np.array_equal(first.values, spike_sequences(2, count=3, seed=34).values)
        assert np.array_equal(first.values, direct.values[:3])
        assert keys == [(34, 0), (34, 1), (34, 2)] * 2

    def test_single_spike_saturates_cap(self):
        assert single_spike(2, 3) == {3: 64.0}
        assert single_spike(3, -1) == {-1: 0.125}


class TestCorpusSpec:
    def test_kind_checked(self):
        with pytest.raises(ConfigurationError, match="generator kind"):
            CorpusSpec("fourier_noise", count=1, seed=0)

    def test_count_checked(self):
        with pytest.raises(ConfigurationError, match="sample count"):
            CorpusSpec("random_band_limited", count=0, seed=0)

    def test_member_index_window(self, grid1):
        spec = CorpusSpec("random_band_limited", count=2, seed=40)
        with pytest.raises(IndexError):
            spec.member(grid1, 2)

    def test_member_dispatch(self, grid1):
        cases = {
            "random_band_limited": np.ndarray,
            "random_orthonormal_frame": FiniteRankOperator,
        }
        for kind, expected in cases.items():
            spec = CorpusSpec(kind, count=2, seed=41)
            assert isinstance(spec.member(grid1, 1), expected), kind
        field = CorpusSpec("random_band_limited", count=2, seed=41).member(grid1, 1)
        assert field.shape == grid1.shape
        # Seas and sequences have their own sections and are not corpus kinds.
        for kind in ("fermi_sea", "spike_sequence", "wave_packet"):
            with pytest.raises(ConfigurationError, match="generator kind"):
                CorpusSpec(kind, count=1, seed=0)

    def test_members_match_direct_calls(self, grid1):
        spec = CorpusSpec(
            "random_orthonormal_frame",
            count=3,
            seed=42,
            params={"rank": 2, "decay": 0.5},
        )
        member = spec.member(grid1, 1)
        direct = random_orthonormal_frame(grid1, rank=2, decay=0.5, seed=42, index=1)
        np.testing.assert_array_equal(member.eigenfunctions, direct.eigenfunctions)

    def test_dict_round_trip(self):
        spec = CorpusSpec("random_band_limited", count=4, seed=43, params={"decay": 0.5})
        assert CorpusSpec(**spec.to_dict()) == spec


class TestDegenerateFrames:
    def test_collapse_is_reported(self, small1):
        # Requesting more orthonormal vectors than honestly supported spectral
        # degrees of freedom triggers the collapse error rather than silence.
        with pytest.raises((DegenerateInputError, ValueError)):
            random_orthonormal_frame(small1, rank=17, decay=50.0, seed=46)
