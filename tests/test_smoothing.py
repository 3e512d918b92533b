import math
import warnings

import numpy as np
import pytest

from ofdm_music import (ConfigError, CsiMatrix, NumericalError, Target,
                        TargetScene, covariance, decompose, make_plan, smooth,
                        synthesize_csi)
from ofdm_music import smoothing
from ofdm_music.presets import baseline_plan, baseline_radio

from oracles import (decimated_steering, sample_subarray, subarray_indices,
                     subarray_offsets)
from test_signal_model import small_radio


def toy_plan(n=8, k=5):
    # apertures 4 x 3, decimations 3 x 2 -> 2 x 2 samples per sub-array
    return make_plan(small_radio(n=n, k=k), 4, 3, 3, 2, 1, 1)


class TestMakePlan:
    def test_baseline_counts(self):
        plan = baseline_plan()
        assert (plan.n_sub_f, plan.n_sub_a) == (15, 3)
        assert plan.samples_per_subarray == 45
        assert (plan.n_sets_f, plan.n_sets_a) == (100, 2)
        assert plan.n_subarrays == 200

    def test_full_aperture_degenerate(self):
        cfg = small_radio(n=32, k=4)
        plan = make_plan(cfg, 32, 4, 1, 1, 1, 1)
        assert plan.n_subarrays == 1
        assert plan.samples_per_subarray == 32 * 4

    def test_toy_seven_by_five(self):
        # apertures 7 x 5 with decimations 3 x 2 give 3 x 3 = 9 samples
        plan = make_plan(small_radio(n=16, k=5), 7, 5, 3, 2, 1, 1)
        assert (plan.n_sub_f, plan.n_sub_a) == (3, 3)
        assert plan.samples_per_subarray == 9

    def test_element_slots_antenna_fastest(self):
        # Element m has subcarrier slot m div n_sub_a and antenna slot
        # m mod n_sub_a, the order the module docstring states.
        toy = make_plan(small_radio(n=16, k=5), 7, 5, 3, 2, 1, 1)
        i, j = toy.element_slots
        assert i.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert j.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2]
        one_antenna = make_plan(small_radio(n=16, k=5), 7, 1, 3, 1, 1, 1)
        i, j = one_antenna.element_slots
        assert i.tolist() == [0, 1, 2]
        assert j.tolist() == [0, 0, 0]

    def test_aperture_exceeding_dimension(self):
        cfg = small_radio(n=16, k=3)
        with pytest.raises(ConfigError, match="A_f"):
            make_plan(cfg, 17, 3, 1, 1)
        with pytest.raises(ConfigError, match="A_a"):
            make_plan(cfg, 16, 4, 1, 1)



class TestSubarrayIndices:
    def test_toy_expansion(self):
        ant, sub = subarray_indices(toy_plan(), 0)
        assert ant.tolist() == [0, 2, 0, 2]
        assert sub.tolist() == [0, 0, 3, 3]

    def test_seven_by_five_first_subarray(self):
        plan = make_plan(small_radio(n=16, k=5), 7, 5, 3, 2, 1, 1)
        ant, sub = subarray_indices(plan, 0)
        assert sorted(set(ant.tolist())) == [0, 2, 4]
        assert sorted(set(sub.tolist())) == [0, 3, 6]

    def test_baseline_last_ordinal_offsets(self):
        plan = baseline_plan()
        assert subarray_offsets(plan, 199) == (1, 99)

    def test_offset_bijection(self):
        plan = baseline_plan()
        offsets = {subarray_offsets(plan, ell) for ell in range(plan.n_subarrays)}
        assert len(offsets) == plan.n_subarrays
        assert offsets == {(a * plan.stride_a, f * plan.stride_f)
                           for a in range(plan.n_sets_a)
                           for f in range(plan.n_sets_f)}

    def test_out_of_range_ordinal(self):
        plan = toy_plan()
        with pytest.raises(IndexError):
            subarray_indices(plan, plan.n_subarrays)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_plans_stay_in_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(4, 40)), int(rng.integers(2, 8))
        a_f = int(rng.integers(1, n + 1))
        a_a = int(rng.integers(1, k + 1))
        plan = make_plan(small_radio(n=n, k=k), a_f, a_a,
                         int(rng.integers(1, a_f + 1)), int(rng.integers(1, a_a + 1)),
                         int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        for ell in (0, plan.n_subarrays - 1):
            ant, sub = subarray_indices(plan, ell)
            assert ant.max() <= k - 1 and sub.max() <= n - 1
            assert ant.min() >= 0 and sub.min() >= 0
            assert len(ant) == len(sub) == plan.samples_per_subarray


class TestSampleSubarray:
    def test_constant_matrix(self):
        plan = toy_plan()
        cfg = small_radio(n=8, k=5)
        csi = CsiMatrix(np.ones((5, 8), dtype=complex), cfg)
        assert np.array_equal(sample_subarray(csi, plan, 0), np.ones(4))

    def test_single_target_matches_kronecker_steering(self):
        cfg = small_radio(n=64, k=4)
        plan = make_plan(cfg, 31, 3, 10, 1, 1, 1)
        h = 0.7 - 0.4j
        scene = TargetScene((Target(12.0, 0.35, h),), 0.0)
        csi = synthesize_csi(cfg, scene, 0)
        sampled = sample_subarray(csi, plan, 0)   # zero offsets
        steer = decimated_steering(cfg, plan, 12.0, 0.35)
        assert sampled == pytest.approx(h * steer, rel=1e-12)

    def test_frequency_stride_phase_constant(self):
        # equal-range two-target scene: sub-arrays offset purely in frequency
        # differ by the unimodular factor exp(-j*2*pi*S_f*df*2r/c)
        cfg = small_radio(n=64, k=4)
        plan = make_plan(cfg, 31, 4, 10, 1, 5, 1)   # A_a = K: frequency-only sets
        r = 9.0
        scene = TargetScene((Target(r, -0.4, 1.0 + 0.5j),
                             Target(r, 0.6, 0.3 - 0.8j)), 0.0)
        csi = synthesize_csi(cfg, scene, 0)
        v0 = sample_subarray(csi, plan, 0)
        v1 = sample_subarray(csi, plan, 1)
        w = -2 * math.pi * plan.stride_f * cfg.subcarrier_spacing_hz \
            * 2 * r / cfg.speed_of_light_m_s
        assert v1 == pytest.approx(v0 * np.exp(1j * w), rel=1e-12)

    def test_dimension_mismatch(self):
        plan = toy_plan()
        csi = CsiMatrix(np.ones((4, 8), dtype=complex), small_radio(n=8, k=4))
        with pytest.raises(ConfigError):
            sample_subarray(csi, plan, 0)


class TestSmooth:
    def test_full_aperture_single_column(self):
        cfg = small_radio(n=6, k=3)
        plan = make_plan(cfg, 6, 3, 1, 1, 1, 1)
        data = np.arange(18, dtype=complex).reshape(3, 6)
        sm = smooth(CsiMatrix(data, cfg), plan)
        assert sm.shape == (18, 1)
        # antenna index varies fastest within the vectorized sub-array
        assert np.array_equal(sm[:, 0], data.T.ravel())

    def test_baseline_shape(self):
        rng = np.random.default_rng(0)
        cfg = baseline_radio()
        data = rng.normal(size=(4, 1500)) + 1j * rng.normal(size=(4, 1500))
        sm = smooth(CsiMatrix(data, cfg), baseline_plan(cfg))
        assert sm.shape == (45, 200)

    def test_columns_match_sample_subarray(self):
        cfg = small_radio(n=48, k=4)
        plan = make_plan(cfg, 21, 3, 5, 1, 2, 1)
        rng = np.random.default_rng(5)
        csi = CsiMatrix(rng.normal(size=(4, 48)) + 1j * rng.normal(size=(4, 48)),
                        cfg)
        sm = smooth(csi, plan)
        for ell in rng.integers(0, plan.n_subarrays, 10):
            assert np.array_equal(sm[:, ell], sample_subarray(csi, plan, int(ell)))

    def test_alternating_plans_return_independent_arrays(self):
        cfg = small_radio(n=48, k=4)
        plans = (make_plan(cfg, 21, 3, 5, 1, 2, 1), make_plan(cfg, 9, 2, 2, 1, 3, 2))
        rng = np.random.default_rng(6)
        csi = CsiMatrix(rng.normal(size=(4, 48)) + 1j * rng.normal(size=(4, 48)),
                        cfg)
        before = csi.data.copy()
        for i in range(6):
            plan = plans[i % 2]
            sm = smooth(csi, plan)
            assert sm.flags.c_contiguous and sm.flags.owndata
            for ell in range(plan.n_subarrays):
                assert np.array_equal(sm[:, ell],
                                      sample_subarray(csi, plan, ell))
            sm[...] = np.nan   # must not reach the CSI or a later result
        assert np.array_equal(csi.data, before)

    def test_csi_not_matching_the_plan_rejected(self):
        plan = make_plan(small_radio(n=48, k=4), 21, 3, 5, 1, 2, 1)
        csi = CsiMatrix(np.ones((4, 32), dtype=complex), small_radio(n=32, k=4))
        with pytest.raises(ConfigError, match="does not match plan"):
            smooth(csi, plan)

    def test_gather_index_built_once_per_plan_and_read_only(self):
        cfg = small_radio(n=48, k=4)
        plan = make_plan(cfg, 21, 3, 5, 1, 2, 1)
        index = smoothing._gather_index(plan)
        assert smoothing._gather_index(make_plan(cfg, 21, 3, 5, 1, 2, 1)) is index
        assert index.shape == (plan.samples_per_subarray, plan.n_subarrays)
        assert not index.flags.writeable


class TestCovariance:
    def test_single_column_outer_product(self):
        cfg = small_radio(n=6, k=3)
        plan = make_plan(cfg, 6, 3, 1, 1, 1, 1)
        rng = np.random.default_rng(1)
        csi = CsiMatrix(rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6)), cfg)
        sm = smooth(csi, plan)
        cov = covariance(sm)
        v = sm[:, 0]
        assert cov.matrix == pytest.approx(np.outer(v, v.conj()) / 18, rel=1e-12)
        w = np.linalg.eigvalsh(cov.matrix)[::-1]
        assert np.sum(w > 1e-9 * w[0]) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_hermitian_psd(self, seed):
        rng = np.random.default_rng(seed)
        cfg = small_radio(n=32, k=4)
        plan = make_plan(cfg, 16, 3, 4, 1, 1, 1)
        csi = CsiMatrix(rng.normal(size=(4, 32)) + 1j * rng.normal(size=(4, 32)),
                        cfg)
        cov = covariance(smooth(csi, plan))
        assert np.max(np.abs(cov.matrix - cov.matrix.conj().T)) < 1e-12
        w = np.linalg.eigvalsh(cov.matrix)
        assert w.min() >= -1e-9 * w.max()
        assert cov.n_snapshots == plan.n_subarrays

    def test_bare_array(self):
        # M and L come from the array's shape; no plan is needed
        rng = np.random.default_rng(2)
        c = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        cov = covariance(c)
        assert cov.n_snapshots == 7
        assert cov.matrix.shape == (5, 5)
        assert np.allclose(cov.matrix, c @ c.conj().T / 5, rtol=1e-12, atol=0)

    def test_overflow_is_left_to_decompose_without_a_warning(self):
        # Finite CSI this large used to print numpy's overflow and invalid
        # value warnings before decompose reported the numerical error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov = covariance(np.full((3, 4), 1e300 + 1e300j))
            assert not np.all(np.isfinite(cov.matrix))
            with pytest.raises(NumericalError, match="non-finite"):
                decompose(cov)


def equal_range_scene(q, rng_seed=0):
    # angles at least 20 degrees apart, shared range
    angles = np.radians([-40.0, 0.0, 35.0][:q])
    rng = np.random.default_rng(rng_seed)
    return TargetScene(tuple(
        Target(10.0, float(th), complex(*rng.normal(size=2))) for th in angles), 0.0)


def covariance_rank(cfg, plan, scene):
    csi = synthesize_csi(cfg, scene, 0)
    w = np.linalg.eigvalsh(covariance(smooth(csi, plan)).matrix)[::-1]
    return int(np.sum(w > 1e-6 * w[0]))


class TestEqualRangeRank:
    """Rank of the smoothed covariance for targets sharing one range.

    With shared ranges every frequency-offset sub-array repeats the same
    direction up to a phase, so only antenna-offset sets add rank: the rank
    equals min(Q, antenna sets), provided each sub-array spans at least Q
    antennas.
    """

    def test_frequency_striding_only_rank_one(self):
        cfg = baseline_radio()
        plan = make_plan(cfg, 1401, 4, 100, 1, 1, 1)   # A_a = K: one antenna set
        assert plan.n_sets_a == 1
        assert covariance_rank(cfg, plan, equal_range_scene(2)) == 1

    def test_two_antenna_sets_rank_two(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        assert plan.n_sets_a == 2
        assert covariance_rank(cfg, plan, equal_range_scene(2)) == 2

    @pytest.mark.parametrize("q,k,a_a,expected", [
        (2, 4, 4, 1),   # sets = 1
        (2, 4, 3, 2),   # sets = 2
        (3, 4, 3, 2),   # sets = 2 caps three targets
        (3, 5, 3, 3),   # sets = 3 on a 5-antenna array
    ])
    def test_rank_equals_min_q_sets(self, q, k, a_a, expected):
        cfg = small_radio(n=256, k=k)
        plan = make_plan(cfg, 201, a_a, 25, 1, 1, 1)
        assert expected == min(q, plan.n_sets_a)
        assert covariance_rank(cfg, plan, equal_range_scene(q)) == expected
