import itertools
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, norm

from enslab.errors import EmptySeparationError, GridError, NumericsError, ValidationError
from enslab import randomfield
from enslab.randomfield import (
    CovarianceSpec,
    FieldSample,
    IndicatorField,
    _mode_amplitudes,
    _offsets_in_bin,
    _irfftn,
    _rfftn,
    _round_counts,
    generate,
    hierarchical_average,
    indicator,
    isotropy_report,
    one_point_prob,
    pair_counts,
    two_point_prob,
)

WHITE = CovarianceSpec()
BUMP = CovarianceSpec(variance=1.0, spectrum="gaussian_bump", center=8.0, width=2.0)
PHI_BAND = norm.cdf(1.0) - norm.cdf(-1.0)  # 0.6826894921370859


def lattice_correlation(spec, dim, side, offset):
    """Exact ensemble correlation of the synthesized field at a lattice offset."""
    amps = _mode_amplitudes(spec, dim, side)  # half grid: last axis up to Nyquist
    # cov(y) = (1/N) sum_k A_k^2 e^(ik.y)
    cov_map = np.fft.irfftn(amps**2, s=(side,) * dim, axes=tuple(range(dim)))
    return float(cov_map[tuple(np.mod(offset, side))] / cov_map[(0,) * dim])


def complex_fft_reference(spec, dim, side, seed):
    """Full-grid synthesis: complex fftn of the noise, an amplitude at every mode."""
    noise = np.random.default_rng(seed).standard_normal((side,) * dim)
    freqs = np.fft.fftfreq(side) * side
    k = np.sqrt(sum(g * g for g in np.meshgrid(*(freqs,) * dim, indexing="ij")))
    if spec.spectrum == "white":
        power = np.ones_like(k)
    elif spec.spectrum == "power_law":
        power = np.where(k > 0.0, k, 1.0) ** spec.index
    else:
        power = np.exp(-0.5 * ((k - spec.center) / spec.width) ** 2)
    power[k == 0.0] = 0.0
    if spec.cutoff is not None:
        power[k > spec.cutoff] = 0.0
    amps = np.sqrt(power * (spec.variance * k.size / power.sum()))
    return np.fft.ifftn(np.fft.fftn(noise) * amps).real + spec.mean


def brute_pair_counts(bits_a, bits_b):
    """counts[y] = #{x : a[x] = b[x + y] = 1}, one np.roll per offset."""
    axes = tuple(range(bits_a.ndim))
    counts = np.zeros(bits_a.shape, dtype=np.int64)
    for y in np.ndindex(*bits_a.shape):
        rolled = np.roll(bits_b, shift=tuple(-c for c in y), axis=axes)
        counts[y] = int((bits_a & rolled).sum())
    return counts


def listed_offsets(dim, spacing, r):
    """Offsets with length in [r - s/2, r + s/2), enumerated one by one."""
    reach = int(math.floor((r + 0.5 * spacing) / spacing)) + 1
    return [
        vec
        for vec in itertools.product(range(-reach, reach + 1), repeat=dim)
        if r - 0.5 * spacing <= spacing * math.sqrt(sum(c * c for c in vec)) < r + 0.5 * spacing
    ]


def direction_of(vec):
    g = math.gcd(*vec)
    reduced = tuple(c // g for c in vec)
    first = next(c for c in reduced if c != 0)
    return reduced if first > 0 else tuple(-c for c in reduced)


def auto_counts(field, band):
    ind = indicator(field, band)
    return pair_counts(ind, ind)


def rectangle_prob(a, b, rho):
    """P(a <= X < b, a <= Y < b) for standard bivariate normal, numerically."""
    mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
    return float(mvn.cdf([b, b]) - 2.0 * mvn.cdf([a, b]) + mvn.cdf([a, a]))


class TestCovarianceSpec:
    def test_rejects_negative_variance(self):
        with pytest.raises(ValidationError):
            CovarianceSpec(variance=-1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            CovarianceSpec(spectrum="pink")

    def test_bump_needs_parameters(self):
        with pytest.raises(ValidationError):
            CovarianceSpec(spectrum="gaussian_bump", center=4.0, width=None)


class TestGenerate:
    def test_zero_variance_is_constant(self):
        f = generate(CovarianceSpec(mean=2.5, variance=0.0), 2, 27, 0)
        assert np.all(f.values == 2.5)

    def test_deterministic_per_seed(self):
        a = generate(WHITE, 2, 81, 31415)
        b = generate(WHITE, 2, 81, 31415)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, generate(WHITE, 2, 81, 31416).values)

    def test_side_must_factor_into_twos_and_threes(self):
        with pytest.raises(GridError):
            generate(WHITE, 2, 35, 0)
        for side in (6, 8, 9, 12, 243):
            generate(WHITE, 1, side, 0)

    def test_all_dimensions(self):
        for dim, side in ((1, 243), (2, 81), (3, 27)):
            f = generate(WHITE, dim, side, 5)
            assert f.values.shape == (side,) * dim

    def test_white_sample_variance_band(self):
        # MC over 50 seeds: mean sample variance within 3 SE of the target
        variances = np.array([generate(WHITE, 2, 243, s).values.var() for s in range(50)])
        se = variances.std(ddof=1) / math.sqrt(variances.size)
        assert abs(variances.mean() - 1.0) < 3.0 * se

    def test_mean_is_carried_by_dc_mode(self):
        f = generate(CovarianceSpec(mean=-3.0, variance=1.0), 2, 81, 2)
        assert f.values.mean() == pytest.approx(-3.0, abs=1e-10)

    @pytest.mark.parametrize(
        "spec, dim, side",
        [
            (CovarianceSpec(spectrum="power_law", index=-3.0), 3, 27),
            (WHITE, 3, 24),
            (BUMP, 2, 81),
            (CovarianceSpec(mean=0.5, variance=2.0, cutoff=20.0), 2, 96),
            (CovarianceSpec(spectrum="power_law", index=-2.0), 1, 27),
            (WHITE, 1, 32),
        ],
    )
    def test_half_spectrum_matches_complex_fft_reference(self, spec, dim, side):
        f = generate(spec, dim, side, 2024)
        ref = complex_fft_reference(spec, dim, side, 2024)
        assert np.max(np.abs(f.values - ref)) <= 1e-12
        assert np.array_equal(f.values, generate(spec, dim, side, 2024).values)

    def test_cutoff_zeroing_everything_rejected(self):
        with pytest.raises(ValidationError):
            generate(CovarianceSpec(cutoff=0.5), 2, 27, 0)


class TestIndicator:
    def test_full_range_is_all_ones(self):
        f = generate(WHITE, 2, 27, 3)
        ind = indicator(f, (-1e9, 1e9))
        assert np.all(ind.bits == 1)

    def test_empty_overlap_is_all_zeros(self):
        f = generate(WHITE, 2, 27, 3)
        assert np.all(indicator(f, (1e6, 2e6)).bits == 0)

    def test_constant_field_inside_interval(self):
        f = generate(CovarianceSpec(mean=5.0, variance=0.0), 2, 27, 0)
        ind = indicator(f, (4.0, 6.0))
        assert np.all(ind.bits == 1)
        assert ind.bits.mean() == 1.0

    def test_interval_must_be_ordered(self):
        f = generate(WHITE, 2, 27, 3)
        with pytest.raises(ValidationError):
            indicator(f, (1.0, 1.0))

    def test_half_open_tiling(self):
        f = generate(WHITE, 2, 81, 7)
        cuts = (-1e9, -0.5, 0.3, 1e9)
        total = sum(
            one_point_prob(f, (cuts[i], cuts[i + 1])) for i in range(len(cuts) - 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestHierarchy:
    def test_constant_indicator_has_zero_spread(self):
        f = generate(CovarianceSpec(mean=1.0, variance=0.0), 2, 81, 0)
        report = hierarchical_average(indicator(f, (0.0, 2.0)), 4)
        for level, eps in enumerate(report.epsilons):
            n_cells = report.cell_means[level].size
            if n_cells >= 9:
                assert eps == 0.0
            else:
                assert eps is None

    def test_level_zero_means_are_raw_bits(self):
        f = generate(WHITE, 2, 81, 11)
        ind = indicator(f, (-1.0, 1.0))
        report = hierarchical_average(ind, 3)
        np.testing.assert_array_equal(report.cell_means[0], ind.bits.astype(float))

    def test_global_mean_is_level_invariant(self):
        f = generate(WHITE, 2, 243, 13)
        report = hierarchical_average(indicator(f, (-1.0, 1.0)), 5)
        base = report.global_mean(0)
        for level in range(report.n_levels):
            assert report.global_mean(level) == pytest.approx(base, abs=1e-12)

    def test_divisibility_guard(self):
        f = generate(WHITE, 2, 81, 0)
        with pytest.raises(GridError):
            hierarchical_average(indicator(f, (-1.0, 1.0)), 5)

    def test_white_noise_epsilon_decay(self):
        # Monte Carlo fit of the per-level decay exponent (base-3 units):
        # theory -dim/2 = -1, steepened by the shrinking cell-count range
        # factor; the pre-build fit over 50 seeds gave -1.21.
        eps = []
        for seed in range(30):
            f = generate(WHITE, 2, 243, seed)
            report = hierarchical_average(indicator(f, (-1.0, 1.0)), 5)
            eps.append([e for e in report.epsilons if e is not None])
        mean_eps = np.array(eps).mean(axis=0)
        assert np.all(mean_eps > 0.0)
        assert np.all(np.diff(mean_eps) < 0.0)
        levels = np.arange(1, 5)
        slope = np.polyfit(levels * math.log(3.0), np.log(mean_eps[1:5]), 1)[0]
        assert -1.45 < slope < -0.85


class TestOnePoint:
    def test_symmetric_half_line(self):
        ests = np.array(
            [one_point_prob(generate(WHITE, 2, 243, s), (0.0, 1e9)) for s in range(30)]
        )
        se = ests.std(ddof=1) / math.sqrt(ests.size)
        assert abs(ests.mean() - 0.5) < 3.0 * se

    def test_unit_band_against_normal_cdf(self):
        ests = np.array(
            [one_point_prob(generate(WHITE, 2, 243, s), (-1.0, 1.0)) for s in range(30)]
        )
        se = ests.std(ddof=1) / math.sqrt(ests.size)
        assert abs(ests.mean() - PHI_BAND) < 3.0 * se

    def test_constant_field_covering_interval(self):
        f = generate(CovarianceSpec(mean=5.0, variance=0.0), 2, 27, 0)
        assert one_point_prob(f, (4.0, 6.0)) == 1.0


class TestTwoPoint:
    def test_coincident_points_reduce_to_one_point(self):
        f = generate(WHITE, 2, 81, 17)
        band = (-1.0, 1.0)
        assert two_point_prob(auto_counts(f, band), 0.0) == pytest.approx(
            one_point_prob(f, band), abs=1e-15
        )

    def test_white_field_factorizes(self):
        # per-seed difference against the product-of-marginals oracle
        band = (-1.0, 1.0)
        diffs = []
        for seed in range(40):
            f = generate(WHITE, 2, 243, seed)
            p2 = two_point_prob(auto_counts(f, band), 1.5)
            p1 = one_point_prob(f, band)
            diffs.append(p2 - p1 * p1)
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / math.sqrt(diffs.size)
        assert abs(diffs.mean()) < 3.0 * se

    def test_correlated_field_matches_bivariate_normal_oracle(self):
        # oracle: rectangle probability of the bivariate normal at the exact
        # lattice correlation, averaged over the offsets in the r-bin
        band = (-1.0, 1.0)
        offsets = _offsets_in_bin(2, 81, 1.0, 1.0)
        oracle = np.mean(
            [rectangle_prob(-1.0, 1.0, lattice_correlation(BUMP, 2, 81, v)) for v in offsets]
        )
        ests = np.array(
            [two_point_prob(auto_counts(generate(BUMP, 2, 81, s), band), 1.0) for s in range(40)]
        )
        se = ests.std(ddof=1) / math.sqrt(ests.size)
        assert abs(ests.mean() - oracle) < 3.0 * se

    def test_marginal_consistency(self):
        # summing the r-joint over a partition of the second slot recovers
        # the one-point estimate of the first slot
        f = generate(WHITE, 2, 81, 23)
        band = (-1.0, 1.0)
        cuts = (-1e9, -0.7, 0.2, 1.1, 1e9)
        ind = indicator(f, band)
        total = sum(
            two_point_prob(pair_counts(ind, indicator(f, (cuts[i], cuts[i + 1]))), 1.0)
            for i in range(len(cuts) - 1)
        )
        assert total == pytest.approx(one_point_prob(f, band), abs=1e-12)

    def test_separation_beyond_half_torus_rejected(self):
        f = generate(WHITE, 2, 27, 1)
        with pytest.raises(ValidationError):
            two_point_prob(auto_counts(f, (-1.0, 1.0)), 14.0)


class TestPairCounts:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 3),
        side=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        step=st.integers(0, 7),
        spacing=st.sampled_from([1.0, 0.5, 2.5]),
        interval_b=st.sampled_from([None, (-1e9, 0.0), (0.2, 1e9), (-0.8, 0.4)]),
    )
    def test_exact_against_roll_oracle(self, dim, side, seed, step, spacing, interval_b):
        # r runs over every bin up to the half-torus limit, so offsets with
        # negative components wrap around; interval_b None is the
        # autocorrelation (the same indicator object twice)
        values = np.random.default_rng(seed).standard_normal((side,) * dim)
        f = FieldSample(dim=dim, side=side, values=values, spacing=spacing, seed=seed, spec=WHITE)
        ind_a = indicator(f, (-0.5, 1.0))
        ind_b = ind_a if interval_b is None else indicator(f, interval_b)
        counts = pair_counts(ind_a, ind_b)
        brute = brute_pair_counts(ind_a.bits, ind_b.bits)
        assert counts.counts.dtype == np.int64 and not counts.counts.flags.writeable
        assert np.array_equal(counts.counts, brute)

        n = side**dim
        r = (step % side) * 0.5 * spacing
        offsets = listed_offsets(dim, spacing, r)
        pairs = sum(int(brute[tuple(np.mod(v, side))]) for v in offsets)
        p2 = two_point_prob(counts, r)
        assert p2 == float(Fraction(pairs, len(offsets) * n))
        rolled_means = [
            float((ind_a.bits & np.roll(ind_b.bits, [-c for c in v], tuple(range(dim)))).mean())
            for v in offsets
        ]
        assert p2 == pytest.approx(float(np.mean(rolled_means)), rel=1e-12, abs=0.0)

        groups = {}
        for v in offsets:
            if any(v):
                groups.setdefault(direction_of(v), []).append(v)
        if len(groups) < 2:
            return
        report = isotropy_report(counts, r)
        assert [e.direction for e in report.estimates] == sorted(groups)
        for e in report.estimates:
            vecs = groups[e.direction]
            dir_pairs = sum(int(brute[tuple(np.mod(v, side))]) for v in vecs)
            assert e.n_offsets == len(vecs)
            assert e.estimate == float(Fraction(dir_pairs, len(vecs) * n))

    def test_rounding_guard_rejects_a_corrupted_table(self):
        f = generate(WHITE, 2, 27, 4)
        ind = indicator(f, (-1.0, 1.0))
        exact = brute_pair_counts(ind.bits, ind.bits)
        nudged = exact.astype(float)
        nudged[3, 5] += 0.2
        assert np.array_equal(_round_counts(nudged), exact)
        corrupted = exact.astype(float)
        corrupted[3, 5] += 0.3
        with pytest.raises(NumericsError):
            _round_counts(corrupted)

    def test_lattice_mismatch_rejected(self):
        a = indicator(generate(WHITE, 2, 27, 1), (-1.0, 1.0))
        b = indicator(generate(WHITE, 2, 81, 1), (-1.0, 1.0))
        with pytest.raises(ValidationError):
            pair_counts(a, b)
        c = IndicatorField(bits=a.bits, interval=a.interval, spacing=2.0)
        with pytest.raises(ValidationError):
            pair_counts(a, c)

    @pytest.mark.parametrize(
        "dim, side, spacing, r",
        [(1, 27, 1.0, 4.0), (2, 81, 1.0, 1.5), (2, 81, 0.5, 3.2), (3, 162, 1.0, 8.0), (3, 27, 2.5, 10.0)],
    )
    def test_offsets_in_bin_matches_enumeration(self, dim, side, spacing, r):
        offsets = _offsets_in_bin(dim, side, spacing, r)
        assert [tuple(v) for v in offsets.tolist()] == listed_offsets(dim, spacing, r)


def force_cpus(monkeypatch, n):
    # n CPUs, and no minimum block size, so small arrays take the split path
    monkeypatch.setattr(randomfield.os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(randomfield, "_MIN_BLOCK_SIZE", 1)


class TestSplitTransforms:
    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    @pytest.mark.parametrize("side", [1, 2, 6, 9, 27, 54])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_bit_identical_to_numpy(self, cpus, dim, side, dtype, monkeypatch):
        # 3 blocks over a split axis of length 2, 5 or 28 are capped or uneven
        force_cpus(monkeypatch, cpus)
        shape = (side,) * dim
        rng = np.random.default_rng([cpus, dim, side])
        x = rng.standard_normal(shape) if dtype is np.float64 else rng.integers(0, 2, shape, np.uint8)
        modes = _rfftn(x)
        expected = np.fft.rfftn(x)
        assert modes.dtype == expected.dtype and np.array_equal(modes, expected)
        values = _irfftn(modes, shape)
        expected = np.fft.irfftn(expected, s=shape, axes=tuple(range(dim)))
        assert values.dtype == expected.dtype and np.array_equal(values, expected)

    def test_no_thread_outlives_a_call(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        before = threading.active_count()
        ind = indicator(generate(WHITE, 3, 27, 2), (-1.0, 1.0))
        assert threading.active_count() == before
        pair_counts(ind, indicator(generate(WHITE, 3, 27, 3), (0.0, 2.0)))
        pair_counts(ind, ind)
        assert threading.active_count() == before

    def test_cpu_count_without_an_affinity_call(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity: the machine's CPU
        # count is used, and the split transforms stay bit-identical
        monkeypatch.delattr(randomfield.os, "sched_getaffinity")
        monkeypatch.setattr(randomfield.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(randomfield, "_MIN_BLOCK_SIZE", 1)
        assert randomfield._cpu_count() == 3
        x = np.random.default_rng(5).standard_normal((9, 6, 9))
        modes = _rfftn(x)
        assert np.array_equal(modes, np.fft.rfftn(x))
        expected = np.fft.irfftn(np.fft.rfftn(x), s=x.shape, axes=(0, 1, 2))
        assert np.array_equal(_irfftn(modes, x.shape), expected)
        monkeypatch.setattr(randomfield.os, "cpu_count", lambda: None)
        assert randomfield._cpu_count() == 1

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        # the calling thread runs the first block; the second block's worker fails
        force_cpus(monkeypatch, 2)
        before = threading.active_count()
        fft = np.fft.fft

        def fft_failing_off_the_main_thread(a, axis, out):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError(f"lines along axis {axis} of a block shaped {a.shape}")
            return fft(a, axis=axis, out=out)

        monkeypatch.setattr(np.fft, "fft", fft_failing_off_the_main_thread)
        with pytest.raises(FloatingPointError, match=r"axis 0 of a block shaped \(6, 2\)"):
            _rfftn(np.ones((6, 6)))
        assert threading.active_count() == before

    def test_pair_counts_peak_memory(self, monkeypatch):
        # the bits as float64 plus one half-grid complex table, nothing else
        # of the field's size: |A|^2 and both complex passes work in place.
        # The 256 KiB slack holds the threads' bookkeeping (about 22 KB for
        # 3 blocks, so the CPU count is fixed); one more 54^3 table would be
        # 1.2 MB.
        force_cpus(monkeypatch, 3)
        ind = indicator(generate(WHITE, 3, 54, 9), (-1.0, 1.0))
        budget = ind.bits.size * 8 + 54 * 54 * 28 * 16 + 2**18
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            counts = pair_counts(ind, ind)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert counts.counts[0, 0, 0] == ind.bits.sum()
        assert peak <= budget


class TestIsotropy:
    def test_isotropic_field_stays_inside_null_band(self):
        band = (-1.0, 1.0)
        spreads = np.array(
            [
                isotropy_report(auto_counts(generate(WHITE, 2, 243, s), band), 1.5).spread
                for s in range(20)
            ]
        )
        fresh = isotropy_report(auto_counts(generate(WHITE, 2, 243, 1000), band), 1.5).spread
        assert fresh <= 1.5 * spreads.max()

    def test_constant_field_directions_identical(self):
        f = generate(CovarianceSpec(mean=0.0, variance=0.0), 2, 81, 0)
        report = isotropy_report(auto_counts(f, (-1.0, 1.0)), 1.5)
        assert report.spread == 0.0

    def test_direction_classes_are_labeled(self):
        f = generate(WHITE, 3, 27, 2)
        report = isotropy_report(auto_counts(f, (-1.0, 1.0)), 1.8)
        classes = {e.klass for e in report.estimates}
        assert "axis" in classes or "face-diagonal" in classes

    def test_anisotropic_control_is_rejected(self):
        band = (-1.0, 1.0)
        null_max = max(
            isotropy_report(auto_counts(generate(WHITE, 2, 243, s), band), 1.5).spread
            for s in range(20)
        )
        g = generate(BUMP, 1, 243, 99)
        values = np.broadcast_to(g.values[:, None], (243, 243)).copy()
        control = FieldSample(dim=2, side=243, values=values, spacing=1.0, seed=99, spec=BUMP)
        spread = isotropy_report(auto_counts(control, band), 1.5).spread
        assert spread > 5.0 * null_max

    def test_single_direction_rejected(self):
        # a 1-d lattice offers a single direction at any separation
        g = generate(WHITE, 1, 81, 3)
        with pytest.raises(ValidationError):
            isotropy_report(auto_counts(g, (-1.0, 1.0)), 1.0)

    def test_directionless_bin_rejected(self):
        # r = 0.3: the only offset in the bin is (0, 0), which has no direction
        f = generate(WHITE, 2, 81, 3)
        with pytest.raises(EmptySeparationError):
            isotropy_report(auto_counts(f, (-1.0, 1.0)), 0.3)
