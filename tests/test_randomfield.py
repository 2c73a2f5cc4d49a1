import itertools
import math
import threading
import time
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, norm

from enslab.errors import NumericsError, ValidationError
from block_helpers import force_cpus, public_calls_off_the_main_thread, raised_within
from enslab import _blocks, randomfield
from enslab._blocks import _split
from enslab.randomfield import (
    CovarianceSpec,
    FieldSample,
    IndicatorField,
    _filter,
    _forward_rows,
    _half_grid,
    _mode_amplitudes,
    _offsets_in_bin,
    _round_counts,
    _square,
    _times,
    generate,
    hierarchical_average,
    indicator,
    isotropy_report,
    pair_counts,
    two_point_prob,
)

WHITE = CovarianceSpec()
BUMP = CovarianceSpec(variance=1.0, spectrum="gaussian_bump", center=8.0, width=2.0)
PHI_BAND = norm.cdf(1.0) - norm.cdf(-1.0)  # 0.6826894921370859
# every side 2^a 3^b up to 54
HIERARCHY_SIDES = sorted(2**a * 3**b for a in range(6) for b in range(4) if 2**a * 3**b <= 54)


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


def brute_pair_counts(bits):
    """counts[y] = #{x : a[x] = a[x + y] = 1}, one np.roll per offset."""
    axes = tuple(range(bits.ndim))
    counts = np.zeros(bits.shape, dtype=np.int64)
    for y in np.ndindex(*bits.shape):
        rolled = np.roll(bits, shift=tuple(-c for c in y), axis=axes)
        counts[y] = int((bits & rolled).sum())
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
    return pair_counts(indicator(field, band))


def one_point(field, band):
    """The one-point estimate as a run reads it: the hierarchy's global mean."""
    return hierarchical_average(indicator(field, band), 0).global_mean()


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
        with pytest.raises(ValidationError, match="side 35 must be a product of powers of 2 and 3"):
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

    def test_spectrum_table_peak_memory(self):
        # |k| and the power table (the power raised in place) plus the bool
        # mask of the DC mode; the 64 KiB slack is well under the 0.65 MB of
        # a third 54^3 half-grid table
        spec = CovarianceSpec(spectrum="power_law", index=-3.0)
        half = 54 * 54 * 28
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            power = randomfield._spectrum_table(spec, 3, 54)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert power.size == half
        assert peak <= 2 * half * 8 + half + 2**16


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

    def test_own_mask_is_frozen_not_copied(self):
        # indicator's bitmask is the uint8 view of its own boolean mask, not
        # a copy of it, and still read-only
        f = generate(WHITE, 3, 54, 5)
        ind = indicator(f, (-0.5, 0.5))
        assert ind.bits.base is not None and ind.bits.base.dtype == np.bool_
        assert not ind.bits.flags.writeable
        assert np.array_equal(ind.bits, (f.values >= -0.5) & (f.values < 0.5))
        with pytest.raises(ValueError):
            ind.bits[0, 0, 0] = 1

    def test_peak_memory_is_one_mask(self):
        # the mask itself (1 byte a point) and the second comparison's
        # temporaries, one slab at a time: not a second field-sized mask
        f = generate(CovarianceSpec(spectrum="power_law", index=-3.0), 3, 81, 5)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ind = indicator(f, (-0.5, 0.5))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * ind.bits.size
        assert np.array_equal(ind.bits, (f.values >= -0.5) & (f.values < 0.5))

    def test_caller_mask_is_copied_and_checked(self):
        bits = np.zeros((3, 3), dtype=np.uint8)
        ind = IndicatorField(bits=bits, spacing=1.0)
        assert ind.bits.base is None and not np.shares_memory(ind.bits, bits)
        bits[0, 0] = 1
        assert ind.bits.sum() == 0
        with pytest.raises(ValidationError, match="0 or 1"):
            IndicatorField(bits=bits + 1, spacing=1.0)

    def test_half_open_tiling(self):
        f = generate(WHITE, 2, 81, 7)
        cuts = (-1e9, -0.5, 0.3, 1e9)
        total = sum(
            one_point(f, (cuts[i], cuts[i + 1])) for i in range(len(cuts) - 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestHierarchy:
    def test_constant_indicator_has_zero_spread(self):
        f = generate(CovarianceSpec(mean=1.0, variance=0.0), 2, 81, 0)
        ind = indicator(f, (0.0, 2.0))
        report = hierarchical_average(ind, 4)
        assert_exact_hierarchy(report, ind, 4)
        for level, eps in enumerate(report.epsilons):
            # every level-n cell is full: 3^(2n) ones
            assert np.all(report.cell_counts[level] == 9**level)
            if report.cell_counts[level].size >= 9:
                assert eps == 0.0
            else:
                assert eps is None

    def test_level_zero_means_are_raw_bits(self):
        # level 0 is the bitmask itself, not a copy; a 2-d level-n cell holds
        # up to 9^n ones, so levels 1 and 2 fit in uint8 and level 3 in uint16
        f = generate(WHITE, 2, 81, 11)
        ind = indicator(f, (-1.0, 1.0))
        report = hierarchical_average(ind, 3)
        assert [c.dtype for c in report.cell_counts] == [np.uint8, np.uint8, np.uint8, np.uint16]
        assert_exact_hierarchy(report, ind, 3)

    def test_global_mean_is_level_invariant(self):
        f = generate(WHITE, 2, 243, 13)
        ind = indicator(f, (-1.0, 1.0))
        report = hierarchical_average(ind, 5)
        ones = int(ind.bits.sum())
        assert [int(c.sum(dtype=np.uint64)) for c in report.cell_counts] == [ones] * 6
        assert report.global_mean() == float(Fraction(ones, ind.bits.size))

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 3),
        side=st.sampled_from(HIERARCHY_SIDES),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_counts_spreads_and_mean_are_exact(self, dim, side, density, seed, data):
        levels = 0
        while side % 3 ** (levels + 1) == 0:
            levels += 1
        max_level = data.draw(st.integers(0, levels), label="max_level")
        bits = (np.random.default_rng(seed).random((side,) * dim) < density).astype(np.uint8)
        ind = IndicatorField(bits=bits, spacing=1.0)
        assert_exact_hierarchy(hierarchical_average(ind, max_level), ind, max_level)

    def test_divisibility_guard(self):
        f = generate(WHITE, 2, 81, 0)
        with pytest.raises(ValidationError, match=r"side 81 is not divisible by 3\^5;"):
            hierarchical_average(indicator(f, (-1.0, 1.0)), 5)

    def test_level_past_the_side_fails_at_once(self):
        # 3^max_level exceeds a side of 7 bits from level 8 on; the guard
        # raises before building the power, which at 10^7 levels alone
        # takes seconds
        ind = indicator(generate(WHITE, 2, 81, 0), (-1.0, 1.0))
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"3\^10000000;"):
            hierarchical_average(ind, 10**7)
        assert time.perf_counter() - start < 1.0

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
            [one_point(generate(WHITE, 2, 243, s), (0.0, 1e9)) for s in range(30)]
        )
        se = ests.std(ddof=1) / math.sqrt(ests.size)
        assert abs(ests.mean() - 0.5) < 3.0 * se

    def test_unit_band_against_normal_cdf(self):
        ests = np.array(
            [one_point(generate(WHITE, 2, 243, s), (-1.0, 1.0)) for s in range(30)]
        )
        se = ests.std(ddof=1) / math.sqrt(ests.size)
        assert abs(ests.mean() - PHI_BAND) < 3.0 * se

    def test_constant_field_covering_interval(self):
        f = generate(CovarianceSpec(mean=5.0, variance=0.0), 2, 27, 0)
        assert one_point(f, (4.0, 6.0)) == 1.0


class TestTwoPoint:
    def test_coincident_points_reduce_to_one_point(self):
        f = generate(WHITE, 2, 81, 17)
        band = (-1.0, 1.0)
        assert two_point_prob(auto_counts(f, band), 0.0) == pytest.approx(
            one_point(f, band), abs=1e-15
        )

    def test_white_field_factorizes(self):
        # per-seed difference against the product-of-marginals oracle
        band = (-1.0, 1.0)
        diffs = []
        for seed in range(40):
            f = generate(WHITE, 2, 243, seed)
            p2 = two_point_prob(auto_counts(f, band), 1.5)
            p1 = one_point(f, band)
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
        interval=st.sampled_from([(-0.5, 1.0), (-1e9, 0.0), (0.2, 1e9), (-0.8, 0.4)]),
    )
    def test_exact_against_roll_oracle(self, dim, side, seed, step, spacing, interval):
        # r runs over every bin up to the half-torus limit, so offsets with
        # negative components wrap around
        values = np.random.default_rng(seed).standard_normal((side,) * dim)
        f = FieldSample(dim=dim, side=side, values=values, spacing=spacing, seed=seed)
        ind = indicator(f, interval)
        counts = pair_counts(ind)
        brute = brute_pair_counts(ind.bits)
        assert counts.counts.dtype == np.int64 and not counts.counts.flags.writeable
        assert np.array_equal(counts.counts, brute)

        n = side**dim
        r = (step % side) * 0.5 * spacing
        offsets = listed_offsets(dim, spacing, r)
        pairs = sum(int(brute[tuple(np.mod(v, side))]) for v in offsets)
        p2 = two_point_prob(counts, r)
        assert p2 == float(Fraction(pairs, len(offsets) * n))
        rolled_means = [
            float((ind.bits & np.roll(ind.bits, [-c for c in v], tuple(range(dim)))).mean())
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
            assert e.estimate == float(Fraction(dir_pairs, len(vecs) * n))

    @pytest.mark.parametrize(
        "dim, side, spacing, r, n_directions", [(2, 243, 1.0, 100.0, 320), (3, 54, 1.0, 26.0, 4303)]
    )
    def test_isotropy_exact_at_far_bins(self, dim, side, spacing, r, n_directions):
        # bins with thousands of directions, beyond the sides drawn above
        counts = auto_counts(generate(WHITE, dim, side, 8, spacing=spacing), (-0.5, 1.0))
        groups = {}
        for v in listed_offsets(dim, spacing, r):
            if any(v):
                groups.setdefault(direction_of(v), []).append(v)
        report = isotropy_report(counts, r)
        assert [e.direction for e in report.estimates] == sorted(groups)
        assert len(groups) == n_directions
        n = side**dim
        for e in report.estimates:
            vecs = groups[e.direction]
            pairs = sum(int(counts.counts[tuple(np.mod(v, side))]) for v in vecs)
            assert e.estimate == float(Fraction(pairs, len(vecs) * n))

    def test_rounding_guard_rejects_a_corrupted_table(self):
        f = generate(WHITE, 2, 27, 4)
        ind = indicator(f, (-1.0, 1.0))
        exact = brute_pair_counts(ind.bits)
        nudged = exact.astype(float)
        nudged[3, 5] += 0.2
        counts, residual = _round_counts(nudged, 27)
        # the integers are written over the estimate, in its bytes
        assert np.shares_memory(counts, nudged) and counts.dtype == np.int64
        assert np.array_equal(counts, exact)
        assert residual == pytest.approx(0.2, abs=1e-12)
        corrupted = exact.astype(float)
        corrupted[3, 5] += 0.3
        with pytest.raises(NumericsError):
            _round_counts(corrupted, 27)

    def test_a_nan_in_the_last_slice_fails_the_guard(self):
        # the residual is the largest of the slices'; a NaN anywhere must
        # reach it, and its cast to int64 must not warn
        padded = np.zeros((27, 27, 28))
        assert len(randomfield._slabs(padded, 0, 27)) > 1
        padded[-1, 0, 0] = np.nan
        with pytest.raises(NumericsError, match="nan"):
            _round_counts(padded, 27)

    @pytest.mark.parametrize(
        "dim, side, spacing, r",
        [(1, 27, 1.0, 4.0), (2, 81, 1.0, 1.5), (2, 81, 0.5, 3.2), (3, 162, 1.0, 8.0), (3, 27, 2.5, 10.0)],
    )
    def test_offsets_in_bin_matches_enumeration(self, dim, side, spacing, r):
        offsets = _offsets_in_bin(dim, side, spacing, r)
        assert [tuple(v) for v in offsets.tolist()] == listed_offsets(dim, spacing, r)

    def test_offsets_in_bin_peak_memory(self):
        # the 163^3 cube of offsets within reach of r = 80 holds 4.3M points:
        # one float64 table of their lengths (35 MB) and the bin's masks, never
        # a cube of integer coordinates (4.3M x 3 int64, 104 MB) beside them
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            offsets = _offsets_in_bin(3, 162, 1.0, 80.0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert offsets.shape == (80030, 3)
        assert peak <= 120 * 2**20


def filtered(x, scale):
    """``np.fft.irfftn(scale(np.fft.rfftn(x)), s=x.shape)`` through the
    in-place passes: ``x`` cast to float in the forward pass into a
    half-grid table, and the inverse written into its padded rows."""
    modes, rows = _half_grid(x.shape)
    _split(partial(_forward_rows, modes, x.reshape(rows.shape)), len(rows), rows.size)
    return _filter(modes, rows, scale).reshape(x.shape)


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
        modes = np.fft.rfftn(x)
        amps = rng.random(modes.shape)
        values = filtered(x, partial(_times, amps))
        expected = np.fft.irfftn(modes * amps, s=shape, axes=tuple(range(dim)))
        assert values.dtype == expected.dtype and np.array_equal(values, expected)

    def test_no_thread_outlives_a_call(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        before = threading.active_count()
        ind = indicator(generate(WHITE, 3, 27, 2), (-1.0, 1.0))
        assert threading.active_count() == before
        pair_counts(ind)
        assert threading.active_count() == before

    def test_cpu_count_without_an_affinity_call(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity: the machine's CPU
        # count is used, and the split transforms stay bit-identical
        monkeypatch.delattr(_blocks.os, "sched_getaffinity")
        monkeypatch.setattr(_blocks.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(_blocks, "_MIN_BLOCK_SIZE", 1)
        assert _blocks._cpu_count() == 3
        x = np.random.default_rng(5).standard_normal((9, 6, 9))
        expected = np.fft.irfftn(np.fft.rfftn(x), s=x.shape, axes=(0, 1, 2))
        assert np.array_equal(filtered(x, lambda slab, index: None), expected)
        monkeypatch.setattr(_blocks.os, "cpu_count", lambda: None)
        assert _blocks._cpu_count() == 1

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
            filtered(np.ones((6, 6)), lambda slab, index: None)
        assert threading.active_count() == before

    @pytest.mark.parametrize("step", ["amplitudes", "square"])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_the_column_step_buffers_at_most_one_row(self, cpus, step, monkeypatch):
        # numpy's ufunc buffer is cut to one contiguous axis-0 row of each
        # column block, so the step copies at most the amplitudes' cast to
        # complex of one row; with the default 8192 elements, a buffer spans
        # rows and the block goes through buffers too (0.13-0.39 MB a step
        # at 54^3). The steps run one at a time under a lock, so the traced
        # peak of each is its own
        force_cpus(monkeypatch, cpus)
        x = np.random.default_rng(3).standard_normal((54, 54, 54))
        amps = np.random.default_rng(4).random((54, 54, 28))
        column_step = partial(_times, amps) if step == "amplitudes" else _square
        lock, steps = threading.Lock(), []

        def scale(block, cols):
            with lock:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                column_step(block, cols)
                steps.append((tracemalloc.get_traced_memory()[1] - start, block[0].nbytes))

        tracemalloc.start()
        try:
            filtered(x, scale)
        finally:
            tracemalloc.stop()
        assert len(steps) == cpus
        assert all(peak <= row + 2**12 for peak, row in steps)

    def test_pair_counts_peak_memory(self, monkeypatch):
        # one half-grid complex table, nothing else of the field's size: the
        # bits are cast into its padded rows, and every pass and the
        # rounding work in place, a few slabs of axis 0 at a time. The 512
        # KiB slack holds, for 3 blocks (so the CPU count is fixed), each
        # block's temporaries for those slabs (numpy's copy of an in-place
        # transform's input, the rounding's nearest integers; up to 8192
        # elements each) and the threads' bookkeeping (about 22 KB); up to
        # 0.3 MB was measured. A float64 copy of the 54^3 bits would be
        # 1.26 MB.
        force_cpus(monkeypatch, 3)
        ind = indicator(generate(WHITE, 3, 54, 9), (-1.0, 1.0))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            counts = pair_counts(ind)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert counts.counts[0, 0, 0] == np.count_nonzero(ind.bits)
        assert peak <= 54 * 54 * 28 * 16 + 2**19


def serial_generate(spec, dim, side, seed):
    """The synthesis as one numpy call per step, on one thread."""
    shape = (side,) * dim
    modes = np.fft.rfftn(np.random.default_rng(seed).standard_normal(shape))
    modes *= _mode_amplitudes(spec, dim, side)
    values = np.fft.irfftn(modes, s=shape, axes=tuple(range(dim)))
    values += spec.mean
    return values


def brute_hierarchy(bits, max_level):
    """Each level's cell counts, one integer sum per cell, and each level's
    spread as the exact fraction (max - min) / 3^(n dim), rounded once."""
    dim, side = bits.ndim, bits.shape[0]
    levels, spreads = [bits.astype(np.int64)], []
    for level in range(1, max_level + 1):
        width, n = 3**level, side // 3**level
        counts = np.zeros((n,) * dim, dtype=np.int64)
        for cell in itertools.product(range(n), repeat=dim):
            block = bits[tuple(slice(c * width, (c + 1) * width) for c in cell)]
            counts[cell] = int(block.sum(dtype=np.int64))
        levels.append(counts)
    for level, counts in enumerate(levels):
        spread = Fraction(int(counts.max() - counts.min()), 3 ** (level * dim))
        spreads.append(float(spread) if counts.size >= 9 else None)
    return levels, spreads


def assert_exact_hierarchy(report, ind, max_level):
    """Counts, spreads and global means against the integer oracles."""
    levels, spreads = brute_hierarchy(ind.bits, max_level)
    assert report.cell_counts[0] is ind.bits
    for level, (counts, expected) in enumerate(zip(report.cell_counts, levels, strict=True)):
        # the narrowest type that holds a full cell, whatever the data
        assert counts.dtype == np.min_scalar_type(3 ** (level * ind.dim))
        assert not counts.flags.writeable
        assert np.array_equal(counts, expected)
    assert report.epsilons == tuple(spreads)
    assert report.global_mean() == float(Fraction(int(ind.bits.sum()), ind.bits.size))


def serial_pair_counts(bits):
    """(counts, worst rounding residual) from whole-array numpy calls."""
    power = np.fft.rfftn(bits.astype(float))
    np.square(power.real, out=power.real)
    np.add(power.real, np.square(power.imag, out=power.imag), out=power.real)
    power.imag = 0.0
    corr = np.fft.irfftn(power, s=bits.shape, axes=tuple(range(bits.ndim)))
    counts = np.rint(corr).astype(np.int64)
    return counts, float(np.abs(corr - counts).max())


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSplitStages:
    # sides 16 and 24 give uneven blocks on 2 or 3 CPUs: 16 rows split 5/5/6,
    # and the 9 half-grid columns of side 16 in 1-d (one row) and 2-d 4/5
    @pytest.mark.parametrize("side", [16, 24])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_every_stage_equals_the_serial_code(self, cpus, dim, side, monkeypatch):
        force_cpus(monkeypatch, cpus)
        spec = CovarianceSpec(mean=-0.25, variance=2.0, spectrum="power_law", index=-2.5)
        field = generate(spec, dim, side, 100 + dim)
        assert same_bytes(field.values, serial_generate(spec, dim, side, 100 + dim))

        a, b = (-1.0, 0.5), (0.0, 2.0)
        ind_a, ind_b = indicator(field, a), indicator(field, b)
        for ind, (lo, hi) in ((ind_a, a), (ind_b, b)):
            assert same_bytes(ind.bits, ((field.values >= lo) & (field.values < hi)).astype(np.uint8))

        max_level = 1 if side == 24 else 0
        assert_exact_hierarchy(hierarchical_average(ind_a, max_level), ind_a, max_level)

        for ind in (ind_a, ind_b):
            counts = pair_counts(ind)
            expected, residual = serial_pair_counts(ind.bits)
            assert same_bytes(counts.counts, expected)
            assert counts.residual == residual

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_deeper_levels_equal_the_serial_code(self, cpus, monkeypatch):
        # 54 -> 18 -> 6 -> 2 cells a side, on the calling thread whatever the
        # CPU count
        force_cpus(monkeypatch, cpus)
        for dim in (1, 2, 3):
            ind = indicator(generate(BUMP, dim, 54, 7), (-0.5, 0.5))
            assert_exact_hierarchy(hierarchical_average(ind, 3), ind, 3)

    def test_small_fields_start_no_thread(self, monkeypatch):
        # a 2-CPU host with the real block floor: the default 81^2 field runs
        # every stage on the calling thread
        monkeypatch.setattr(_blocks.os, "sched_getaffinity", lambda pid: {0, 1})
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
        ind = indicator(generate(WHITE, 2, 81, 1), (-1.0, 1.0))
        hierarchical_average(ind, 3)
        pair_counts(ind)
        assert started == []

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_generate_peak_memory(self, cpus, monkeypatch):
        # the half-grid modes, which the noise is drawn into, beside the
        # spectrum table as it is built (two half-grid float tables and a
        # mask, as test_spectrum_table_peak_memory pins); no noise table of
        # the field's size. The inverse pass writes the field, mean added,
        # into an array allocated once the amplitude table is freed, and
        # the modes are freed before its finiteness check. The 128 KiB
        # slack holds a slab's transform temporaries and the threads'
        # bookkeeping.
        force_cpus(monkeypatch, cpus)
        spec = CovarianceSpec(spectrum="power_law", index=-3.0)
        n, half = 54**3, 54 * 54 * 28
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            field = generate(spec, 3, 54, 9)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert field.values.shape == (54, 54, 54) and field.values.flags.c_contiguous
        assert peak <= max(half * 16 + 2 * half * 8 + half, half * 16 + n * 8) + 2**17

    def test_the_table_is_freed_before_the_sample_checks_the_field(self, monkeypatch):
        # the sample's finiteness check allocates a mask of the field's size;
        # by then the field is the only array of that size still live
        force_cpus(monkeypatch, 2)
        live, sample = [], randomfield.FieldSample

        def checked_sample(**fields):
            live.append(tracemalloc.get_traced_memory()[0] - start)
            return sample(**fields)

        monkeypatch.setattr(randomfield, "FieldSample", checked_sample)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            field = generate(WHITE, 3, 54, 9)
        finally:
            tracemalloc.stop()
        assert live[0] <= field.values.nbytes + 2**14

    def test_only_transforms_are_split(self, monkeypatch):
        # the passes that leave the calling thread: the noise draw beside the
        # amplitude table and the forward rows it hands over, the forward
        # rows that cast the bits, the columns, and the inverse rows, which
        # add the mean; the indicator, the hierarchy and the rounding of pair
        # counts run on the calling thread
        force_cpus(monkeypatch, 3)
        passes, jobs = set(), []
        split, handoff = randomfield._split, randomfield._handoff

        def name(run):
            func = getattr(run, "func", run)
            if func is randomfield._forward_rows:  # the array it casts and transforms
                return f"_forward_rows of {run.args[1].dtype}"
            if func is randomfield._inverse_rows:
                return f"_inverse_rows adding {run.keywords['mean']}"
            return func.__qualname__

        def spy_split(run, length, size):
            passes.add(name(run))
            return split(run, length, size)

        def spy_handoff(job, produce, consume, length, size):
            jobs.append(name(job))
            passes.update((name(produce), name(consume)))
            return handoff(job, produce, consume, length, size)

        monkeypatch.setattr(randomfield, "_split", spy_split)
        monkeypatch.setattr(randomfield, "_handoff", spy_handoff)
        field = generate(CovarianceSpec(mean=1.0, spectrum="power_law", index=-2.0), 3, 18, 4)
        pair_counts(indicator(field, (0.0, 1.5)))
        assert jobs == ["_mode_amplitudes"]
        assert passes == {
            "generate.<locals>.draw",
            "generate.<locals>.forward",
            "_forward_rows of uint8",
            "_filter.<locals>.columns",
            "_inverse_rows adding 1.0",
            "_inverse_rows adding None",
        }

    def test_workers_call_no_public_function(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        calls = public_calls_off_the_main_thread(monkeypatch)
        field = randomfield.generate(CovarianceSpec(mean=1.0), 3, 18, 4)
        ind = randomfield.indicator(field, (0.0, 1.5))
        randomfield.hierarchical_average(ind, 2)
        randomfield.pair_counts(ind)
        assert calls == []

    def test_noise_worker_exception_reaches_the_caller(self, monkeypatch):
        # the worker draws the noise, one slab of axis 0 at a time; the
        # calling thread builds the amplitudes
        force_cpus(monkeypatch, 2)
        before = threading.active_count()
        default_rng = np.random.default_rng

        class FailingOffTheMainThread:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, out):
                if threading.current_thread() is not threading.main_thread():
                    raise FloatingPointError(f"noise of shape {out.shape}")
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(randomfield.np.random, "default_rng", FailingOffTheMainThread)
        with pytest.raises(FloatingPointError, match=r"noise of shape \(6,\)"):
            generate(WHITE, 2, 6, 1)
        assert threading.active_count() == before

    def test_forward_transform_exception_on_the_worker_reaches_the_caller(self, monkeypatch):
        # the amplitude table waits until the worker, done drawing, has
        # taken the first slab and failed to transform it
        force_cpus(monkeypatch, 2)
        before = threading.active_count()
        caller, failed = [], threading.Event()
        rfft, amplitudes = np.fft.rfft, randomfield._mode_amplitudes

        def rfft_failing_on_the_worker(a, axis, out):
            if threading.current_thread() is not caller[0]:
                failed.set()
                raise FloatingPointError(f"rows of a slab shaped {a.shape}")
            return rfft(a, axis=axis, out=out)

        def amplitudes_after_the_failure(*args):
            assert failed.wait(10.0)
            return amplitudes(*args)

        def call():
            caller.append(threading.current_thread())
            generate(WHITE, 3, 6, 1)

        monkeypatch.setattr(np.fft, "rfft", rfft_failing_on_the_worker)
        monkeypatch.setattr(randomfield, "_mode_amplitudes", amplitudes_after_the_failure)
        error = raised_within(call)
        assert isinstance(error, FloatingPointError) and str(error) == "rows of a slab shaped (6, 6, 6)"
        assert threading.active_count() == before


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

    def test_anisotropic_control_is_rejected(self):
        band = (-1.0, 1.0)
        null_max = max(
            isotropy_report(auto_counts(generate(WHITE, 2, 243, s), band), 1.5).spread
            for s in range(20)
        )
        g = generate(BUMP, 1, 243, 99)
        values = np.broadcast_to(g.values[:, None], (243, 243)).copy()
        control = FieldSample(dim=2, side=243, values=values, spacing=1.0, seed=99)
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
        with pytest.raises(ValidationError, match="no nonzero lattice offset .* of r=0.3$"):
            isotropy_report(auto_counts(f, (-1.0, 1.0)), 0.3)
