import json
import math
import os
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

from block_helpers import assert_no_child_left, counted_forks, force_cpus, public_calls_off_the_main_thread
from enslab import cli, measurement
from enslab.errors import NumericsError, ValidationError
from enslab.measurement import (
    ApparatusEnsemble,
    SystemState,
    build_apparatus,
    entropy_ledger,
    largest_remainder_counts,
    max_coherence,
    outcome_fractions,
    sample_outcomes,
    suppression_curve,
)
from enslab.probcore import DiscreteDistribution

EQUAL_PAIR = SystemState([math.sqrt(0.5), math.sqrt(0.5)])


def resultant(app) -> float:
    """|sum_i p_i exp(i(theta_0i - theta_1i))|: the (0, 1) off-diagonal damping."""
    return float(abs(np.sum(app.micro_probs.probs * np.exp(1j * (app.phases[0] - app.phases[1])))))


class TestBuildApparatus:
    def test_same_seed_reproduces_phase_table(self):
        a = build_apparatus(500, 3, 42)
        b = build_apparatus(500, 3, 42)
        assert np.array_equal(a.phases, b.phases)

    def test_different_seeds_differ(self):
        assert not np.array_equal(build_apparatus(500, 2, 1).phases, build_apparatus(500, 2, 2).phases)

    def test_single_microstate(self):
        app = build_apparatus(1, 2, 0)
        assert app.phases.shape == (2, 1)
        np.testing.assert_array_equal(app.micro_probs.probs, [1.0])

    def test_phases_uniform_by_ks(self):
        app = build_apparatus(10_000, 2, 7)
        stat = stats.kstest(app.phases.ravel() / (2.0 * math.pi), "uniform")
        assert stat.pvalue > 0.01

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValidationError):
            build_apparatus(0, 2, 0)
        with pytest.raises(ValidationError):
            build_apparatus(5, 1, 0)


class TestOffdiagSuppression:
    def test_single_microstate_has_no_suppression(self):
        assert resultant(build_apparatus(1, 2, 9)) == pytest.approx(1.0, abs=1e-12)

    def test_coherent_rows_have_no_suppression(self):
        row = np.random.default_rng(2).uniform(0, 2 * math.pi, 100)
        app = ApparatusEnsemble(
            micro_probs=DiscreteDistribution.uniform(100),
            phases=np.vstack([row, row]),
        )
        assert resultant(app) == pytest.approx(1.0, abs=1e-12)

    def test_large_m_suppression(self):
        # resultant of 1e4 random phasors: below 5/sqrt(M) in >= 99% of seeds
        m = 10_000
        bound = 5.0 / math.sqrt(m)
        hits = sum(resultant(build_apparatus(m, 2, seed)) < bound for seed in range(100))
        assert hits >= 99

    def test_median_shrinks_with_m(self):
        curve = suppression_curve([100, 10_000], 50, seed=3)
        assert curve[1][1] < curve[0][1] / 5.0


class TestOutcomeFractions:
    def test_three_four_five_pair(self):
        fractions = outcome_fractions(SystemState([0.6, 0.8]))
        np.testing.assert_allclose(fractions.probs, [0.36, 0.64], atol=1e-12)

    def test_eigenstate(self):
        fractions = outcome_fractions(SystemState([1.0, 0.0]))
        np.testing.assert_allclose(fractions.probs, [1.0, 0.0], atol=1e-15)

    def test_random_coefficients_match_born_rule(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            z /= np.linalg.norm(z)
            fractions = outcome_fractions(SystemState(z))
            np.testing.assert_allclose(fractions.probs, np.abs(z) ** 2, atol=1e-12)


class TestMaxCoherence:
    def test_equals_a_direct_sum_over_every_pair(self):
        rng = np.random.default_rng(3)
        for k in (2, 3, 5):
            z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            system, app = SystemState(z / np.linalg.norm(z)), build_apparatus(1000, k, 4)
            c, theta, p = system.coefficients, app.phases, app.micro_probs.probs
            direct = max(
                abs(c[a] * np.conj(c[b]) * np.sum(p * np.exp(1j * (theta[a] - theta[b]))))
                for a in range(k)
                for b in range(k)
                if a != b
            )
            assert max_coherence(system, app) == direct

    @pytest.mark.parametrize("m", [100, 10_000])
    def test_median_is_rayleigh(self, m):
        # |D| sqrt(M) is Rayleigh with median sqrt(ln 2) as M grows (Kluyver's
        # exact median reads 0.8339 at M = 100); the median of 200 seeds has
        # sd about 1 / (2 f(median) sqrt(200)) = 0.042, so the band is 3.5 sd
        system = SystemState([0.6, 0.8])
        scaled = [max_coherence(system, build_apparatus(m, 2, seed)) / 0.48 * math.sqrt(m) for seed in range(200)]
        assert abs(float(np.median(scaled)) - math.sqrt(math.log(2.0))) < 0.15

    def test_picks_the_largest_pair(self):
        # rows 1 and 2 coincide, so D[1, 2] = 1 and the last pair dominates
        # the pairs with row 0, whose resultants are about M^-1/2
        rows = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, (2, 10_000))
        app = ApparatusEnsemble(DiscreteDistribution.uniform(10_000), rows[[0, 1, 1]])
        system = SystemState([math.sqrt(0.8), 0.4, 0.2])
        assert max_coherence(system, app) == pytest.approx(0.4 * 0.2, rel=1e-12)
        assert max_coherence(SystemState([0.8, 0.6, 0.0]), app) < 0.05

    def test_outcome_counts_must_agree(self):
        with pytest.raises(ValidationError, match="disagree on the number of outcomes"):
            max_coherence(EQUAL_PAIR, build_apparatus(10, 3, 0))


class TestSampleOutcomes:
    def test_binomial_band(self):
        counts = sample_outcomes(EQUAL_PAIR, 10_000, seed=123)
        assert counts.sum() == 10_000
        assert abs(counts[0] - 5000) <= 150  # 3 sigma = 3 sqrt(n/4)

    def test_eigenstate_is_deterministic(self):
        counts = sample_outcomes(SystemState([1.0, 0.0]), 777, seed=9)
        np.testing.assert_array_equal(counts, [777, 0])

    def test_seeds_vary_counts_within_band(self):
        c1 = sample_outcomes(EQUAL_PAIR, 10_000, seed=1)
        c2 = sample_outcomes(EQUAL_PAIR, 10_000, seed=2)
        assert not np.array_equal(c1, c2)
        assert abs(c1[0] - 5000) <= 150 and abs(c2[0] - 5000) <= 150

    def test_zero_members_rejected(self):
        with pytest.raises(ValidationError):
            sample_outcomes(EQUAL_PAIR, 0, seed=0)


class TestEntropyLedger:
    def test_equal_pair_power_of_two(self):
        ledger = entropy_ledger(EQUAL_PAIR, 1024)
        assert ledger.final_coarse == pytest.approx(math.log(2), abs=1e-12)
        assert ledger.final_residual == pytest.approx(math.log(512), abs=1e-12)
        assert ledger.final_total == pytest.approx(math.log(1024), abs=1e-12)
        np.testing.assert_array_equal(ledger.microstate_counts, [512, 512])

    def test_thirty_seventy_closed_form(self):
        system = SystemState(np.sqrt([0.3, 0.7]))
        ledger = entropy_ledger(system, 1000)
        # closed forms: -0.3 ln 0.3 - 0.7 ln 0.7 and 0.3 ln 300 + 0.7 ln 700
        assert ledger.final_coarse == pytest.approx(0.6108643020548935, abs=1e-12)
        assert ledger.final_residual == pytest.approx(6.2968909769272425, abs=1e-12)
        assert ledger.final_total == pytest.approx(math.log(1000), abs=1e-12)
        assert ledger.rounding_defect < 1e-9

    def test_deterministic_outcome(self):
        ledger = entropy_ledger(SystemState([1.0, 0.0]), 640)
        assert ledger.final_coarse == 0.0
        assert ledger.final_residual == pytest.approx(math.log(640), abs=1e-12)
        assert ledger.final_total == pytest.approx(math.log(640), abs=1e-12)

    def test_identity_and_defect_shrinks_with_n(self):
        rng = np.random.default_rng(31)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        system = SystemState(z / np.linalg.norm(z))
        defects = []
        for n in (1000, 10_000, 100_000):
            ledger = entropy_ledger(system, n)
            assert abs(ledger.final_total - ledger.final_coarse - ledger.final_residual) <= 1e-12
            assert abs(ledger.final_total - ledger.initial_total) <= ledger.rounding_defect + 1e-12
            defects.append(ledger.rounding_defect)
        assert defects[2] < defects[0]

    def test_too_few_microstates_rejected(self):
        with pytest.raises(ValidationError):
            entropy_ledger(EQUAL_PAIR, 1)


class TestLargestRemainder:
    def test_preserves_total_and_is_deterministic(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = rng.random(int(rng.integers(2, 9)))
            w /= w.sum()
            counts = largest_remainder_counts(w, 997)
            assert counts.sum() == 997
            assert counts.min() >= 0
            np.testing.assert_array_equal(counts, largest_remainder_counts(w, 997))

    def test_exact_fractions_are_untouched(self):
        np.testing.assert_array_equal(largest_remainder_counts(np.array([0.25, 0.75]), 8), [2, 6])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=2, max_size=8),
        st.integers(min_value=1, max_value=2**63 - 1),
    )
    def test_counts_sum_to_n_at_any_size(self, raw, n):
        # Born weights sum to 1 only within rounding; float floors of w * n
        # overshot n, and the leftover, negative, raised every count but one
        w = np.asarray(raw) / math.fsum(raw)
        counts = largest_remainder_counts(w, n).tolist()
        assert sum(counts) == n and min(counts) >= 0
        total = sum(Fraction(x) for x in w.tolist())
        assert all(abs(c - Fraction(x) * n / total) < 1 for c, x in zip(counts, w.tolist()))


def reference_magnitudes(m_values, n_seeds, seed, n_outcomes) -> list:
    """The magnitudes behind each curve point, one full apparatus of
    ``n_outcomes`` rows at a time through the public API, as the curve was
    first written."""
    out = []
    for j, m in enumerate(m_values):
        mags = np.empty(n_seeds)
        for s in range(n_seeds):
            child = np.random.SeedSequence(entropy=int(seed), spawn_key=(j, s))
            app = build_apparatus(int(m), n_outcomes, int(child.generate_state(1, np.uint64)[0]))
            mags[s] = resultant(app)
        out.append(mags)
    return out


def curve_and_magnitudes(monkeypatch, *args, **kwargs):
    """suppression_curve's result, and a copy of the array behind each median."""
    seen, median = [], np.median
    with monkeypatch.context() as patch:
        patch.setattr(np, "median", lambda a, *rest, **kw: seen.append(a.copy()) or median(a, *rest, **kw))
        curve = suppression_curve(*args, **kwargs)
    return curve, seen


class TestSplitCurve:
    @pytest.mark.parametrize("root_seed", [300, 2**17])
    @pytest.mark.parametrize("n_outcomes", [2, 3])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_bit_identical_to_a_serial_loop(self, cpus, n_outcomes, root_seed, monkeypatch):
        # 13 seeds in 1-3 blocks, each block past the first in a forked
        # process; the curve starts no thread. The root seed is a small one
        # or one past 2**16. The curve draws two outcomes; a reference of
        # three draws rows 0 and 1 first, so its magnitudes are the same
        force_cpus(monkeypatch, cpus)
        forks = counted_forks(monkeypatch)
        m_values, n_seeds, seed = [1, 7, 100, 1001], 13, root_seed + cpus
        before = threading.active_count()
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
        curve, seen = curve_and_magnitudes(monkeypatch, m_values, n_seeds, seed)
        assert threading.active_count() == before and started == []
        assert len(forks) == cpus - 1
        expected = reference_magnitudes(m_values, n_seeds, seed, n_outcomes)
        assert [m for m, _, _ in curve] == m_values
        for (_, med, p95), mags, ref in zip(curve, seen, expected):
            assert mags.tobytes() == ref.tobytes()
            assert (med, p95) == (float(np.median(ref)), float(np.percentile(ref, 95)))

    def test_workers_call_no_public_function(self, monkeypatch):
        # the forked blocks run on the main thread of their own process
        force_cpus(monkeypatch, 3)
        calls = public_calls_off_the_main_thread(monkeypatch)
        suppression_curve([10, 200], 9, 5)
        assert calls == []
        # the spy sees a public call made off the main thread
        worker = threading.Thread(target=measurement.largest_remainder_counts, args=(np.array([0.25, 0.75]), 8))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert calls == ["enslab.measurement.largest_remainder_counts"]

    def test_worker_exception_reaches_the_caller(self, monkeypatch, tmp_path, capsys):
        # a sum that fails in a forked block: the library names the block's
        # seeds, and the CLI exits 3 with that message and writes nothing
        force_cpus(monkeypatch, 3)
        parent, phasor_sum = os.getpid(), measurement._phasor_sum

        def failing_in_a_child(probs, delta, work):
            if os.getpid() != parent:
                raise FloatingPointError("a failing sum")
            return phasor_sum(probs, delta, work)

        monkeypatch.setattr(measurement, "_phasor_sum", failing_in_a_child)
        # 8 seeds on 3 CPUs: blocks 0..1, 2..4 and 5..7; the lowest failed one is named
        message = "seeds 2..4 failed in a forked process (exit status 1)"
        with pytest.raises(NumericsError) as info:
            suppression_curve([50], 8, 1)
        assert str(info.value) == message
        assert_no_child_left()
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"suppression_m": [50], "suppression_seeds": 8}))
        out = tmp_path / "o"
        capsys.readouterr()
        assert cli.main(["measure", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"numerics error: {message}\n"
        assert not out.exists()
        assert_no_child_left()

    def test_a_block_whose_parent_is_gone_stops(self):
        # a forked block checks its parent's id before each seed
        table = np.zeros((2, 4))
        with pytest.raises(SystemExit):
            measurement._curve_block([10, 20], 1, table, 0, 4, -1)
        assert not table.any()
        measurement._curve_block([10, 20], 1, table, 0, 4, os.getppid())
        assert table.all()

    def test_one_uniform_distribution_per_m(self, monkeypatch):
        # the later builds of each M reuse the first build's micro_probs
        uniform = DiscreteDistribution.uniform.__func__
        sizes = []
        monkeypatch.setattr(
            DiscreteDistribution, "uniform", classmethod(lambda cls, n: sizes.append(n) or uniform(cls, n))
        )
        suppression_curve([10, 300, 10], 7, 2)
        assert sizes == [10, 300, 10]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_peak_memory_is_bounded(self, cpus, monkeypatch):
        # block 0 builds one seed's ensemble at a time, and forked blocks
        # allocate in their own processes: measured 1.8 MB on 1 CPU and
        # 0.8 MB on 2
        force_cpus(monkeypatch, cpus)
        tracemalloc.start()
        try:
            suppression_curve([100, 1000, 10_000], 200, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.9e6 + 0.6e6

    def test_checks_keep_their_messages(self):
        with pytest.raises(ValidationError, match="at least one seed per curve point"):
            suppression_curve([10], 0, 1)
        with pytest.raises(ValidationError, match="apparatus needs at least one microstate"):
            suppression_curve([10, 0], 5, 1)
        assert suppression_curve([], 5, 1) == []


def _first_zero_of_j0() -> float:
    return float(special.jn_zeros(0, 1)[0])


def flight_cdf(r: float, m: int) -> float:
    """Kluyver's random-flight law: P(|S_M| <= r) = r int_0^inf J1(rt) J0(t)^M dt
    for the sum S_M of M independent uniform unit phasors. Past the first
    zero of J0, |J0|^M is below 0.403^M, so the integral stops there."""
    f = lambda t: special.j1(r * t) * special.j0(t) ** m  # noqa: E731
    return r * integrate.quad(f, 0.0, _first_zero_of_j0(), limit=200, epsabs=1e-13)[0]


def flight_pdf(r: float, m: int) -> float:
    """Density of |S_M|: r int_0^inf t J0(rt) J0(t)^M dt."""
    f = lambda t: t * special.j0(r * t) * special.j0(t) ** m  # noqa: E731
    return r * integrate.quad(f, 0.0, _first_zero_of_j0(), limit=200, epsabs=1e-13)[0]


def flight_quantile(q: float, m: int) -> float:
    return optimize.brentq(lambda r: flight_cdf(r, m) - q, 1e-9, 5.0 * math.sqrt(m), xtol=1e-12)


class TestCurveAgainstRandomFlight:
    """The curve's magnitude is |S_M| / M, so its exact finite-M quantiles
    are Kluyver's divided by M."""

    def test_oracle_at_m_100(self):
        # exact median * sqrt(M) is 0.8339; the Rayleigh limit is sqrt(ln 2) = 0.8326
        assert flight_quantile(0.5, 100) / 10.0 == pytest.approx(0.8339, abs=5e-5)
        assert flight_quantile(0.5, 100) / 10.0 - math.sqrt(math.log(2.0)) > 1e-3
        assert flight_quantile(0.95, 100) / 10.0 == pytest.approx(1.7287, abs=5e-5)
        # the tail is near the Rayleigh tail exp(-r^2 / M)
        assert flight_cdf(3.0 * 10.0, 100) == pytest.approx(1.0 - math.exp(-9.0), abs=1e-4)

    @pytest.mark.parametrize("m", [100, 1000])
    def test_median_and_p95_within_four_sampling_sd(self, m):
        # sd of a sample q-quantile: sqrt(q (1 - q) / n) / density at it
        n_seeds = 2001
        (_, med, p95), = suppression_curve([m], n_seeds, seed=17 + m)
        for q, got in ((0.5, med), (0.95, p95)):
            r = flight_quantile(q, m)
            sd = math.sqrt(q * (1.0 - q) / n_seeds) / (m * flight_pdf(r, m))
            assert abs(got - r / m) < 4.0 * sd
