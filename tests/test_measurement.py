import math

import numpy as np
import pytest
from scipy import stats

from enslab.errors import ValidationError
from enslab.measurement import (
    ApparatusEnsemble,
    CombinedState,
    SystemState,
    build_apparatus,
    entropy_ledger,
    ensemble_expectation,
    largest_remainder_counts,
    offdiag_suppression,
    outcome_fractions,
    premeasure,
    sample_outcomes,
    suppression_curve,
)
from enslab.probcore import DiscreteDistribution, entropy
from enslab.quantum import Observable

EQUAL_PAIR = SystemState([math.sqrt(0.5), math.sqrt(0.5)])


class TestBuildApparatus:
    def test_same_seed_reproduces_phase_table(self):
        a = build_apparatus(500, 3, 42)
        b = build_apparatus(500, 3, 42)
        assert np.array_equal(a.phases, b.phases)

    def test_different_seeds_differ(self):
        assert not np.array_equal(build_apparatus(500, 2, 1).phases, build_apparatus(500, 2, 2).phases)

    def test_single_microstate(self):
        app = build_apparatus(1, 2, 0)
        assert app.n_microstates == 1
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

    def test_gibbs_microstate_distribution_untouched_by_premeasurement(self):
        # the microstate law {p_i} is the same before and after the
        # entangling step, so its entropy is exactly conserved
        probs = DiscreteDistribution.from_weights(np.arange(1.0, 9.0))
        app = build_apparatus(8, 2, 3, micro_probs=probs)
        before = entropy(app.micro_probs)
        premeasure(EQUAL_PAIR, app, 5)
        assert entropy(app.micro_probs) == before
        assert np.array_equal(app.micro_probs.probs, probs.probs)


class TestPremeasure:
    def test_eigenstate_yields_product_state(self):
        app = build_apparatus(50, 2, 11)
        combined = premeasure(SystemState([1.0, 0.0]), app, 4)
        assert abs(combined.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)
        assert combined.amplitudes[1] == 0.0
        assert combined.pointer_label(0) == (0, (0, 4))

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        system = SystemState(z / np.linalg.norm(z))
        app = build_apparatus(20, 5, 1)
        combined = premeasure(system, app, 13)
        assert np.linalg.norm(combined.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_equal_superposition_magnitudes(self):
        app = build_apparatus(10, 2, 5)
        combined = premeasure(EQUAL_PAIR, app, 0)
        np.testing.assert_allclose(np.abs(combined.amplitudes), math.sqrt(0.5), atol=1e-12)

    def test_index_out_of_range(self):
        app = build_apparatus(10, 2, 5)
        with pytest.raises(ValidationError):
            premeasure(EQUAL_PAIR, app, 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_combined_state_rejects_non_finite_amplitudes(self, bad):
        # a NaN norm fails no |norm - 1| > tol comparison, so finiteness is checked first
        with pytest.raises(ValidationError, match="amplitudes must be finite"):
            CombinedState(np.array([bad, 0.0]), 0)


class TestOffdiagSuppression:
    def test_single_microstate_has_no_suppression(self):
        assert offdiag_suppression(build_apparatus(1, 2, 9), 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_coherent_rows_have_no_suppression(self):
        row = np.random.default_rng(2).uniform(0, 2 * math.pi, 100)
        app = ApparatusEnsemble(
            micro_probs=DiscreteDistribution.uniform(100),
            phases=np.vstack([row, row]),
            seed=0,
        )
        assert offdiag_suppression(app, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_pair_rejected(self):
        with pytest.raises(ValidationError):
            offdiag_suppression(build_apparatus(10, 2, 0), 1, 1)

    def test_large_m_suppression(self):
        # resultant of 1e4 random phasors: below 5/sqrt(M) in >= 99% of seeds
        m = 10_000
        bound = 5.0 / math.sqrt(m)
        hits = sum(
            offdiag_suppression(build_apparatus(m, 2, seed), 0, 1) < bound for seed in range(100)
        )
        assert hits >= 99

    def test_median_shrinks_with_m(self):
        curve = suppression_curve([100, 10_000], 50, seed=3)
        assert curve[1][1] < curve[0][1] / 5.0


class TestEnsembleExpectation:
    def test_diagonal_projector_gives_born_weight(self):
        app = build_apparatus(500, 2, 21)
        system = SystemState([0.6, 0.8])
        obs = Observable(np.diag([1.0, 0.0]))
        assert ensemble_expectation(system, app, obs) == pytest.approx(0.36, abs=1e-12)

    def test_eigenstate_reads_diagonal_element(self):
        for m in (1, 7, 300):
            app = build_apparatus(m, 2, 4)
            obs = Observable(np.array([[0.3, 1.0], [1.0, -0.2]]))
            val = ensemble_expectation(SystemState([0.0, 1.0]), app, obs)
            assert val == pytest.approx(-0.2, abs=1e-12)

    def test_unit_offdiagonal_block_bounded_by_suppression(self):
        m = 10_000
        app = build_apparatus(m, 2, 17)
        obs = Observable(np.array([[1.0, 1.0], [1.0, 0.0]]))
        val = ensemble_expectation(EQUAL_PAIR, app, obs)
        diagonal_part = 0.5  # |c_0|^2 * 1 + |c_1|^2 * 0
        assert abs(val - diagonal_part) < 5.0 / math.sqrt(m)

    def test_cross_term_reconstruction(self):
        # closed-form evaluation matches the explicit microstate-by-microstate sum
        app = build_apparatus(64, 2, 12)
        system = SystemState([0.6, 0.8j])
        obs = Observable(np.array([[0.5, 2.0 - 1.0j], [2.0 + 1.0j, -0.7]]))
        c = system.coefficients
        p = app.micro_probs.probs
        manual = 0.0
        for i in range(64):
            ph = np.exp(1j * app.phases[:, i])
            vec = c * ph
            manual += p[i] * float(np.real(vec.conj() @ obs.matrix @ vec))
        assert ensemble_expectation(system, app, obs) == pytest.approx(manual, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        app = build_apparatus(10, 2, 0)
        with pytest.raises(ValidationError):
            ensemble_expectation(EQUAL_PAIR, app, Observable(np.eye(3)))


class TestOutcomeFractions:
    def test_three_four_five_pair(self):
        app = build_apparatus(100, 2, 8)
        fractions = outcome_fractions(SystemState([0.6, 0.8]), app)
        np.testing.assert_allclose(fractions.probs, [0.36, 0.64], atol=1e-12)

    def test_eigenstate(self):
        app = build_apparatus(100, 2, 8)
        fractions = outcome_fractions(SystemState([1.0, 0.0]), app)
        np.testing.assert_allclose(fractions.probs, [1.0, 0.0], atol=1e-15)

    def test_random_coefficients_match_born_rule(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            z /= np.linalg.norm(z)
            app = build_apparatus(30, k, 1)
            fractions = outcome_fractions(SystemState(z), app)
            np.testing.assert_allclose(fractions.probs, np.abs(z) ** 2, atol=1e-12)


class TestSampleOutcomes:
    def test_binomial_band(self):
        app = build_apparatus(100, 2, 5)
        counts = sample_outcomes(EQUAL_PAIR, app, 10_000, seed=123)
        assert counts.sum() == 10_000
        assert abs(counts[0] - 5000) <= 150  # 3 sigma = 3 sqrt(n/4)

    def test_eigenstate_is_deterministic(self):
        app = build_apparatus(100, 2, 5)
        counts = sample_outcomes(SystemState([1.0, 0.0]), app, 777, seed=9)
        np.testing.assert_array_equal(counts, [777, 0])

    def test_seeds_vary_counts_within_band(self):
        app = build_apparatus(100, 2, 5)
        c1 = sample_outcomes(EQUAL_PAIR, app, 10_000, seed=1)
        c2 = sample_outcomes(EQUAL_PAIR, app, 10_000, seed=2)
        assert not np.array_equal(c1, c2)
        assert abs(c1[0] - 5000) <= 150 and abs(c2[0] - 5000) <= 150

    def test_zero_members_rejected(self):
        with pytest.raises(ValidationError):
            sample_outcomes(EQUAL_PAIR, build_apparatus(10, 2, 0), 0, seed=0)


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
