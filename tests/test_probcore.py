import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enslab.errors import ConstraintError, ValidationError
from enslab.probcore import (
    DiscreteDistribution,
    EnergyLevels,
    PartitionedDistribution,
    canonical,
    decompose,
    entropy,
    info_decompose,
    information,
    mean_energy,
    refine,
    temperature_for_mean_energy,
)
from partition_helpers import random_partition, tilt_rows_to_mean


class TestEntropy:
    def test_uniform_four_hits_log_n(self):
        assert entropy(DiscreteDistribution.uniform(4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_point_mass_vanishes(self):
        assert entropy(DiscreteDistribution([1.0, 0.0, 0.0])) == 0.0

    def test_point_mass_entropy_is_positive_zero(self):
        # -sum(1 * log 1) is -0.0, which the CLI would print as "-0"
        assert math.copysign(1.0, entropy(DiscreteDistribution([0.0, 1.0]))) == 1.0

    def test_half_quarter_quarter(self):
        d = DiscreteDistribution([0.5, 0.25, 0.25])
        assert entropy(d) == pytest.approx(1.0397207708399179, abs=1e-12)  # 1.5 ln 2

    def test_rejects_negative_entry(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution([1.2, -0.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution([0.5, 0.4])

    def test_explicit_renormalization_only(self):
        d = DiscreteDistribution.from_weights([2.0, 1.0, 1.0])
        assert np.allclose(d.probs, [0.5, 0.25, 0.25])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=40))
    def test_permutation_invariant_and_bounded(self, weights):
        d = DiscreteDistribution.from_weights(np.array(weights))
        s = entropy(d)
        assert -1e-15 <= s <= math.log(len(d)) + 1e-12
        shuffled = DiscreteDistribution(np.random.default_rng(0).permutation(d.probs))
        assert entropy(shuffled) == pytest.approx(s, abs=1e-12)


class TestDecompose:
    def test_uniform_two_blocks(self):
        joint = PartitionedDistribution((("a", [0.25, 0.25]), ("b", [0.25, 0.25])))
        dec = decompose(joint)
        assert dec.total == pytest.approx(math.log(4), abs=1e-12)
        assert dec.coarse == pytest.approx(math.log(2), abs=1e-12)
        assert dec.residual == pytest.approx(math.log(2), abs=1e-12)

    def test_asymmetric_blocks_both_sides(self):
        # coarse/residual frozen from the independent closed forms
        # S({.5,.5}) and .5*S({.6,.4}); the identity pins the total.
        joint = PartitionedDistribution((("a", [0.5]), ("b", [0.3, 0.2])))
        dec = decompose(joint)
        assert dec.coarse == pytest.approx(0.6931471805599453, abs=1e-12)
        assert dec.residual == pytest.approx(0.3365058335046282, abs=1e-12)
        assert dec.total == pytest.approx(1.0296530140645737, abs=1e-12)
        assert dec.total == pytest.approx(dec.coarse + dec.residual, abs=1e-12)

    def test_single_block(self):
        joint = PartitionedDistribution((("only", [0.5, 0.3, 0.2]),))
        dec = decompose(joint)
        assert dec.coarse == 0.0
        assert dec.residual == pytest.approx(dec.total, abs=1e-12)

    def test_zero_mass_block_contributes_nothing(self):
        joint = PartitionedDistribution((("a", [0.6, 0.4]), ("empty", [0.0, 0.0])))
        dec = decompose(joint)
        assert dec.per_block_conditional[1] == 0.0
        assert np.isfinite(dec.residual)
        assert dec.total == pytest.approx(dec.coarse + dec.residual, abs=1e-12)

    def test_identity_battery_small(self):
        rng = np.random.default_rng(20260810)
        for _ in range(100):
            joint = random_partition(rng, max_states=2000)
            dec = decompose(joint)
            assert abs(dec.total - dec.coarse - dec.residual) <= 1e-12


class TestInformation:
    def test_maximally_random_has_zero_information(self):
        assert information(DiscreteDistribution.uniform(8), math.log(8)) == 0.0

    def test_point_mass_carries_full_information(self):
        d = DiscreteDistribution([1.0] + [0.0] * 7)
        assert information(d, math.log(8)) == pytest.approx(math.log(8), abs=1e-12)

    def test_half_half_against_log_four(self):
        d = DiscreteDistribution([0.5, 0.5, 0.0, 0.0])
        assert information(d, math.log(4)) == pytest.approx(math.log(2), abs=1e-12)

    def test_bound_below_entropy_rejected(self):
        with pytest.raises(ConstraintError):
            information(DiscreteDistribution.uniform(8), math.log(8) - 1e-6)

    def test_refinement_invariance(self):
        d = DiscreteDistribution([0.5, 0.3, 0.2])
        base = information(d, math.log(3))
        refined = information(refine(d, 4), math.log(3) + math.log(4))
        assert refined == pytest.approx(base, abs=1e-12)


class TestInfoDecompose:
    def test_maximally_random_everywhere(self):
        joint = PartitionedDistribution((("a", [0.25, 0.25]), ("b", [0.25, 0.25])))
        out = info_decompose(joint, math.log(2), [math.log(2), math.log(2)])
        assert out.total == pytest.approx(0.0, abs=1e-12)
        assert out.coarse == pytest.approx(0.0, abs=1e-12)
        assert out.residual == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_in_one_block(self):
        joint = PartitionedDistribution((("a", [1.0, 0.0]), ("b", [0.0, 0.0])))
        out = info_decompose(joint, math.log(2), [math.log(2), math.log(2)])
        # closed form: I_coarse = ln 2, residual = 1 * ln 2, total = ln 4
        assert out.coarse == pytest.approx(math.log(2), abs=1e-12)
        assert out.residual == pytest.approx(math.log(2), abs=1e-12)
        assert out.total == pytest.approx(math.log(4), abs=1e-12)

    def test_identity_on_asymmetric_blocks(self):
        joint = PartitionedDistribution((("a", [0.5]), ("b", [0.3, 0.2])))
        out = info_decompose(joint, math.log(2), [0.0, math.log(2)])
        assert out.total == pytest.approx(out.coarse + out.residual, abs=1e-12)

    def test_bound_below_conditional_entropy_rejected(self):
        joint = PartitionedDistribution((("a", [0.5]), ("b", [0.3, 0.2])))
        with pytest.raises(ConstraintError):
            info_decompose(joint, math.log(2), [0.0, 0.0])


class TestCanonical:
    def test_two_levels_closed_form(self):
        dist = canonical(EnergyLevels([0.0, 1.0], 1.0 / math.log(2)))
        assert dist.probs[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert dist.probs[1] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_equal_energies_give_uniform(self):
        dist = canonical(EnergyLevels([3.0, 3.0, 3.0], 0.7))
        assert np.allclose(dist.probs, 1.0 / 3.0, atol=1e-15)

    def test_high_temperature_limit(self):
        dist = canonical(EnergyLevels([0.0, 1.0], 1e9))
        assert np.allclose(dist.probs, 0.5, atol=1e-9)

    def test_huge_energy_scale_does_not_overflow(self):
        dist = canonical(EnergyLevels([0.0, 1e6], 1.0))
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_energies_rejected(self):
        with pytest.raises(ValidationError):
            EnergyLevels([0.0, math.inf], 1.0)
        with pytest.raises(ValidationError):
            EnergyLevels([0.0, 1.0], 0.0)

    def test_kkt_constancy(self):
        rng = np.random.default_rng(5)
        energies = np.sort(rng.uniform(0.0, 3.0, 6))
        t = 0.8
        p = canonical(EnergyLevels(energies, t)).probs
        kkt = np.log(p) + energies / t
        assert kkt.max() - kkt.min() <= 1e-10

    def test_thermodynamic_identity(self):
        energies = np.array([0.0, 0.7, 1.3, 2.1, 3.4])
        for t in (0.2, 0.5, 1.0, 2.0, 5.0):
            h = 1e-3 * t
            s_plus = entropy(canonical(EnergyLevels(energies, t + h)))
            s_minus = entropy(canonical(EnergyLevels(energies, t - h)))
            e_plus = mean_energy(EnergyLevels(energies, t + h))
            e_minus = mean_energy(EnergyLevels(energies, t - h))
            ds_de = (s_plus - s_minus) / (e_plus - e_minus)
            assert ds_de == pytest.approx(1.0 / t, rel=1e-4)


class TestTemperatureSolving:
    def test_inverts_canonical_example(self):
        t = temperature_for_mean_energy([0.0, 1.0], 1.0 / 3.0)
        assert t == pytest.approx(1.0 / math.log(2), abs=5e-9)

    def test_target_point_three(self):
        t = temperature_for_mean_energy([0.0, 1.0], 0.3)
        assert t == pytest.approx(1.0 / math.log(7.0 / 3.0), abs=5e-9)  # 1.1802225011

    def test_solved_temperature_reproduces_mean(self):
        energies = [0.0, 0.4, 1.1, 2.0]
        t = temperature_for_mean_energy(energies, 0.6)
        assert mean_energy(EnergyLevels(np.array(energies), t)) == pytest.approx(0.6, abs=1e-10)

    def test_monotone_toward_ground_state(self):
        targets = [0.3, 0.2, 0.1, 0.02, 1e-4]
        temps = [temperature_for_mean_energy([0.0, 1.0], x) for x in targets]
        assert all(a > b for a, b in zip(temps, temps[1:]))
        assert temps[-1] < 0.15

    def test_unreachable_targets_rejected(self):
        for bad in (0.0, -1.0, 0.5, 0.7):
            with pytest.raises(ConstraintError):
                temperature_for_mean_energy([0.0, 1.0], bad)

    def test_needs_two_levels(self):
        with pytest.raises(ValidationError):
            temperature_for_mean_energy([1.0], 1.0)


class TestGibbsMaximality:
    def test_canonical_beats_constraint_preserving_perturbations(self):
        rng = np.random.default_rng(77)
        energies = np.sort(rng.uniform(0.0, 3.0, 8))
        levels = EnergyLevels(energies, 1.1)
        p = canonical(levels).probs
        target = float(p @ energies)
        noise = rng.standard_normal((200, p.size))
        perturbed = p[None, :] * np.exp(0.3 * noise)
        perturbed /= perturbed.sum(axis=1, keepdims=True)
        tilted = tilt_rows_to_mean(perturbed, energies, target)
        assert np.allclose(tilted @ energies, target, atol=1e-9)
        s_canonical = entropy(canonical(levels))
        margins = np.array(
            [s_canonical - entropy(DiscreteDistribution.from_weights(row)) for row in tilted]
        )
        assert margins.min() > 0.0


class TestRefine:
    def test_identity_at_k_one(self):
        d = DiscreteDistribution([0.4, 0.6])
        assert refine(d, 1) is d

    def test_uniform_two_to_uniform_six(self):
        refined = refine(DiscreteDistribution.uniform(2), 3)
        assert np.allclose(refined.probs, 1.0 / 6.0, atol=1e-15)
        assert entropy(refined) == pytest.approx(math.log(6), abs=1e-12)

    def test_entropy_shift_is_log_k(self):
        d = DiscreteDistribution([0.5, 0.3, 0.2])
        assert entropy(refine(d, 5)) - entropy(d) == pytest.approx(math.log(5), abs=1e-12)

    def test_composition(self):
        d = DiscreteDistribution([0.15, 0.35, 0.5])
        ab = refine(refine(d, 3), 5)
        direct = refine(d, 15)
        np.testing.assert_allclose(ab.probs, direct.probs, rtol=1e-15, atol=0.0)

    def test_zero_factor_rejected(self):
        with pytest.raises(ValidationError):
            refine(DiscreteDistribution.uniform(2), 0)
