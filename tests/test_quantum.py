import math

import numpy as np
import pytest

from enslab import quantum
from enslab.errors import BasisError, NumericsError, ValidationError
from enslab.probcore import DiscreteDistribution, entropy
from enslab.quantum import (
    MAX_DIM,
    DensityOperator,
    MacrostatePartition,
    Observable,
    StateVector,
    density_from_ensemble,
    expectation,
    macro_fraction,
    matrix_from_json,
    matrix_to_json,
    projector,
    vn_entropy_diagonal,
)


def random_orthonormal(rng, d, m=None):
    """Columns of the Q factor of a random complex matrix."""
    m = d if m is None else m
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    return [StateVector(q[:, j]) for j in range(m)]


class TestTypes:
    def test_state_norm_enforced(self):
        with pytest.raises(ValidationError):
            StateVector([0.5, 0.5])

    def test_observable_hermiticity_enforced(self):
        with pytest.raises(ValidationError):
            Observable([[0.0, 1.0], [0.0, 0.0]])

    def test_density_trace_enforced(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([0.5, 0.6]))

    def test_density_positivity_enforced(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([1.2, -0.2]))

    def test_dimension_cap(self):
        with pytest.raises(ValidationError):
            Observable(np.eye(MAX_DIM + 1))
        Observable(np.eye(MAX_DIM))  # boundary is fine

    def test_partition_must_cover_and_not_overlap(self):
        with pytest.raises(ValidationError):
            MacrostatePartition({"a": (0, 1), "b": (1, 2)})
        with pytest.raises(ValidationError):
            MacrostatePartition({"a": (0,), "b": (2,)})


class TestDensityFromEnsemble:
    def test_single_state_is_projector(self):
        rng = np.random.default_rng(1)
        (state,) = random_orthonormal(rng, 3, 1)
        rho = density_from_ensemble([1.0], [state])
        outer = np.outer(state.amplitudes, state.amplitudes.conj())
        np.testing.assert_allclose(rho.matrix, outer, atol=1e-14)

    def test_half_half_on_computational_basis(self):
        rho = density_from_ensemble(
            [0.5, 0.5], [StateVector([1.0, 0.0]), StateVector([0.0, 1.0])]
        )
        np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-15)

    def test_rotated_pair_has_prescribed_spectrum(self):
        rng = np.random.default_rng(3)
        states = random_orthonormal(rng, 2)
        rho = density_from_ensemble([0.7, 0.3], states)
        assert complex(np.trace(rho.matrix)).real == pytest.approx(1.0, abs=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
        np.testing.assert_allclose(eigs, [0.3, 0.7], atol=1e-12)

    def test_non_orthonormal_states_rejected(self):
        s = StateVector([1.0, 0.0])
        t = StateVector([math.sqrt(0.5), math.sqrt(0.5)])
        with pytest.raises(ValidationError):
            density_from_ensemble([0.5, 0.5], [s, t])

    def test_random_ensembles_pass_all_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            d = int(rng.integers(2, 12))
            probs = DiscreteDistribution.from_weights(rng.random(d) + 1e-3)
            rho = density_from_ensemble(probs, random_orthonormal(rng, d))
            assert complex(np.trace(rho.matrix)).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho.matrix).min() > -1e-12


class TestExpectation:
    def test_symmetric_mixture_of_signs(self):
        rho = DensityOperator(np.diag([0.5, 0.5]))
        assert expectation(rho, Observable(np.diag([1.0, -1.0]))) == pytest.approx(0.0, abs=1e-15)

    def test_pure_ground_state(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        assert expectation(rho, Observable(np.diag([1.0, -1.0]))) == pytest.approx(1.0, abs=1e-15)

    def test_weighted_trace(self):
        rho = DensityOperator(np.diag([0.7, 0.3]))
        assert expectation(rho, Observable(np.diag([2.0, -1.0]))) == pytest.approx(1.1, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            expectation(DensityOperator(np.diag([1.0, 0.0])), Observable(np.eye(3)))

    def test_linearity_and_identity(self):
        rng = np.random.default_rng(11)
        d = 5
        rho = density_from_ensemble(
            DiscreteDistribution.from_weights(rng.random(d)), random_orthonormal(rng, d)
        )
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        oa = Observable(a + a.conj().T)
        ob = Observable(b + b.conj().T)
        combo = Observable(2.5 * oa.matrix + ob.matrix)
        assert expectation(rho, combo) == pytest.approx(
            2.5 * expectation(rho, oa) + expectation(rho, ob), abs=1e-10
        )
        assert expectation(rho, Observable(np.eye(d))) == pytest.approx(1.0, abs=1e-12)


class TestProjector:
    def test_matrix_form(self):
        part = MacrostatePartition({"beta": (0, 1), "gamma": (2,)})
        np.testing.assert_array_equal(projector(part, "beta").matrix.real, np.diag([1.0, 1.0, 0.0]))

    def test_idempotence(self):
        part = MacrostatePartition({"beta": (0, 1), "gamma": (2,)})
        p = projector(part, "beta").matrix
        np.testing.assert_array_equal(p @ p, p)

    def test_completeness(self):
        part = MacrostatePartition({"a": (0, 3), "b": (1,), "c": (2,)})
        total = sum(projector(part, lbl).matrix for lbl in part.labels)
        np.testing.assert_array_equal(total, np.eye(4, dtype=complex))

    def test_unknown_block(self):
        part = MacrostatePartition({"a": (0,), "b": (1,)})
        with pytest.raises(ValidationError):
            projector(part, "nope")


class TestMacroFraction:
    def test_block_diagonal_masses(self):
        inner = 0.7 * np.array([[0.6, 0.2], [0.2, 0.4]])  # trace 0.7 block
        rho = DensityOperator(
            np.block([[inner, np.zeros((2, 1))], [np.zeros((1, 2)), 0.3 * np.eye(1)]])
        )
        part = MacrostatePartition({"beta": (0, 1), "gamma": (2,)})
        assert macro_fraction(rho, part, "beta") == pytest.approx(0.7, abs=1e-12)
        assert macro_fraction(rho, part, "gamma") == pytest.approx(0.3, abs=1e-12)

    def test_pure_state_inside_one_block(self):
        rho = DensityOperator(np.diag([0.0, 1.0, 0.0]))
        part = MacrostatePartition({"beta": (0, 1), "gamma": (2,)})
        assert macro_fraction(rho, part, "beta") == 1.0
        assert macro_fraction(rho, part, "gamma") == 0.0

    def test_maximally_mixed_split(self):
        rho = DensityOperator(np.eye(3) / 3.0)
        part = MacrostatePartition({"big": (0, 1), "small": (2,)})
        assert macro_fraction(rho, part, "big") == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert macro_fraction(rho, part, "small") == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(21)
        d = 6
        rho = density_from_ensemble(
            DiscreteDistribution.from_weights(rng.random(d)), random_orthonormal(rng, d)
        )
        part = MacrostatePartition({"a": (0, 1, 2), "b": (3,), "c": (4, 5)})
        total = sum(macro_fraction(rho, part, lbl) for lbl in part.labels)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestDiagonalEntropy:
    def test_uniform_diagonal(self):
        rho = DensityOperator(np.eye(4) / 4.0)
        assert vn_entropy_diagonal(rho) == pytest.approx(math.log(4), abs=1e-12)

    def test_pure_state(self):
        assert vn_entropy_diagonal(DensityOperator(np.diag([1.0, 0.0]))) == 0.0

    def test_matches_probcore_entropy(self):
        rho = DensityOperator(np.diag([0.5, 0.3, 0.2]))
        assert vn_entropy_diagonal(rho) == pytest.approx(1.0296530140645737, abs=1e-12)
        assert vn_entropy_diagonal(rho) == pytest.approx(
            entropy(DiscreteDistribution([0.5, 0.3, 0.2])), abs=1e-14
        )

    def test_ensemble_construction_consistency(self):
        probs = DiscreteDistribution([0.4, 0.35, 0.25])
        basis = [StateVector(row) for row in np.eye(3)]
        rho = density_from_ensemble(probs, basis)
        assert vn_entropy_diagonal(rho) == pytest.approx(entropy(probs), abs=1e-12)

    def test_off_diagonal_mass_rejected(self):
        m = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        with pytest.raises(BasisError):
            vn_entropy_diagonal(DensityOperator(m))


class TestMatrixSerialization:
    def test_round_trip_through_json(self):
        import json

        rng = np.random.default_rng(41)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        wire = json.dumps(matrix_to_json(m))
        back = matrix_from_json(json.loads(wire))
        np.testing.assert_array_equal(back, m)

    def test_pairs_are_re_im(self):
        wire = matrix_to_json(np.array([[1.0 + 2.0j]]))
        assert wire == [[[1.0, 2.0]]]

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValidationError):
            matrix_from_json([[1.0, 2.0]])

    def test_vectors_share_the_pair_format(self):
        # the CLI's measure coefficients and summary use the matrices' pairs
        c = np.array([0.6 + 0.0j, -0.5 + 0.25j])
        wire = quantum._to_pairs(c)
        assert wire == [[0.6, 0.0], [-0.5, 0.25]]
        np.testing.assert_array_equal(quantum._from_pairs(wire, 1, "coefficients"), c)
        with pytest.raises(ValidationError, match="coefficients must be nested"):
            quantum._from_pairs([0.6, 0.8], 1, "coefficients")
        with pytest.raises(ValidationError, match="serialized matrix must be nested"):
            matrix_from_json(wire)
