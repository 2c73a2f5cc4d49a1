"""Every ensemble value type stores its own read-only copy of its arrays."""

import numpy as np
import pytest

from enslab.measurement import ApparatusEnsemble, CombinedState, EntropyLedger, SystemState
from enslab.probcore import (
    DiscreteDistribution,
    EnergyLevels,
    EntropyDecomposition,
    PartitionedDistribution,
)
from enslab.quantum import DensityOperator, Observable, StateVector
from enslab.randomfield import CovarianceSpec, FieldSample, IndicatorField
from enslab.spinecho import EchoReport, SpinEnsemble


def _echo(name, source):
    arrays = {"times": [0.0, 1.0], "magnetization": [1.0, 0.5], "binned_entropy": [0.0, 0.7]}
    arrays[name] = source
    report = EchoReport(**arrays, echo_time=1.0, n_bins=2)
    return getattr(report, name)


# case -> (mutable source array, constructor returning the array it stored)
CASES = {
    "DiscreteDistribution": (
        np.array([0.25, 0.75]),
        lambda a: DiscreteDistribution(a).probs,
    ),
    "PartitionedDistribution": (
        np.array([0.25, 0.25]),
        lambda a: PartitionedDistribution((("a", a), ("b", [0.5]))).blocks[0][1],
    ),
    "EntropyDecomposition": (
        np.array([0.1, 0.2]),
        lambda a: EntropyDecomposition(
            total=1.0, coarse=0.5, residual=0.5, per_block_conditional=a
        ).per_block_conditional,
    ),
    "EnergyLevels": (
        np.array([0.0, 1.0]),
        lambda a: EnergyLevels(a, 1.0).energies,
    ),
    "Observable": (
        np.eye(2, dtype=complex),
        lambda a: Observable(a).matrix,
    ),
    "DensityOperator": (
        np.diag([0.5, 0.5]).astype(complex),
        lambda a: DensityOperator(a).matrix,
    ),
    "StateVector": (
        np.array([1.0, 0.0], dtype=complex),
        lambda a: StateVector(a).amplitudes,
    ),
    "SystemState": (
        np.array([0.6, 0.8], dtype=complex),
        lambda a: SystemState(a).coefficients,
    ),
    "ApparatusEnsemble": (
        np.array([[0.1, 0.2], [0.3, 0.4]]),
        lambda a: ApparatusEnsemble(DiscreteDistribution.uniform(2), a, 0).phases,
    ),
    "CombinedState": (
        np.array([0.6, 0.8], dtype=complex),
        lambda a: CombinedState(a, 0).amplitudes,
    ),
    "EntropyLedger": (
        np.array([3, 5]),
        lambda a: EntropyLedger(1.0, 0.5, 0.5, 1.0, 0.0, a).microstate_counts,
    ),
    "FieldSample": (
        np.zeros((3, 3)),
        lambda a: FieldSample(2, 3, a, 1.0, 0, CovarianceSpec()).values,
    ),
    "IndicatorField": (
        np.array([[0, 1], [1, 0]], dtype=np.uint8),
        lambda a: IndicatorField(a, (0.0, 1.0), 1.0).bits,
    ),
    "SpinEnsemble.frequencies": (
        np.array([1.0, 2.0]),
        lambda a: SpinEnsemble(a, [0.0, 0.0], 0).frequencies,
    ),
    "SpinEnsemble.phases": (
        np.array([0.0, 0.0]),
        lambda a: SpinEnsemble([1.0, 2.0], a, 0).phases,
    ),
    **{
        f"EchoReport.{name}": (np.array([0.0, 1.0]), lambda a, name=name: _echo(name, a))
        for name in ("times", "magnetization", "binned_entropy")
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_construction_copies_and_freezes(case):
    source, build = CASES[case]
    stored = build(source)
    before = stored.copy()
    source.flat[0] += 1
    np.testing.assert_array_equal(stored, before)
    assert not stored.flags.writeable
