"""Finite-dimensional quantum-statistical toolkit.

Density operators built from ensembles of orthonormal states, expectation
values Tr(rho O), macrostate projectors and ensemble fractions, and the
entropy of ensemble-diagonal operators. The working basis is always the
computational basis; macrostates are index blocks of that basis.

Dimensions are capped at MAX_DIM: the measurement module never materializes
the combined system-apparatus operator, so the dense toolkit stays small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import probcore
from .errors import BasisError, NumericsError, ValidationError

MAX_DIM = 64
HERMITIAN_TOL = 1e-12
POSITIVITY_TOL = 1e-12
TRACE_TOL = 1e-12
ORTHO_TOL = 1e-10
OFFDIAG_TOL = 1e-10
IMAG_TOL = 1e-10

__all__ = [
    "MAX_DIM",
    "StateVector",
    "Observable",
    "DensityOperator",
    "MacrostatePartition",
    "density_from_ensemble",
    "expectation",
    "projector",
    "macro_fraction",
    "vn_entropy_diagonal",
    "matrix_to_json",
    "matrix_from_json",
]


def _as_complex_matrix(values, *, what: str) -> np.ndarray:
    arr = probcore._frozen_array(values, dtype=complex, what=what, ndim=2)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{what} must be a square matrix")
    if arr.shape[0] > MAX_DIM:
        raise ValidationError(f"{what} dimension {arr.shape[0]} exceeds cap {MAX_DIM}")
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector with unit Euclidean norm."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = probcore._frozen_array(self.amplitudes, dtype=complex, what="state vector", ndim=1)
        if arr.size > MAX_DIM:
            raise ValidationError(f"state dimension {arr.size} exceeds cap {MAX_DIM}")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"state vector norm {norm!r} differs from 1 beyond 1e-12")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian matrix in the working basis."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _as_complex_matrix(self.matrix, what="observable")
        if np.abs(arr - arr.conj().T).max() > HERMITIAN_TOL:
            raise ValidationError("observable is not Hermitian within 1e-12 entrywise")
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _as_complex_matrix(self.matrix, what="density operator")
        if np.abs(arr - arr.conj().T).max() > HERMITIAN_TOL:
            raise ValidationError("density operator is not Hermitian within 1e-12")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"density operator trace {tr!r} differs from 1 beyond 1e-12")
        eigs = np.linalg.eigvalsh(arr)
        if float(eigs.min()) < -POSITIVITY_TOL:
            raise ValidationError(
                f"density operator has eigenvalue {eigs.min()!r} below -1e-12"
            )
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True, eq=False)
class MacrostatePartition:
    """Disjoint index blocks covering the basis {0..dim-1}."""

    blocks: tuple
    dim: int = 0

    def __post_init__(self):
        items = self.blocks.items() if isinstance(self.blocks, dict) else self.blocks
        cooked = tuple((str(label), tuple(int(i) for i in idx)) for label, idx in items)
        seen: set[int] = set()
        for label, idx in cooked:
            if len(idx) == 0:
                raise ValidationError(f"block {label!r} is empty")
            if seen & set(idx):
                raise ValidationError(f"block {label!r} overlaps another block")
            seen |= set(idx)
        dim = len(seen)
        if seen != set(range(dim)):
            raise ValidationError("blocks must cover exactly the indices 0..dim-1")
        object.__setattr__(self, "blocks", cooked)
        object.__setattr__(self, "dim", dim)

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.blocks)

    def indices(self, block: str) -> tuple:
        for label, idx in self.blocks:
            if label == block:
                return idx
        raise ValidationError(f"unknown block {block!r}")


def density_from_ensemble(probs, states) -> DensityOperator:
    """rho = sum_k p_k |k><k| over mutually orthonormal states."""
    if not isinstance(probs, probcore.DiscreteDistribution):
        probs = probcore.DiscreteDistribution(np.asarray(probs, dtype=float))
    vecs = [s.amplitudes if isinstance(s, StateVector) else StateVector(s).amplitudes for s in states]
    if len(vecs) != len(probs):
        raise ValidationError(f"{len(probs)} probabilities but {len(vecs)} states")
    v = np.column_stack(vecs)
    gram = v.conj().T @ v
    if np.abs(gram - np.eye(v.shape[1])).max() > ORTHO_TOL:
        raise ValidationError("states are not mutually orthonormal within 1e-10")
    rho = (v * probs.probs) @ v.conj().T
    return DensityOperator(rho)


def expectation(rho: DensityOperator, obs: Observable) -> float:
    """Tr(rho O): the ensemble average of the macroscopic counterpart of O."""
    if rho.dim != obs.dim:
        raise ValidationError(f"dimension mismatch: rho is {rho.dim}, observable is {obs.dim}")
    val = complex(np.trace(rho.matrix @ obs.matrix))
    if abs(val.imag) > IMAG_TOL:
        raise NumericsError(f"expectation has imaginary residue {val.imag!r} above 1e-10")
    return float(val.real)


def projector(partition: MacrostatePartition, block: str) -> Observable:
    """Diagonal 0/1 projector onto one macrostate block."""
    idx = partition.indices(block)
    diag = np.zeros(partition.dim)
    diag[list(idx)] = 1.0
    return Observable(np.diag(diag).astype(complex))


def macro_fraction(rho: DensityOperator, partition: MacrostatePartition, block: str) -> float:
    """Tr(rho P_block): the fraction of ensemble members in that macrostate."""
    val = expectation(rho, projector(partition, block))
    if val < -1e-12 or val > 1.0 + 1e-12:
        raise NumericsError(f"macrostate fraction {val!r} outside [0,1] beyond 1e-12")
    return min(1.0, max(0.0, val))


def vn_entropy_diagonal(rho: DensityOperator) -> float:
    """Entropy of an ensemble-diagonal density operator (nats).

    Requires rho to be diagonal in the working basis within OFFDIAG_TOL;
    the result then equals the Shannon entropy of the diagonal. Eigenbasis
    entropy for general rho is deliberately out of scope.
    """
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    worst = float(np.abs(off).max()) if rho.dim > 1 else 0.0
    if worst > OFFDIAG_TOL:
        raise BasisError(
            f"density operator has off-diagonal mass {worst!r} above 1e-10; "
            "not diagonal in the working basis"
        )
    diag = np.clip(np.real(np.diag(rho.matrix)), 0.0, None)
    return probcore._shannon(diag)


def _to_pairs(values) -> list:
    """Complex values of any shape as nested lists of [re, im] float pairs:
    the JSON wire format for complex numbers."""
    arr = np.asarray(values, dtype=complex)
    return np.stack((arr.real, arr.imag), axis=-1).tolist()


def _from_pairs(obj, ndim: int, what: str) -> np.ndarray:
    """Inverse of :func:`_to_pairs` for an ``ndim``-dimensional array."""
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ValidationError(f"{what} must be nested [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_to_json(matrix: np.ndarray) -> list:
    """Complex matrix as nested lists of [re, im] pairs (JSON wire format)."""
    return _to_pairs(matrix)


def matrix_from_json(obj) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`."""
    return _from_pairs(obj, 2, "serialized matrix")
