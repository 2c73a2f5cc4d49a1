"""Discrete probability distributions and the entropy/information calculus.

All entropies are in nats (natural logarithm); the base choice is recorded in
serialized output by the CLI. The core identities implemented here:

* Shannon entropy  S = -sum_i p_i ln p_i,  with 0 ln 0 := 0.
* Hierarchical decomposition over macrostate blocks alpha:
  S(joint) = S(block masses) + sum_alpha p^(alpha) S(conditional in alpha).
* Information as an entropy deficit  I = S_max - S, decomposable the same way.
* The canonical distribution  p_k = exp(-E_k/T) / Z, the entropy maximizer at
  fixed mean energy (units k_B = 1).

Values are immutable after construction and validated there: entries must be
nonnegative and sum to one within SUM_TOL. Probabilities below ZERO_CUTOFF are
treated as exact zeros inside entropy sums. Inputs are renormalized only via
the explicit ``from_weights`` constructor, never silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericsError, ValidationError

SUM_TOL = 1e-12
ZERO_CUTOFF = 1e-15
# temperature_for_mean_energy's bisection: the mean-energy tolerance it
# stops at, and its most halvings
MEAN_ENERGY_TOL = 1e-10
BISECTION_MAX_ITER = 400

__all__ = [
    "SUM_TOL",
    "ZERO_CUTOFF",
    "DiscreteDistribution",
    "PartitionedDistribution",
    "EntropyDecomposition",
    "InfoDecomposition",
    "EnergyLevels",
    "entropy",
    "decompose",
    "information",
    "info_decompose",
    "canonical",
    "temperature_for_mean_energy",
]


def _frozen_array(
    values, *, dtype, what: str, ndim: int | None = None, finite: bool = True, copy: bool = True
) -> np.ndarray:
    """A read-only copy of ``values`` as a ``dtype`` array; with ``copy``
    false, ``values`` itself where it already is one, for arrays no caller
    holds.

    With ``ndim`` set, the array must have that many axes and at least one
    entry; with ``finite``, every entry must be finite. Either failure raises
    ValidationError naming ``what``. The checks run before the copy, so their
    temporaries never coexist with it.
    """
    arr = np.asarray(values, dtype=dtype)
    if ndim is not None and (arr.ndim != ndim or arr.size < 1):
        raise ValidationError(f"{what} must be a non-empty {ndim}-d array")
    if finite and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} must be finite")
    out = arr.copy() if copy else arr
    out.flags.writeable = False
    return out


def _validated_prob_vector(values, *, what: str) -> np.ndarray:
    arr = _frozen_array(values, dtype=float, what=what, ndim=1)
    if float(arr.min()) < 0.0:
        raise ValidationError(f"{what} contains a negative entry ({arr.min()})")
    return arr


def _shannon(p: np.ndarray) -> float:
    """Entropy of a raw nonnegative vector, 0 ln 0 := 0, no validation."""
    live = p > ZERO_CUTOFF
    if not live.any():
        return 0.0
    q = p[live]
    return float(-np.sum(q * np.log(q))) + 0.0  # a point mass gives -0.0; report +0.0


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finite probability vector: entries >= 0, summing to 1 within SUM_TOL."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _validated_prob_vector(self.probs, what="probability vector")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(
                f"probabilities sum to {total!r}, expected 1 within {SUM_TOL}"
            )
        object.__setattr__(self, "probs", arr)

    @classmethod
    def from_weights(cls, weights) -> "DiscreteDistribution":
        """Explicitly renormalize nonnegative weights into a distribution."""
        arr = _validated_prob_vector(weights, what="weight vector")
        total = float(arr.sum())
        if total <= 0.0:
            raise ValidationError("weights sum to zero; nothing to normalize")
        return cls(arr / total)

    @classmethod
    def uniform(cls, n: int) -> "DiscreteDistribution":
        if n < 1:
            raise ValidationError("uniform distribution needs n >= 1")
        return cls(np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True, eq=False)
class PartitionedDistribution:
    """A joint distribution split into labeled macrostate blocks.

    ``blocks`` is an ordered sequence of ``(label, joint_probs)`` pairs; the
    entries of each block are the joint probabilities of the microstates it
    contains, so the block mass is the block sum and the grand total over all
    blocks must be 1 within SUM_TOL.
    """

    blocks: tuple

    def __post_init__(self):
        raw = tuple(self.blocks)
        if len(raw) < 1:
            raise ValidationError("partition needs at least one block")
        cooked = []
        grand = 0.0
        for label, vec in raw:
            arr = _validated_prob_vector(vec, what=f"block {label!r}")
            with np.errstate(over="ignore"):  # an infinite total is rejected below
                grand += float(arr.sum())
            cooked.append((str(label), arr))
        if abs(grand - 1.0) > SUM_TOL:
            raise ValidationError(
                f"joint probabilities sum to {grand!r}, expected 1 within {SUM_TOL}"
            )
        object.__setattr__(self, "blocks", tuple(cooked))

    def block_masses(self) -> np.ndarray:
        """The coarse-grained masses p^(alpha), one per block."""
        return np.array([float(vec.sum()) for _, vec in self.blocks])

    def flattened(self) -> np.ndarray:
        """All joint probabilities concatenated in block order."""
        return np.concatenate([vec for _, vec in self.blocks])


@dataclass(frozen=True, eq=False)
class EntropyDecomposition:
    """Total / coarse / residual entropy triple with per-block conditionals."""

    total: float
    coarse: float
    residual: float
    per_block_conditional: np.ndarray

    def __post_init__(self):
        conditionals = _frozen_array(
            self.per_block_conditional, dtype=float, what="per-block conditionals", finite=False
        )
        object.__setattr__(self, "per_block_conditional", conditionals)
        if abs(self.total - (self.coarse + self.residual)) > SUM_TOL:
            raise NumericsError(
                "entropy decomposition identity violated: "
                f"total={self.total!r} coarse+residual={self.coarse + self.residual!r}"
            )


class InfoDecomposition(NamedTuple):
    total: float
    coarse: float
    residual: float


@dataclass(frozen=True, eq=False)
class EnergyLevels:
    """Energy levels plus a temperature, in units with k_B = 1."""

    energies: np.ndarray
    temperature: float

    def __post_init__(self):
        arr = _frozen_array(self.energies, dtype=float, what="energies", ndim=1)
        if not (np.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValidationError(f"temperature must be positive, got {self.temperature!r}")
        object.__setattr__(self, "energies", arr)


def entropy(dist: DiscreteDistribution) -> float:
    """Shannon entropy -sum p ln p in nats; lies in [0, ln n]."""
    return _shannon(dist.probs)


def decompose(joint: PartitionedDistribution) -> EntropyDecomposition:
    """Split the joint entropy into coarse and residual parts.

    coarse   = entropy of the block masses {p^(alpha)}
    residual = sum_alpha p^(alpha) * entropy(conditional within alpha)
    total    = entropy of the flattened joint (computed independently)

    Blocks of zero mass contribute nothing to the residual.
    """
    masses = joint.block_masses()
    if not np.any(masses > 0.0):
        raise ValidationError("partition has no block with positive mass")
    coarse = _shannon(masses)
    per_block = np.zeros(len(joint.blocks))
    residual = 0.0
    for b, ((_, vec), mass) in enumerate(zip(joint.blocks, masses)):
        if mass <= ZERO_CUTOFF:
            continue
        cond = _shannon(vec / mass)
        per_block[b] = cond
        residual += mass * cond
    total = _shannon(joint.flattened())
    return EntropyDecomposition(
        total=total, coarse=coarse, residual=residual, per_block_conditional=per_block
    )


def information(dist: DiscreteDistribution, s_max: float) -> float:
    """Information as the entropy deficit s_max - S(dist); always >= 0."""
    s = entropy(dist)
    if s_max < s - SUM_TOL:
        raise ValidationError(f"s_max={s_max!r} is below the entropy {s!r}; no valid information value")
    return max(0.0, s_max - s)


def info_decompose(
    joint: PartitionedDistribution,
    s_max_coarse: float,
    s_max_conditional: Sequence[float],
) -> InfoDecomposition:
    """Hierarchical information decomposition.

    ``s_max_conditional`` gives one bound per block. With the total bound
    defined as s_max_coarse + sum_alpha p^(alpha) s_max_conditional[alpha],
    the identity  I_total = I_coarse + sum_alpha p^(alpha) I_cond[alpha]
    holds to within SUM_TOL.
    """
    bounds = np.asarray(s_max_conditional, dtype=float)
    if bounds.shape != (len(joint.blocks),):
        raise ValidationError(
            f"need one conditional bound per block; got {bounds.shape} for {len(joint.blocks)} blocks"
        )
    masses = joint.block_masses()
    coarse_s = _shannon(masses)
    if s_max_coarse < coarse_s - SUM_TOL:
        raise ValidationError(f"s_max_coarse={s_max_coarse!r} is below the coarse entropy {coarse_s!r}")
    i_coarse = max(0.0, s_max_coarse - coarse_s)
    i_residual = 0.0
    s_max_total = s_max_coarse
    s_total = coarse_s
    for (label, vec), mass, bound in zip(joint.blocks, masses, bounds):
        if mass <= ZERO_CUTOFF:
            continue
        cond_s = _shannon(vec / mass)
        if bound < cond_s - SUM_TOL:
            raise ValidationError(
                f"conditional bound {float(bound)!r} for block {label!r} is below its entropy {cond_s!r}"
            )
        i_residual += mass * max(0.0, bound - cond_s)
        s_max_total += mass * bound
        s_total += mass * cond_s
    i_total = max(0.0, s_max_total - s_total)
    return InfoDecomposition(total=i_total, coarse=i_coarse, residual=i_residual)


def canonical(levels: EnergyLevels) -> DiscreteDistribution:
    """Canonical distribution p_k = exp(-E_k/T) / Z.

    Evaluated as exp(-(E_k - E_min)/T) / Z, so the ground state weighs 1 and
    no |E/T| can overflow a weight. This is the entropy maximizer at fixed
    mean energy.
    """
    energies = levels.energies
    # a gap past the float range, or a temperature so small that a gap over
    # it is, overflows to inf, and exp(-inf) = 0 is then the exact weight
    with np.errstate(over="ignore"):
        w = np.exp(-(energies - energies.min()) / levels.temperature)
    return DiscreteDistribution(w / w.sum())


def temperature_for_mean_energy(energies, target_mean: float) -> float:
    """Positive temperature whose canonical mean energy equals target_mean.

    The canonical mean is strictly increasing in T, from min(E) (T -> 0) to
    the plain average of the levels (T -> inf), so the target must lie in
    that open interval; bisection then converges to |mean - target| <= MEAN_ENERGY_TOL.
    """
    arr = np.asarray(energies, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError("temperature solving needs at least 2 energy levels")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("energies contain non-finite entries")
    e_min = float(arr.min())
    span = float(arr.max()) - e_min
    if not np.isfinite(span):  # the bracketing below scales with the span
        raise ValidationError(f"energies span {span!r}, past the float range")
    # the sums below run in units of 2^shift, which is exact and keeps a sum
    # of levels near the float maximum finite; shift is 0 in the ordinary range
    shift = max(0, math.frexp(float(np.abs(arr).max()))[1] + math.frexp(arr.size)[1] - 1023)
    scaled = np.ldexp(arr, -shift)
    e_flat = math.ldexp(float(scaled.mean()), shift)
    if not (e_min < target_mean < e_flat):
        raise ValidationError(
            f"target mean {target_mean!r} is unreachable: must lie strictly inside "
            f"({e_min!r}, {e_flat!r})"
        )
    if not 1e-12 * span > 0.0:  # the bracket below starts at 1e-12 * span
        raise ValidationError(f"energies span {span!r}, too narrow to bracket a temperature")

    def mean_at(t: float) -> float:
        with np.errstate(over="ignore"):  # a level past the float range weighs exp(-inf) = 0
            x = -arr / t
        w = np.exp(x - x.max())
        return math.ldexp(float((w @ scaled) / w.sum()), shift)

    t_lo = 1e-12 * span
    while mean_at(t_lo) >= target_mean:
        t_lo *= 0.5
        if t_lo < 1e-300:
            raise ValidationError("could not bracket the target mean from below")
    t_hi = span
    doublings = 0
    while mean_at(t_hi) < target_mean:
        t_hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise ValidationError(
                f"target mean {target_mean!r} needs an astronomically large temperature"
            )
    t = 0.5 * (t_lo + t_hi)
    for _ in range(BISECTION_MAX_ITER):
        m = mean_at(t)
        if abs(m - target_mean) <= MEAN_ENERGY_TOL:
            return t
        if m < target_mean:
            t_lo = t
        else:
            t_hi = t
        t = 0.5 * (t_lo + t_hi)
    if abs(mean_at(t) - target_mean) > max(MEAN_ENERGY_TOL, 1e-12 * span):
        raise NumericsError(
            f"bisection stalled at T={t!r}; mean-energy residual above tolerance"
        )
    return t

