"""Ensemble measurement simulator with random-phase apparatus ensembles.

The apparatus starts in a definite macrostate: a probability distribution
{p_i} over M microstates whose relative phases carry no information, so they
are drawn uniformly from [0, 2pi). Measuring a K-outcome system attaches one
such phase theta[k, i] to each (outcome, microstate) pair. Averaging over
the microstate distribution damps every off-diagonal (k, k') term by the
random-phasor resultant |sum_i p_i exp(i(theta[k,i] - theta[k',i]))|, of
magnitude O(M^-1/2), leaving the diagonal weights |c_k|^2: outcome fractions
follow the Born rule, and the coarse/residual entropy ledger balances
against the unchanged total.

The combined K*M-dimensional state is never materialized: the fractions,
and the outcomes sampled from them, have a closed form that reads no phase
table, and every resultant is read from the K x M phase table by the one
private kernel ``_phasor_sum``. So a run can check every other input before
it draws the table, its largest.

The suppression curve runs its seeds as one block of consecutive seeds per
CPU (:func:`._blocks._fork_join`): block 0 in this process, each other block
in a forked child. A block builds its seeds' ensembles through
:func:`build_apparatus` and writes each magnitude into its own slot of the
table the fork-join returns, so the curve is bit-identical on any number of
CPUs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import _blocks
from .errors import NumericsError, ValidationError
from .probcore import SUM_TOL, DiscreteDistribution, _frozen_array, _shannon

__all__ = [
    "SystemState",
    "ApparatusEnsemble",
    "EntropyLedger",
    "build_apparatus",
    "outcome_fractions",
    "max_coherence",
    "sample_outcomes",
    "entropy_ledger",
    "largest_remainder_counts",
    "suppression_curve",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class SystemState:
    """Superposition coefficients c_k over the K measurement outcomes."""

    coefficients: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.coefficients, dtype=complex, what="coefficients", ndim=1)
        with np.errstate(over="ignore"):  # an infinite total is rejected below
            total = float(np.sum(np.abs(arr) ** 2))
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(
                f"squared coefficients sum to {total!r}, expected 1 within {SUM_TOL}"
            )
        object.__setattr__(self, "coefficients", arr)

    @property
    def n_outcomes(self) -> int:
        return int(self.coefficients.size)


@dataclass(frozen=True, eq=False)
class ApparatusEnsemble:
    """Microstate distribution {p_i} plus the K x M table of random phases."""

    micro_probs: DiscreteDistribution
    phases: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.phases, dtype=float, what="phase table", ndim=2)
        if arr.shape[1] != len(self.micro_probs):
            raise ValidationError(
                f"phase table has {arr.shape[1]} microstate columns but "
                f"micro_probs has {len(self.micro_probs)}"
            )
        if arr.min() < 0.0 or arr.max() >= TWO_PI:
            raise ValidationError("phases must lie in [0, 2pi)")
        object.__setattr__(self, "phases", arr)

    @property
    def n_outcomes(self) -> int:
        return int(self.phases.shape[0])


@dataclass(frozen=True, eq=False)
class EntropyLedger:
    """Entropy bookkeeping for one ideal measurement at microstate budget n.

    The total is conserved up to the integer-rounding defect: the coarse
    entropy gained by the outcome distribution is paid for by residual
    entropy lost when the n microstates are reallocated to the outcome
    macrostates (n_k = |c_k|^2 n, rounded by largest remainder).
    """

    initial_total: float
    final_coarse: float
    final_residual: float
    final_total: float
    rounding_defect: float
    microstate_counts: np.ndarray

    def __post_init__(self):
        counts = _frozen_array(self.microstate_counts, dtype=int, what="microstate counts", finite=False)
        object.__setattr__(self, "microstate_counts", counts)
        if abs(self.final_total - (self.final_coarse + self.final_residual)) > SUM_TOL:
            raise NumericsError("ledger identity coarse + residual = total violated")
        if abs(self.final_total - self.initial_total) > self.rounding_defect + SUM_TOL:
            raise NumericsError("ledger defect does not bound the total-entropy change")


def build_apparatus(
    n_microstates: int, n_outcomes: int, seed: int, micro_probs: DiscreteDistribution | None = None
) -> ApparatusEnsemble:
    """Draw the K x M random-phase table from a seeded generator.

    ``micro_probs`` defaults to the uniform distribution over microstates.
    Phases are independent and uniform on [0, 2pi); the same seed always
    reproduces the same table.
    """
    if n_microstates < 1:
        raise ValidationError("apparatus needs at least one microstate")
    if n_outcomes < 2:
        raise ValidationError("measurement needs at least two outcomes")
    if micro_probs is None:
        micro_probs = DiscreteDistribution.uniform(n_microstates)
    elif len(micro_probs) != n_microstates:
        raise ValidationError(
            f"micro_probs has {len(micro_probs)} entries, expected {n_microstates}"
        )
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, TWO_PI, size=(n_outcomes, n_microstates))
    return ApparatusEnsemble(micro_probs=micro_probs, phases=phases)


def outcome_fractions(system: SystemState) -> DiscreteDistribution:
    """Fraction of ensemble members registering each outcome: exactly {|c_k|^2}.

    This is the trace of the ensemble-averaged density operator against the
    outcome projectors; the diagonal blocks carry resultant 1 regardless of
    the phase table, so the closed form needs neither the table nor any
    Monte Carlo.
    """
    return DiscreteDistribution.from_weights(np.abs(system.coefficients) ** 2)


def max_coherence(system: SystemState, apparatus: ApparatusEnsemble) -> float:
    """Largest off-diagonal magnitude of the system's decohered density matrix.

    rho[k, k'] = c_k conj(c_k') D[k, k'], where D[k, k'] = sum_i p_i
    exp(i(theta[k, i] - theta[k', i])) is the pair's random-phasor resultant
    over the apparatus microstates (D[k, k] = 1, so the diagonal holds the
    Born weights). Returns the largest |rho[k, k']| over k != k', which
    shrinks as M^-1/2: one phasor sum per pair of outcomes.
    """
    if system.n_outcomes != apparatus.n_outcomes:
        raise ValidationError("system and apparatus disagree on the number of outcomes")
    c, theta, probs = system.coefficients, apparatus.phases, apparatus.micro_probs.probs
    delta, work = np.empty(theta.shape[1]), np.empty(theta.shape[1], dtype=complex)
    largest = 0.0
    for k, j in itertools.combinations(range(system.n_outcomes), 2):
        np.subtract(theta[k], theta[j], out=delta)
        largest = max(largest, abs(c[k] * np.conj(c[j]) * _phasor_sum(probs, delta, work)))
    return float(largest)


def sample_outcomes(system: SystemState, n_members: int, seed: int) -> np.ndarray:
    """Outcome counts across n_members ensemble members.

    Each member registers one definite outcome with the Born weights
    {|c_k|^2}; no collapse dynamics is involved. Deterministic per seed.
    """
    if n_members < 1:
        raise ValidationError("need at least one ensemble member")
    fractions = outcome_fractions(system)
    rng = np.random.default_rng(seed)
    return rng.multinomial(int(n_members), fractions.probs)


def largest_remainder_counts(weights: np.ndarray, n: int) -> np.ndarray:
    """Integer allocation n_k of n slots proportional to weights, summing to n.

    Each share w_k n / sum(w) is an exact Fraction, so the counts sum to n for
    any n and weights. Floors first, then hands the leftover slots (fewer than
    K) to the largest remainders; ties break toward the lower index.
    """
    w = [Fraction(x) for x in np.asarray(weights, dtype=float).tolist()]
    total = sum(w)
    shares = [x * n / total for x in w]
    counts = [math.floor(share) for share in shares]
    order = sorted(range(len(w)), key=lambda k: (counts[k] - shares[k], k))
    for k in order[: n - sum(counts)]:
        counts[k] += 1
    return np.array(counts, dtype=np.int64)


def entropy_ledger(system: SystemState, n_micro: int) -> EntropyLedger:
    """Entropy bookkeeping for an ideal measurement with n microstates.

    Before: one macrostate holding all n microstates, total entropy ln n.
    After: outcome k becomes a macrostate of n_k = |c_k|^2 n microstates
    (largest-remainder rounding), contributing coarse entropy
    -sum |c_k|^2 ln |c_k|^2 and residual sum (n_k/n) ln n_k. The totals agree
    up to the reported rounding defect, which vanishes as n grows.
    """
    k = system.n_outcomes
    if n_micro < k:
        raise ValidationError(
            f"n_micro={n_micro} microstates cannot cover {k} outcomes"
        )
    born = np.abs(system.coefficients) ** 2
    initial_total = math.log(n_micro)
    coarse = _shannon(born)
    counts = largest_remainder_counts(born, int(n_micro))
    occupied = counts > 0
    residual = float(
        np.sum((counts[occupied] / n_micro) * np.log(counts[occupied]))
    )
    total = coarse + residual
    return EntropyLedger(
        initial_total=initial_total,
        final_coarse=coarse,
        final_residual=residual,
        final_total=total,
        rounding_defect=abs(total - initial_total),
        microstate_counts=counts,
    )


def suppression_curve(m_values, n_seeds: int, seed: int) -> list:
    """Median and 95th-percentile off-diagonal magnitude per microstate count.

    For each M, builds ``n_seeds`` independent uniform two-outcome apparatus
    ensembles (seeds split off the root seed) and records the (0, 1)
    phase-resultant magnitude. Returns [(M, median, p95), ...] for scaling
    fits. A draw of more outcomes fills rows 0 and 1 first, with the same
    phases, so the curve is the same for every number of outcomes.

    The seeds run in blocks of consecutive seeds, one per CPU (see
    :func:`._blocks._fork_join`); each block builds, for every M, its seeds'
    ensembles, all of one M sharing the block's first microstate
    distribution, and writes each magnitude into its slot of the
    (len(m_values), n_seeds) table the fork-join returns. So the curve does
    not depend on the number of CPUs. Raises NumericsError naming the seeds
    of a block whose process failed.
    """
    if n_seeds < 1:
        raise ValidationError("need at least one seed per curve point")
    m_values = [int(m) for m in m_values]
    for m in m_values:
        if m < 1:
            raise ValidationError(f"suppression curve M={m}: apparatus needs at least one microstate")
    if not m_values:
        return []
    mags = _blocks._fork_join(partial(_curve_block, m_values, seed), len(m_values), n_seeds, "seeds")
    return [(m, float(np.median(row)), float(np.percentile(row, 95))) for m, row in zip(m_values, mags)]


def _curve_block(m_values, seed, table, start, stop, parent) -> None:
    """For every M, build seeds ``start``..``stop - 1``'s two-outcome
    ensembles and write each one's (0, 1) resultant magnitude into
    ``table[j, s]``. In a forked child (``parent`` set), the block stops
    once its parent is gone (``_blocks._check_parent``)."""
    for j, m in enumerate(m_values):
        micro_probs, delta, work = None, np.empty(m), np.empty(m, dtype=complex)
        for s in range(start, stop):
            _blocks._check_parent(parent)
            child = np.random.SeedSequence(entropy=int(seed), spawn_key=(j, s))
            app = build_apparatus(m, 2, int(child.generate_state(1, np.uint64)[0]), micro_probs)
            micro_probs = app.micro_probs
            np.subtract(app.phases[0], app.phases[1], out=delta)
            table[j, s] = abs(complex(_phasor_sum(micro_probs.probs, delta, work)))


def _phasor_sum(probs: np.ndarray, delta: np.ndarray, work: np.ndarray):
    """sum_i p_i exp(i delta_i), through the complex buffer ``work``."""
    phasors = np.exp(np.multiply(1j, delta, out=work), out=work)
    return np.sum(np.multiply(probs, phasors, out=work))
