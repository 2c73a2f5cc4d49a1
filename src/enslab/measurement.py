"""Ensemble measurement simulator with random-phase apparatus ensembles.

The apparatus starts in a definite macrostate: a probability distribution
{p_i} over M microstates whose relative phases carry no information, so they
are drawn uniformly from [0, 2pi). Premeasurement entangles a K-outcome
system with the apparatus, attaching one phase per (outcome, microstate).
Averaging over the microstate distribution suppresses every off-diagonal
(k, k') block by a random-phasor resultant of magnitude O(M^-1/2), leaving
the diagonal weights |c_k|^2: outcome fractions follow the Born rule, and the
coarse/residual entropy ledger balances against the unchanged total.

The combined K*M-dimensional density operator is never materialized; all
ensemble averages are evaluated analytically through the K x M phase table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .probcore import SUM_TOL, DiscreteDistribution, _frozen_array, _shannon
from .quantum import IMAG_TOL, Observable

__all__ = [
    "SystemState",
    "ApparatusEnsemble",
    "CombinedState",
    "EntropyLedger",
    "build_apparatus",
    "premeasure",
    "offdiag_suppression",
    "ensemble_expectation",
    "outcome_fractions",
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
    seed: int

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
    def n_microstates(self) -> int:
        return int(self.phases.shape[1])

    @property
    def n_outcomes(self) -> int:
        return int(self.phases.shape[0])


@dataclass(frozen=True, eq=False)
class CombinedState:
    """Entangled system+apparatus state for one apparatus microstate i.

    The only basis vectors with support are (k, j(k,i)) for k = 0..K-1, where
    j(k,i) labels the apparatus pointer state correlated with outcome k. The
    pointer labels (k, i) are pairwise distinct, so the basis is orthonormal
    by construction and only K amplitudes are stored.
    """

    amplitudes: np.ndarray
    microstate: int

    def __post_init__(self):
        arr = _frozen_array(self.amplitudes, dtype=complex, what="amplitudes", ndim=1)
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"combined-state norm {norm!r} differs from 1 beyond 1e-12")
        object.__setattr__(self, "amplitudes", arr)

    def pointer_label(self, k: int) -> tuple:
        """The basis label (outcome, apparatus pointer index) carrying amplitude k."""
        return (int(k), (int(k), int(self.microstate)))


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
    return ApparatusEnsemble(micro_probs=micro_probs, phases=phases, seed=int(seed))


def premeasure(system: SystemState, apparatus: ApparatusEnsemble, microstate: int) -> CombinedState:
    """Entangle the system with the apparatus prepared in microstate i.

    Each outcome amplitude picks up the phase theta[k][i]; the map is unitary
    on its image, so the norm is preserved. A system already in an eigenstate
    comes out as a product state on (k, j(k,i)).
    """
    if system.n_outcomes != apparatus.n_outcomes:
        raise ValidationError(
            f"system has {system.n_outcomes} outcomes, apparatus table has {apparatus.n_outcomes}"
        )
    if not (0 <= int(microstate) < apparatus.n_microstates):
        raise ValidationError(
            f"microstate index {microstate!r} out of range [0, {apparatus.n_microstates})"
        )
    amps = system.coefficients * np.exp(1j * apparatus.phases[:, int(microstate)])
    return CombinedState(amplitudes=amps, microstate=int(microstate))


def offdiag_suppression(apparatus: ApparatusEnsemble, k: int, k_prime: int) -> float:
    """|sum_i p_i exp(i(theta[k,i] - theta[k',i]))| for one off-diagonal pair.

    For uniform p over M microstates this is the mean resultant length of M
    random unit phasors, with expected magnitude (sqrt(pi)/2)/sqrt(M).
    """
    k, k_prime = int(k), int(k_prime)
    n = apparatus.n_outcomes
    if not (0 <= k < n and 0 <= k_prime < n):
        raise ValidationError(f"outcome pair ({k}, {k_prime}) out of range [0, {n})")
    if k == k_prime:
        raise ValidationError("diagonal term requested: it is 1 by definition")
    delta = apparatus.phases[k] - apparatus.phases[k_prime]
    resultant = np.sum(apparatus.micro_probs.probs * np.exp(1j * delta))
    return float(abs(resultant))


def _dephasing_matrix(apparatus: ApparatusEnsemble) -> np.ndarray:
    """D[k, k'] = sum_i p_i exp(i(theta[k,i] - theta[k',i])); D[k, k] = sum p = 1."""
    e = np.exp(1j * apparatus.phases)
    return (e * apparatus.micro_probs.probs) @ e.conj().T


def ensemble_expectation(system: SystemState, apparatus: ApparatusEnsemble, obs: Observable) -> float:
    """Ensemble average of an ideal-measurement observable over the final state.

    ``obs`` holds the block-constant matrix elements O[k', k] of the combined
    observable: <k', j(k',i)|O|k, j(k,i)> is assumed independent of i within
    each (k', k) block. The microstate sum then factorizes exactly into the
    dephasing matrix, giving

        sum_k |c_k|^2 O[k,k]  +  cross terms damped by the phase resultants,

    with no statistical error: the phase table is used exactly as drawn.
    """
    if obs.dim != system.n_outcomes:
        raise ValidationError(
            f"observable dimension {obs.dim} does not match {system.n_outcomes} outcomes"
        )
    if system.n_outcomes != apparatus.n_outcomes:
        raise ValidationError("system and apparatus disagree on the number of outcomes")
    c = system.coefficients
    d = _dephasing_matrix(apparatus)
    # term(k', k) = conj(c_k') c_k O[k', k] D[k, k']
    val = complex(np.sum(c.conj()[:, None] * c[None, :] * obs.matrix * d.T))
    if abs(val.imag) > IMAG_TOL:
        raise NumericsError(f"ensemble expectation has imaginary residue {val.imag!r}")
    return float(val.real)


def outcome_fractions(system: SystemState, apparatus: ApparatusEnsemble) -> DiscreteDistribution:
    """Fraction of ensemble members registering each outcome: exactly {|c_k|^2}.

    This is the trace of the ensemble-averaged density operator against the
    outcome projectors; the diagonal blocks carry resultant 1 regardless of
    the phase table, so the closed form needs no Monte Carlo.
    """
    if system.n_outcomes != apparatus.n_outcomes:
        raise ValidationError("system and apparatus disagree on the number of outcomes")
    return DiscreteDistribution.from_weights(np.abs(system.coefficients) ** 2)


def sample_outcomes(
    system: SystemState, apparatus: ApparatusEnsemble, n_members: int, seed: int
) -> np.ndarray:
    """Outcome counts across n_members ensemble members.

    Each member registers one definite outcome with the Born weights
    {|c_k|^2}; no collapse dynamics is involved. Deterministic per seed.
    """
    if n_members < 1:
        raise ValidationError("need at least one ensemble member")
    fractions = outcome_fractions(system, apparatus)
    rng = np.random.default_rng(seed)
    return rng.multinomial(int(n_members), fractions.probs)


def largest_remainder_counts(weights: np.ndarray, n: int) -> np.ndarray:
    """Integer allocation n_k of n slots proportional to weights (sum preserved).

    Floors first, then hands the leftover slots to the largest fractional
    remainders; ties break toward the lower index, so the result is
    deterministic.
    """
    w = np.asarray(weights, dtype=float)
    exact = w * n
    counts = np.floor(exact).astype(int)
    leftover = int(n - counts.sum())
    if leftover:
        remainders = exact - counts
        order = np.lexsort((np.arange(w.size), -remainders))
        counts[order[:leftover]] += 1
    return counts


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


def suppression_curve(
    m_values, n_seeds: int, seed: int, n_outcomes: int = 2
) -> list:
    """Median and 95th-percentile off-diagonal magnitude per microstate count.

    For each M, builds ``n_seeds`` independent uniform apparatus ensembles
    (seeds split off the root seed) and records the (0, 1) phase-resultant
    magnitude. Returns [(M, median, p95), ...] for scaling fits.
    """
    if n_seeds < 1:
        raise ValidationError("need at least one seed per curve point")
    out = []
    for j, m in enumerate(m_values):
        mags = np.empty(n_seeds)
        for s in range(n_seeds):
            child = np.random.SeedSequence(entropy=int(seed), spawn_key=(j, s))
            sub_seed = int(child.generate_state(1, np.uint64)[0])
            app = build_apparatus(int(m), n_outcomes, sub_seed)
            mags[s] = offdiag_suppression(app, 0, 1)
        out.append((int(m), float(np.median(mags)), float(np.percentile(mags, 95))))
    return out
