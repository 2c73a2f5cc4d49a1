"""Deterministic phase-oscillator model of the spin echo.

Spins precess freely at fixed individual frequencies, so an aligned ensemble
dephases: the magnetization |mean phasor| decays while the binned phase
entropy climbs toward ln(n_bins). A reversal pulse at time tau flips every
accumulated phase, and free precession then cancels it exactly at 2*tau.
The macroscopic order is destroyed and rebuilt while the microscopic record
(the phase-frequency correlation) is conserved throughout: any predictor fed
only the near-maximal binned entropy at tau misjudges the echo completely.

:func:`run_protocol` runs its samples as one block of consecutive samples
per CPU (:mod:`._blocks`). Each sample evolves the phases exactly as
:func:`evolve` would and writes its magnetization and entropy to its own
slot, so the report is bit-identical on any number of CPUs. The worker
threads call only the private kernels ``_magnetization`` and
``_binned_entropy``, never the public functions or probcore's validated
constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blocks import _split
from .errors import ValidationError
from .probcore import DiscreteDistribution, _frozen_array, _shannon, entropy

__all__ = [
    "FrequencySpread",
    "SpinEnsemble",
    "EchoReport",
    "init_ensemble",
    "evolve",
    "apply_pulse",
    "binned_phase_entropy",
    "run_protocol",
]

TWO_PI = 2.0 * math.pi
SPREAD_KINDS = ("normal", "uniform")


@dataclass(frozen=True)
class FrequencySpread:
    """Distribution the precession frequencies are drawn from.

    Both are centred on 0: ``normal`` uses scale as the standard deviation;
    ``uniform`` draws from [-scale, scale).
    """

    kind: str = "normal"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in SPREAD_KINDS:
            raise ValidationError(f"spread kind must be one of {SPREAD_KINDS}, got {self.kind!r}")
        if not (np.isfinite(self.scale) and self.scale >= 0.0):
            raise ValidationError(f"spread scale must be >= 0, got {self.scale!r}")
        if self.kind == "uniform" and not math.isfinite(2.0 * self.scale):
            raise ValidationError(f"uniform spread scale {self.scale!r} spans past the float range")


@dataclass(frozen=True, eq=False)
class SpinEnsemble:
    """Fixed frequencies and current (unwrapped) phases of n spins."""

    frequencies: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        freq = _frozen_array(self.frequencies, dtype=float, what="frequencies", ndim=1)
        ph = _frozen_array(self.phases, dtype=float, what="phases", ndim=1)
        if ph.shape != freq.shape:
            raise ValidationError("frequencies and phases must have the same length")
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "phases", ph)

    @property
    def n_spins(self) -> int:
        return int(self.frequencies.size)


@dataclass(frozen=True, eq=False)
class EchoReport:
    """Time series of magnetization and binned phase entropy through the echo."""

    times: np.ndarray
    magnetization: np.ndarray
    binned_entropy: np.ndarray
    echo_time: float

    def __post_init__(self):
        for name in ("times", "magnetization", "binned_entropy"):
            arr = _frozen_array(getattr(self, name), dtype=float, what=name, finite=False)
            object.__setattr__(self, name, arr)

    def at(self, t: float) -> tuple:
        """(magnetization, binned entropy) at the recorded time closest to t."""
        i = int(np.argmin(np.abs(self.times - t)))
        return float(self.magnetization[i]), float(self.binned_entropy[i])


def init_ensemble(n: int, spread: FrequencySpread, seed: int) -> SpinEnsemble:
    """Aligned ensemble (all phases 0) with i.i.d. frequencies from ``spread``."""
    if n < 1:
        raise ValidationError(f"need at least one spin, got {n!r}")
    rng = np.random.default_rng(seed)
    if spread.kind == "normal":
        with np.errstate(over="ignore"):  # an infinite frequency is refused below
            freq = spread.scale * rng.standard_normal(n)
        if np.isinf(freq).any():
            raise ValidationError(f"normal spread scale {spread.scale!r} overflows a spin's frequency")
    else:
        freq = rng.uniform(-spread.scale, spread.scale, n)
    return SpinEnsemble(frequencies=freq, phases=np.zeros(n))


def evolve(ensemble: SpinEnsemble, t: float) -> SpinEnsemble:
    """Free precession for time t: phi_i += omega_i * t, exactly."""
    if not (np.isfinite(t) and t >= 0.0):
        raise ValidationError(f"evolution time must be >= 0, got {t!r}")
    return SpinEnsemble(frequencies=ensemble.frequencies, phases=ensemble.phases + ensemble.frequencies * t)


def apply_pulse(ensemble: SpinEnsemble) -> SpinEnsemble:
    """Instantaneous reversal phi_i -> -phi_i; applying it twice is a no-op."""
    return SpinEnsemble(frequencies=ensemble.frequencies, phases=-ensemble.phases)


def _magnetization(phases: np.ndarray) -> float:
    """Coarse order parameter |sum_i exp(i phi_i)| / n, in [0, 1], with one
    complex temporary."""
    phasors = np.multiply(1j, phases)
    return float(abs(np.mean(np.exp(phasors, out=phasors))))


def binned_phase_entropy(ensemble: SpinEnsemble, n_bins: int) -> float:
    """Entropy (nats) of the phase histogram on n_bins equal bins of [0, 2pi)."""
    _check_bins(n_bins)
    counts = _phase_counts(ensemble.phases, n_bins)
    return entropy(DiscreteDistribution.from_weights(counts.astype(float)))


def _check_bins(n_bins: int) -> None:
    if n_bins < 2:
        raise ValidationError(f"need at least 2 bins, got {n_bins!r}")


def _phase_counts(phases: np.ndarray, n_bins: int, out: np.ndarray | None = None) -> np.ndarray:
    """Histogram of ``phases`` mod 2pi on n_bins equal bins of [0, 2pi],
    wrapped into ``out`` if given (``out=phases`` wraps in place)."""
    counts, _ = np.histogram(np.mod(phases, TWO_PI, out=out), bins=n_bins, range=(0.0, TWO_PI))
    return counts


def _binned_entropy(phases: np.ndarray, n_bins: int, out: np.ndarray) -> float:
    """:func:`binned_phase_entropy` without the validated distribution:
    ``_shannon(counts / counts.sum())`` is the value that
    ``entropy(DiscreteDistribution.from_weights(counts))`` computes."""
    counts = _phase_counts(phases, n_bins, out)
    return _shannon(counts / counts.sum())


def run_protocol(
    n: int,
    spread: FrequencySpread,
    tau: float,
    n_bins: int,
    seed: int,
    samples_per_leg: int = 50,
) -> EchoReport:
    """Full dephase-pulse-refocus protocol, sampled through [0, 2 tau].

    The pre-pulse leg evaluates phases as omega * t from the aligned start;
    the pulse at tau negates them; the post-pulse leg adds omega * (t - tau).
    At t = 2 tau the accumulated phase cancels exactly (x - x = 0 in floating
    point), so the echo magnetization is 1 to machine precision.
    """
    if not (math.isfinite(2.0 * tau) and tau > 0.0):
        raise ValidationError(f"tau must be > 0 with a finite echo time 2*tau, got {tau!r}")
    if samples_per_leg < 1:
        raise ValidationError("need at least one sample per leg")
    _check_bins(n_bins)
    # np.linspace, which builds each leg's sample times and np.histogram's
    # bin edges, raises IndexError for a length near 2^63: allocating arrays
    # of both lengths first lets numpy's own size error, or a MemoryError,
    # report a size too big
    for length in (samples_per_leg + 1, n_bins + 1):
        np.empty(length)
    base = init_ensemble(n, spread, seed)
    # every phase of the protocol is at most max|omega| * tau in magnitude
    if not math.isfinite(float(np.abs(base.frequencies).max()) * tau):
        raise ValidationError(
            f"tau={tau!r} at spread scale {spread.scale!r} overflows a spin's phase omega*tau"
        )
    pulsed = apply_pulse(evolve(base, tau))
    times = np.concatenate(
        (np.linspace(0.0, tau, samples_per_leg + 1), np.linspace(tau, 2.0 * tau, samples_per_leg + 1)[1:])
    )
    mags, ents = np.empty_like(times), np.empty_like(times)

    def run(start, stop):
        phases = np.empty(base.n_spins)
        for i in range(start, stop):
            # evolve(base, t) on the first leg, evolve(pulsed, t - tau) after it
            t = float(times[i])
            origin, step = (base.phases, t) if i <= samples_per_leg else (pulsed.phases, t - tau)
            np.add(origin, np.multiply(base.frequencies, step, out=phases), out=phases)
            mags[i] = _magnetization(phases)
            ents[i] = _binned_entropy(phases, n_bins, out=phases)

    _split(run, times.size, times.size * base.n_spins)
    return EchoReport(
        times=times,
        magnetization=mags,
        binned_entropy=ents,
        echo_time=2.0 * tau,
    )
