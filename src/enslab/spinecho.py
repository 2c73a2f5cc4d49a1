"""Deterministic phase-oscillator model of the spin echo.

Spins precess freely at fixed individual frequencies, so an aligned ensemble
dephases: the magnetization |mean phasor| decays while the binned phase
entropy climbs toward ln(n_bins). A reversal pulse at time tau flips every
accumulated phase, and free precession then cancels it exactly at 2*tau.
The macroscopic order is destroyed and rebuilt while the microscopic record
(the phase-frequency correlation) is conserved throughout: any predictor fed
only the near-maximal binned entropy at tau misjudges the echo completely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .probcore import DiscreteDistribution, _frozen_array, entropy

__all__ = [
    "FrequencySpread",
    "SpinEnsemble",
    "EchoReport",
    "init_ensemble",
    "evolve",
    "apply_pulse",
    "magnetization",
    "binned_phase_entropy",
    "run_protocol",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FrequencySpread:
    """Distribution the precession frequencies are drawn from.

    ``normal`` uses scale as the standard deviation; ``uniform`` draws from
    [center - scale, center + scale).
    """

    kind: str = "normal"
    scale: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        if self.kind not in ("normal", "uniform"):
            raise ValidationError(f"spread kind must be 'normal' or 'uniform', got {self.kind!r}")
        if not (np.isfinite(self.scale) and self.scale >= 0.0):
            raise ValidationError(f"spread scale must be >= 0, got {self.scale!r}")
        if not np.isfinite(self.center):
            raise ValidationError("spread center must be finite")


@dataclass(frozen=True, eq=False)
class SpinEnsemble:
    """Fixed frequencies and current (unwrapped) phases of n spins."""

    frequencies: np.ndarray
    phases: np.ndarray
    seed: int

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

    def wrapped_phases(self) -> np.ndarray:
        return np.mod(self.phases, TWO_PI)


@dataclass(frozen=True, eq=False)
class EchoReport:
    """Time series of magnetization and binned phase entropy through the echo."""

    times: np.ndarray
    magnetization: np.ndarray
    binned_entropy: np.ndarray
    echo_time: float
    n_bins: int

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
        freq = spread.center + spread.scale * rng.standard_normal(n)
    else:
        freq = rng.uniform(spread.center - spread.scale, spread.center + spread.scale, n)
    return SpinEnsemble(frequencies=freq, phases=np.zeros(n), seed=int(seed))


def evolve(ensemble: SpinEnsemble, t: float) -> SpinEnsemble:
    """Free precession for time t: phi_i += omega_i * t, exactly."""
    if not (np.isfinite(t) and t >= 0.0):
        raise ValidationError(f"evolution time must be >= 0, got {t!r}")
    return SpinEnsemble(
        frequencies=ensemble.frequencies,
        phases=ensemble.phases + ensemble.frequencies * t,
        seed=ensemble.seed,
    )


def apply_pulse(ensemble: SpinEnsemble) -> SpinEnsemble:
    """Instantaneous reversal phi_i -> -phi_i; applying it twice is a no-op."""
    return SpinEnsemble(
        frequencies=ensemble.frequencies, phases=-ensemble.phases, seed=ensemble.seed
    )


def magnetization(ensemble: SpinEnsemble) -> float:
    """Coarse order parameter |sum_i exp(i phi_i)| / n, in [0, 1]."""
    return float(abs(np.mean(np.exp(1j * ensemble.phases))))


def binned_phase_entropy(ensemble: SpinEnsemble, n_bins: int) -> float:
    """Entropy (nats) of the phase histogram on n_bins equal bins of [0, 2pi)."""
    if n_bins < 2:
        raise ValidationError(f"need at least 2 bins, got {n_bins!r}")
    counts, _ = np.histogram(ensemble.wrapped_phases(), bins=n_bins, range=(0.0, TWO_PI))
    return entropy(DiscreteDistribution.from_weights(counts.astype(float)))


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
    if not (np.isfinite(tau) and tau > 0.0):
        raise ValidationError(f"tau must be > 0, got {tau!r}")
    if samples_per_leg < 1:
        raise ValidationError("need at least one sample per leg")
    base = init_ensemble(n, spread, seed)
    pulsed = apply_pulse(evolve(base, tau))
    first_leg = np.linspace(0.0, tau, samples_per_leg + 1)
    second_leg = np.linspace(tau, 2.0 * tau, samples_per_leg + 1)[1:]
    times, mags, ents = [], [], []
    for t in first_leg:
        state = evolve(base, float(t))
        times.append(float(t))
        mags.append(magnetization(state))
        ents.append(binned_phase_entropy(state, n_bins))
    for t in second_leg:
        state = evolve(pulsed, float(t) - tau)
        times.append(float(t))
        mags.append(magnetization(state))
        ents.append(binned_phase_entropy(state, n_bins))
    return EchoReport(
        times=np.array(times),
        magnetization=np.array(mags),
        binned_entropy=np.array(ents),
        echo_time=2.0 * tau,
        n_bins=int(n_bins),
    )
