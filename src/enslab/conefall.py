"""Unstable-equilibrium ensemble: a body balanced on its tip falls over.

The surrogate dynamics is an inverted spherical pendulum (point mass m on a
rigid massless rod of length l, gravity g), in canonical coordinates
(tilt theta from vertical, azimuth phi, conjugate momenta):

    H = p_theta^2 / (2 m l^2) + p_phi^2 / (2 m l^2 sin^2 theta) + m g l cos(theta)

theta = 0 is the unstable equilibrium. Azimuth is cyclic, so p_phi is
conserved and the tilt subsystem evolves independently of phi: rotating an
initial state rotates the whole trajectory. Integration uses classical
fixed-step RK4 on an extended signed-tilt chart (crossing the pole flips the
sign of theta and shifts phi by pi at readout), which keeps the equations
smooth for the overwhelmingly common p_phi ~ 0 members.

One lockstep kernel (``_Lockstep``) steps every integration here: the
single state of :func:`integrate`, the probe bundles of
:func:`liouville_check` and the whole ensemble of :func:`run_ensemble`. Its
buffers are allocated once, and the batch is compacted only on steps where
members fell. Each element sees the same operations in the same order
whatever the batch, so a member's fall time and azimuth do not depend on
the ensemble around it, and every finite result is bit-identical to the
plain per-step RK4 update on arrays (a frozen copy of it is the tests'
oracle).

A finite-support macrostate (uniform on a box) that straddles the
equilibrium contains trajectories toward every fall direction; the ensemble
map from that single macrostate to the distribution over fall sectors is the
deterministic-microstates / indeterminate-macrostate situation the module
exists to exhibit. An optional linear damping term provides a deliberately
non-Hamiltonian control for the phase-volume check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .probcore import DiscreteDistribution

__all__ = [
    "ConeParams",
    "PhaseState",
    "InitialMacrostate",
    "FallOutcome",
    "EnsembleResult",
    "integrate",
    "sample_initial",
    "run_ensemble",
    "liouville_check",
    "hamiltonian",
    "chi_square_uniform",
    "member_seed_sequence",
]

TWO_PI = 2.0 * math.pi
MAX_TILT = 0.5 * math.pi


@dataclass(frozen=True)
class ConeParams:
    """Physical constants; ``damping`` > 0 makes the flow dissipative (test aid)."""

    gravity: float = 1.0
    rod_length: float = 1.0
    mass: float = 1.0
    damping: float = 0.0

    def __post_init__(self):
        for name in ("gravity", "rod_length", "mass"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValidationError(f"{name} must be positive, got {v!r}")
        if not (np.isfinite(self.damping) and self.damping >= 0.0):
            raise ValidationError(f"damping must be >= 0, got {self.damping!r}")


@dataclass(frozen=True)
class PhaseState:
    """One point of the four-dimensional phase space."""

    tilt: float
    azimuth: float
    tilt_momentum: float
    azimuth_momentum: float

    def __post_init__(self):
        vals = (self.tilt, self.azimuth, self.tilt_momentum, self.azimuth_momentum)
        if not all(np.isfinite(v) for v in vals):
            raise ValidationError("phase-state coordinates must be finite")
        if not 0.0 <= self.tilt <= MAX_TILT:
            raise ValidationError(f"tilt must lie in [0, pi/2], got {self.tilt!r}")
        if not 0.0 <= self.azimuth < TWO_PI:
            raise ValidationError(f"azimuth must lie in [0, 2pi), got {self.azimuth!r}")


@dataclass(frozen=True)
class InitialMacrostate:
    """Uniform distribution on a box around ``center`` (finite phase volume)."""

    center: PhaseState
    support_radii: tuple

    def __post_init__(self):
        radii = tuple(float(r) for r in self.support_radii)
        if len(radii) != 4:
            raise ValidationError("need one support radius per phase-space coordinate")
        if not all(np.isfinite(r) and r > 0.0 for r in radii):
            raise ValidationError("support radii must be positive and finite")
        if self.center.tilt - radii[0] < 0.0 or self.center.tilt + radii[0] > MAX_TILT:
            raise ValidationError("tilt support must stay inside [0, pi/2]")
        object.__setattr__(self, "support_radii", radii)


@dataclass(frozen=True)
class FallOutcome:
    sector: int
    fall_time: float


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Per-member fall records plus the empirical sector law.

    ``sectors`` holds -1 for unresolved members (never crossed the threshold
    within the step budget); their ``fall_times`` entries are NaN. Unresolved
    members are reported, never dropped.
    """

    sector_counts: np.ndarray
    n_unresolved: int
    sectors: np.ndarray
    fall_times: np.ndarray
    final_azimuths: np.ndarray
    member_seeds: np.ndarray
    n_sectors: int

    def sector_distribution(self) -> DiscreteDistribution:
        total = int(self.sector_counts.sum())
        if total == 0:
            raise ValidationError("no member resolved; sector distribution undefined")
        return DiscreteDistribution(self.sector_counts / total)

    def fall_time_stats(self) -> dict:
        resolved = self.fall_times[np.isfinite(self.fall_times)]
        if resolved.size == 0:
            return {"count": 0}
        return {
            "count": int(resolved.size),
            "mean": float(resolved.mean()),
            "median": float(np.median(resolved)),
            "min": float(resolved.min()),
            "max": float(resolved.max()),
        }


def hamiltonian(state: PhaseState, params: ConeParams = ConeParams()) -> float:
    """Total energy of a phase-space point."""
    ml2 = params.mass * params.rod_length**2
    sin_t = math.sin(state.tilt)
    if state.azimuth_momentum == 0.0:
        rot = 0.0
    elif sin_t == 0.0:
        raise NumericsError("azimuthal momentum at the pole has no finite energy")
    else:
        rot = state.azimuth_momentum**2 / (2.0 * ml2 * sin_t**2)
    return (
        state.tilt_momentum**2 / (2.0 * ml2)
        + rot
        + params.mass * params.gravity * params.rod_length * math.cos(state.tilt)
    )


class _Lockstep:
    """Classical RK4 on the signed-tilt chart, stepping a batch of members.

    Each element goes through the same operations in the same order as the
    textbook update (``k = f(y)``, stage ``y + h*k``, then
    ``y + dt/6 * (((k1 + 2*k2) + 2*k3) + k4)``, with ``f`` as in
    :meth:`_derivatives`), so a member's trajectory is the same to the last
    bit whatever batch it runs in. Every ufunc writes into a buffer
    allocated once; ``compact`` drops members and moves the survivors to
    the front, so the arrays of a step are always contiguous.

    Work that cannot change a bit is skipped:

    * phi is cyclic: its stage values are never read, only its increments
      are accumulated;
    * without damping the p_phi increments are exactly zero, so every stage
      value of p_phi is ``p_phi + 0.0``, and ``p_phi**2`` and the spinning
      gate (``p_phi != 0``, which switches the centrifugal terms on) are
      computed once per member instead of once per stage.
    """

    def __init__(self, theta, phi, p_theta, p_phi, dt: float, params: ConeParams):
        # constants as 0-d arrays: ufunc calls take them faster than floats
        const = lambda v: np.array(v, dtype=float)  # noqa: E731
        self.damped = params.damping > 0.0
        self._ml2 = const(params.mass * params.rod_length**2)
        self._mgl = const(params.mass * params.gravity * params.rod_length)
        self._damping = const(params.damping)
        self._stage_steps = (const(0.5 * dt), const(0.5 * dt), const(dt))
        self._sixth = const(dt / 6.0)
        self._zero, self._one, self._two = const(0.0), const(1.0), const(2.0)
        # state rows: those the derivatives read (theta, p_theta and, when
        # damped, p_phi), then phi
        rows = [theta, p_theta] + ([p_phi] if self.damped else []) + [phi]
        n = len(theta)
        self._shape = (len(rows), len(rows) - 1)
        self._buf = {
            "y": np.empty(len(rows) * n),
            "k": np.empty(4 * len(rows) * n),
            "acc": np.empty(len(rows) * n),
            "tmp": np.empty(len(rows) * n),
            "stage": np.empty((len(rows) - 1) * n),
            "work": np.zeros(5 * n),  # sin, cos, scratch, 1/(ml2 sin^2), centrifugal
            "p_phi": np.empty(n),
            "p2": np.empty(n),
            "spin": np.empty(n, dtype=bool),
            "cross": np.empty(n, dtype=bool),
        }
        self.ids = np.arange(n)
        self._resize(n)
        self.y[...] = rows
        self._set_p_phi(p_phi)

    def _resize(self, n: int) -> None:
        """Point every view at the first ``n`` members, contiguously."""
        rows, lead = self._shape
        view = lambda name, *shape: self._buf[name][: math.prod(shape)].reshape(shape)  # noqa: E731
        self.n = n
        self.y, self.acc, self.tmp = (view(name, rows, n) for name in ("y", "acc", "tmp"))
        self.k = view("k", 4, rows, n)
        self.stage = view("stage", lead, n)
        self.work = view("work", 5, n)
        self.p2, self.spin, self._cross = (view(name, n) for name in ("p2", "spin", "cross"))
        self.p_phi = self.y[2] if self.damped else view("p_phi", n)
        self._lead = (self.y[:lead], self.tmp[:lead], tuple(k[:lead] for k in self.k))

    def _set_p_phi(self, p_phi) -> None:
        """Store p_phi; without damping also its square and the spinning gate."""
        self.p_phi[...] = p_phi
        if not self.damped:
            np.square(self.p_phi, self.p2)
            self._set_gate(self.p_phi)

    def _set_gate(self, p_phi) -> None:
        """Switch the centrifugal terms on where ``p_phi != 0``; where they
        are off, 1/(ml2 sin^2) and the centrifugal term stay exactly 0."""
        np.not_equal(p_phi, self._zero, self.spin)
        if self.spin.all():
            self.gate = {}
        else:
            self.gate = {"where": self.spin}
            self.work[3:, ~self.spin] = 0.0

    @property
    def theta(self):
        return self.y[0]

    @property
    def p_theta(self):
        return self.y[1]

    @property
    def phi(self):
        return self.y[-1]

    def crossed(self, threshold: float) -> np.ndarray:
        """``|theta| >= threshold`` per member (a buffer reused by the next call)."""
        scratch = self.work[2]
        np.abs(self.theta, scratch)
        return np.greater_equal(scratch, threshold, self._cross)

    def compact(self, keep) -> None:
        """Keep only the members where ``keep`` is True, in order."""
        y, p_phi = self.y[:, keep], self.p_phi[keep]
        self.ids = self.ids[keep]
        self._resize(len(self.ids))
        self.y[...] = y
        self._set_p_phi(p_phi)

    def _derivatives(self, z, k) -> None:
        """Equations of motion at stage values ``z`` into increments ``k``.

        d theta/dt   = p_theta / ml2
        d phi/dt     = p_phi * inv,  inv = 1 / (ml2 sin^2)
        d p_theta/dt = ((p_phi^2 cos) inv) / sin + mgl sin  [- damping p_theta]
        d p_phi/dt   = 0  [- damping p_phi]

        inv and the centrifugal term are 0 for members with p_phi == 0. The
        plain per-step update divided a spinning member at sin == 0 by 1.0
        instead; there inv is +inf, so the two differ only in the sign of
        an infinity, and the state turns non-finite either way.
        """
        sin, cos, tmp, inv, cent = self.work
        theta, p_theta = z[0], z[1]
        if self.damped:
            p_phi = z[2]
            self._set_gate(p_phi)
            np.square(p_phi, self.p2)
        else:
            p_phi = self.p_phi
        gate = self.gate
        np.sin(theta, sin)
        np.cos(theta, cos)
        np.square(sin, tmp, **gate)
        np.multiply(self._ml2, tmp, tmp, **gate)
        np.divide(self._one, tmp, inv, **gate)
        np.multiply(p_phi, inv, k[-1])
        np.multiply(self.p2, cos, cent, **gate)
        np.multiply(cent, inv, cent, **gate)
        np.divide(cent, sin, cent, **gate)
        np.multiply(self._mgl, sin, k[1])
        np.add(cent, k[1], k[1])
        np.divide(p_theta, self._ml2, k[0])
        if self.damped:
            np.multiply(self._damping, p_theta, tmp)
            np.subtract(k[1], tmp, k[1])
            np.multiply(self._damping, p_phi, tmp)
            np.subtract(self._zero, tmp, k[2])

    def step(self) -> None:
        """Advance every member by one RK4 step of size dt."""
        y, stage, acc, tmp = self.y, self.stage, self.acc, self.tmp
        y_lead, tmp_lead, k_lead = self._lead
        k1, k2, k3, k4 = self.k
        if not self.damped:
            np.add(self.p_phi, self._zero, self.p_phi)  # p_phi + dt/6 * 0
        self._derivatives(y, k1)
        for j, h in enumerate(self._stage_steps):
            np.multiply(h, k_lead[j], tmp_lead)
            np.add(y_lead, tmp_lead, stage)
            self._derivatives(stage, self.k[j + 1])
        np.multiply(self._two, k2, acc)
        np.add(k1, acc, acc)
        np.multiply(self._two, k3, tmp)
        np.add(acc, tmp, acc)
        np.add(acc, k4, acc)
        np.multiply(self._sixth, acc, acc)
        np.add(y, acc, y)

    def advance(self, steps: int) -> None:
        """Take ``steps`` steps; overflow shows as non-finite state, not warnings."""
        with np.errstate(all="ignore"):
            for _ in range(int(steps)):
                self.step()


def _readout(theta, phi) -> tuple:
    """Map the signed-tilt chart back to (tilt in [0, pi], azimuth in [0, 2pi)), elementwise."""
    upright = theta >= 0.0
    return np.where(upright, theta, -theta), np.mod(np.where(upright, phi, phi + math.pi), TWO_PI)


def integrate(state: PhaseState, dt: float, steps: int, params: ConeParams = ConeParams()) -> PhaseState:
    """Advance one phase-space point by ``steps`` fixed RK4 steps of size dt.

    Energy drift stays below 1e-6 relative per 1e4 steps at dt = 1e-3 on
    trajectories away from the coordinate pole. The exact equilibrium
    (tilt 0, both momenta 0) is a fixed point and comes back unchanged.
    Raises NumericsError if the state turns non-finite, ValidationError if
    the final tilt leaves the [0, pi/2] chart (integrated past the fall).
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValidationError(f"dt must be positive, got {dt!r}")
    if steps < 0:
        raise ValidationError(f"steps must be >= 0, got {steps!r}")
    kernel = _Lockstep(
        [state.tilt], [state.azimuth], [state.tilt_momentum], [state.azimuth_momentum], dt, params
    )
    kernel.advance(steps)
    vals = tuple(float(row[0]) for row in (kernel.theta, kernel.phi, kernel.p_theta, kernel.p_phi))
    if not all(np.isfinite(v) for v in vals):
        raise NumericsError("trajectory left the finite range (non-finite state)")
    tilt, azimuth = _readout(vals[0], vals[1])
    momentum_sign = 1.0 if vals[0] >= 0.0 else -1.0
    return PhaseState(
        tilt=float(tilt),
        azimuth=float(azimuth),
        tilt_momentum=momentum_sign * vals[2],
        azimuth_momentum=vals[3],
    )


def member_seed_sequence(seed: int, member: int) -> np.random.SeedSequence:
    """Splitting rule for per-member streams: child (seed, spawn_key=(member,))."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(int(member),))


def sample_initial(macro: InitialMacrostate, seed) -> PhaseState:
    """One uniform draw from the macrostate box, deterministic per seed.

    Draw order is fixed (tilt, azimuth, tilt momentum, azimuth momentum);
    the azimuth is wrapped into [0, 2pi) so full-circle supports are legal.
    """
    rng = np.random.default_rng(seed)
    c, r = macro.center, macro.support_radii
    tilt = rng.uniform(c.tilt - r[0], c.tilt + r[0])
    azimuth = float(np.mod(rng.uniform(c.azimuth - r[1], c.azimuth + r[1]), TWO_PI))
    p_tilt = rng.uniform(c.tilt_momentum - r[2], c.tilt_momentum + r[2])
    p_azimuth = rng.uniform(c.azimuth_momentum - r[3], c.azimuth_momentum + r[3])
    return PhaseState(tilt=tilt, azimuth=azimuth, tilt_momentum=p_tilt, azimuth_momentum=p_azimuth)


def run_ensemble(
    macro: InitialMacrostate,
    n_members: int,
    n_sectors: int,
    fall_threshold: float = 1.0,
    seed: int = 0,
    dt: float = 1e-3,
    max_steps: int = 10**6,
    params: ConeParams = ConeParams(),
) -> EnsembleResult:
    """Integrate every member until its tilt reaches the fall threshold.

    Members are drawn with per-member seed streams (see
    :func:`member_seed_sequence`) and integrated in lockstep with the same
    RK4 rule as :func:`integrate`; the update is elementwise, so each
    member's trajectory is independent of how many others are running.
    Final azimuths are binned into ``n_sectors`` equal sectors. Members that
    never cross within ``max_steps`` land in the unresolved bucket.
    """
    if n_members < 1:
        raise ValidationError(f"need at least one member, got {n_members!r}")
    if n_sectors < 2:
        raise ValidationError(f"need at least two sectors, got {n_sectors!r}")
    if not (0.0 < fall_threshold < MAX_TILT):
        raise ValidationError(f"fall threshold must lie in (0, pi/2), got {fall_threshold!r}")
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValidationError(f"dt must be positive, got {dt!r}")

    n = int(n_members)
    theta = np.empty(n)
    phi = np.empty(n)
    p_theta = np.empty(n)
    p_phi = np.empty(n)
    member_seeds = np.empty(n, dtype=np.uint64)
    for m in range(n):
        ss = member_seed_sequence(seed, m)
        member_seeds[m] = ss.generate_state(1, np.uint64)[0]
        state = sample_initial(macro, ss)
        theta[m], phi[m] = state.tilt, state.azimuth
        p_theta[m], p_phi[m] = state.tilt_momentum, state.azimuth_momentum

    fall_steps = np.full(n, -1, dtype=np.int64)
    final_theta = np.full(n, np.nan)
    final_phi = np.full(n, np.nan)
    kernel = _Lockstep(theta, phi, p_theta, p_phi, dt, params)
    crossed = kernel.crossed(fall_threshold)
    step = 0
    with np.errstate(all="ignore"):
        while True:
            if crossed.any():
                ids = kernel.ids[crossed]
                fall_steps[ids] = step
                final_theta[ids] = kernel.theta[crossed]
                final_phi[ids] = kernel.phi[crossed]
                kernel.compact(~crossed)
            if kernel.n == 0 or step >= max_steps:
                break
            kernel.step()
            step += 1
            crossed = kernel.crossed(fall_threshold)

    sectors = np.full(n, -1, dtype=np.int64)
    fall_times = np.full(n, np.nan)
    final_azimuths = np.full(n, np.nan)
    resolved = fall_steps >= 0
    _, azimuths = _readout(final_theta[resolved], final_phi[resolved])
    final_azimuths[resolved] = azimuths
    sectors[resolved] = np.minimum(azimuths // (TWO_PI / n_sectors), n_sectors - 1)
    fall_times[resolved] = fall_steps[resolved] * dt
    counts = np.bincount(sectors[resolved], minlength=n_sectors)
    return EnsembleResult(
        sector_counts=counts.astype(int),
        n_unresolved=int(n - resolved.sum()),
        sectors=sectors,
        fall_times=fall_times,
        final_azimuths=final_azimuths,
        member_seeds=member_seeds,
        n_sectors=int(n_sectors),
    )


def liouville_check(
    macro: InitialMacrostate,
    dt: float,
    steps: int,
    n_probe: int = 8,
    params: ConeParams = ConeParams(),
    probe_scale: float = 1e-6,
) -> float:
    """Estimated phase-volume ratio along trajectories from the macrostate.

    Each bundle of 8 probes takes centered differences of the flow map along
    the four phase-space axes (displacement = probe_scale * support radius);
    the Jacobian determinant estimates the local volume ratio, which is 1
    for the undamped Hamiltonian flow up to integrator and differencing
    error. ``n_probe // 8`` bundles are spread across the support and their
    determinants averaged.
    """
    if n_probe < 8:
        raise ValidationError(f"need at least 8 probes (2 per coordinate), got {n_probe!r}")
    if steps < 0:
        raise ValidationError(f"steps must be >= 0, got {steps!r}")
    if steps == 0:
        return 1.0  # identity map: exact
    if not (np.isfinite(probe_scale) and probe_scale > 0.0):
        raise NumericsError("degenerate probe bundle: displacement is not positive")
    n_bundles = n_probe // 8
    c = macro.center
    radii = np.asarray(macro.support_radii)
    base = np.array([c.tilt, c.azimuth, c.tilt_momentum, c.azimuth_momentum])
    h = probe_scale * radii
    dets = []
    for j in range(n_bundles):
        offset = (j / n_bundles - 0.5 * (n_bundles - 1) / n_bundles) * 0.5
        center_j = base + offset * radii
        probes = np.empty((4, 8))  # coords x probes
        for axis in range(4):
            plus = center_j.copy()
            minus = center_j.copy()
            plus[axis] += h[axis]
            minus[axis] -= h[axis]
            probes[:, 2 * axis] = plus
            probes[:, 2 * axis + 1] = minus
        kernel = _Lockstep(probes[0], probes[1], probes[2], probes[3], dt, params)
        kernel.advance(steps)
        flowed = np.vstack([kernel.theta, kernel.phi, kernel.p_theta, kernel.p_phi])
        if not np.all(np.isfinite(flowed)):
            raise NumericsError("degenerate probe bundle: flow produced non-finite probes")
        jac = np.empty((4, 4))
        for axis in range(4):
            jac[:, axis] = (flowed[:, 2 * axis] - flowed[:, 2 * axis + 1]) / (2.0 * h[axis])
        det = float(abs(np.linalg.det(jac)))
        if not np.isfinite(det) or det == 0.0:
            raise NumericsError("degenerate probe bundle: singular flow Jacobian")
        dets.append(det)
    return float(np.mean(dets))


def chi_square_uniform(counts) -> float:
    """Pearson chi-square statistic of observed counts against the uniform law."""
    obs = np.asarray(counts, dtype=float)
    if obs.ndim != 1 or obs.size < 2:
        raise ValidationError("need counts over at least two categories")
    total = obs.sum()
    if total <= 0:
        raise ValidationError("need at least one observation")
    expected = total / obs.size
    return float(np.sum((obs - expected) ** 2) / expected)
