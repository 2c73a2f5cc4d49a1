"""Unstable-equilibrium ensemble: a body balanced on its tip falls over.

The surrogate dynamics is an inverted spherical pendulum (point mass on a
rigid massless rod), in natural units: mass, rod length and gravity are 1,
and time is in units of sqrt(l/g). Any such pendulum maps onto this one by
a rescaling of time and momenta. Its states are given and read out in
canonical coordinates (tilt theta from vertical, azimuth phi, conjugate
momenta):

    H = p_theta^2 / 2 + p_phi^2 / (2 sin^2 theta) + cos(theta)

theta = 0 is the unstable equilibrium. Azimuth is cyclic, so p_phi is
conserved and rotating an initial state about the vertical rotates the
whole trajectory.

Integration uses classical fixed-step RK4 on the vector chart: the rod
direction n (a unit vector) and the angular momentum L, where the equations
of motion are polynomial and regular everywhere, the pole included. A
member that heads over the pole passes through it and falls on the far
side; |n| = 1 and L . n = 0 are conserved by the flow, so their drift
measures the integration error. Canonical coordinates are converted to the
chart at entry and back at readout only.

One lockstep kernel (``_Lockstep``) steps every integration here: the
single state of :func:`integrate` and the probe bundle of
:func:`liouville_check` (one batch), both through ``_flow``, their
one path through a fixed number of steps, and the whole ensemble of
:func:`run_ensemble`. Its buffers are allocated once. A member that falls
is parked at the hanging equilibrium, where every RK4 increment is exactly
zero, so it costs its column's arithmetic and no copy; the batch is
compacted only once an eighth of it is parked. Its state rows are
``n_x' n_y' | n_z n_x n_y L_x L_y L_z | L_x'``, the primed rows copies of
n_x, n_y and L_x: every operand of the cross product L x n is then a
contiguous slice of rows, so a step copies no L, and an undamped step
makes no damping call (37 ufunc calls a step, 45 with damping; the fall
test is 7). The RK4 step and the fall test are call plans, lists of ufunc
calls on views of the buffers, bound when the kernel is built and bound
again at each compaction; every other step replays them without slicing
an array. Each element sees the same
operations in the same order whatever the batch, so a member's fall time
and azimuth do not depend on the ensemble around it. That holds for a
block of the ensemble too: :func:`run_ensemble` splits its members into
one block of consecutive indices per CPU, each block drawing its own
members and stepping them in its own process (block 0 in the caller, the
others in forked children). Each block writes its members' columns of the
table that :func:`._blocks._fork_join` owns and returns: a member's seed,
its fall time (NaN while it stands), its start energy and its state at the
fall. So every output is the same, bit for bit, whatever the number of CPUs.

A finite-support macrostate (uniform on a box) that straddles the
equilibrium contains trajectories toward every fall direction; the ensemble
map from that single macrostate to the distribution over fall sectors is the
deterministic-microstates / indeterminate-macrostate situation the module
exists to exhibit. An optional linear damping term provides a deliberately
non-Hamiltonian control for the phase-volume check.

The rules on the flow and the box live here once: each entry point calls
``_check_flow`` before any work, and :class:`InitialMacrostate` refuses
momenta that overflow when squared. Both raise ValidationError with the
message the CLI prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _blocks
from .errors import NumericsError, ValidationError

__all__ = [
    "PhaseState",
    "InitialMacrostate",
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
# largest ||n| - 1| accepted at a fall; it reads 1.8e-14 at dt = 1e-3 and
# 8.4e-7 at dt = 0.1 on the default box, and is non-finite at dt = 10
MAX_NORM_DRIFT = 1e-6
# classical RK4 is stable on dL/dt = -damping L only while damping*dt <= 2.785
_RK4_DAMPING_LIMIT = 2.785
# liouville_check displaces its probes by this fraction of each support radius
PROBE_SCALE = 1e-6
# the rows of ``_Lockstep``'s state that hold L_x, L_y, L_z, n_x, n_y, n_z
_LN_ROWS = np.array([5, 6, 7, 3, 4, 2])
# a cone block compacts its batch once this share of it is parked: a
# compaction copies the whole state and rebinds both call plans, while
# parked columns then add at most 1/7 to the live work, and a batch of n
# members compacts about log(n) / log(8/7) times
_COMPACT_PARKED_SHARE = 1 / 8


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
        azimuth = float(self.center.azimuth)
        if not math.isfinite((azimuth + radii[1]) - (azimuth - radii[1])):
            raise ValidationError(f"azimuth_radius={radii[1]!r} about {azimuth!r} spans past the float range")
        # momenta that overflow when squared overflow the flow's first steps:
        # fail here, naming the radius, and not at a fall as a dt too coarse
        for name, radius in zip(("tilt_momentum", "azimuth_momentum"), radii[2:]):
            center = float(getattr(self.center, name))
            extent = abs(center) + radius
            if not math.isfinite(extent * extent):  # x * x: a float's ** raises OverflowError
                about = f" about {center!r}" if center else ""
                raise ValidationError(
                    f"{name}_radius={radius!r}{about} overflows the kinetic energy p^2/(2 m l^2)"
                )
        object.__setattr__(self, "support_radii", radii)


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Per-member fall records plus the empirical sector law.

    ``sectors`` holds -1 for unresolved members (never crossed the threshold
    within the step budget); their ``fall_times`` entries are NaN. Unresolved
    members are reported, never dropped. ``member_seeds[m]`` is the first word
    of ``member_seed_sequence(seed, m)``, the stream the member is drawn from;
    ``sample_initial(macro, member_seeds[m])`` draws a different member. ``max_norm_drift`` is the largest
    ||n| - 1| over the members' falls (0.0 if none fell): the integration
    error of the run, bounded by ``MAX_NORM_DRIFT``. ``max_energy_drift`` is
    the largest change of the energy between a member's start and its fall
    (0.0 if none fell), and None for a damped run, whose flow dissipates.
    """

    sector_counts: np.ndarray
    n_unresolved: int
    sectors: np.ndarray
    fall_times: np.ndarray
    final_azimuths: np.ndarray
    member_seeds: np.ndarray
    n_sectors: int
    max_norm_drift: float
    max_energy_drift: float | None

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


def _check_flow(dt: float, damping: float) -> None:
    """Raise unless RK4 steps of ``dt`` can integrate the flow with ``damping``,
    the rule of every entry point here: ``dt`` finite and > 0 (0 integrates
    nothing, < 0 runs backwards), ``damping`` finite and >= 0 (> 0 is the
    dissipative control), and ``damping*dt`` within RK4's stability limit."""
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValidationError(f"dt must be positive, got {dt!r}")
    if not (np.isfinite(damping) and damping >= 0.0):
        raise ValidationError(f"damping must be >= 0, got {damping!r}")
    if float(damping) * float(dt) > _RK4_DAMPING_LIMIT:
        raise ValidationError(
            f"damping={damping!r} at dt={dt!r} is beyond RK4's stability "
            f"limit damping*dt <= {_RK4_DAMPING_LIMIT}"
        )


def hamiltonian(state: PhaseState) -> float:
    """Total energy of a phase-space point."""
    sin_t = math.sin(state.tilt)
    if state.azimuth_momentum == 0.0:
        rot = 0.0
    elif sin_t == 0.0:
        raise NumericsError("azimuthal momentum at the pole has no finite energy")
    else:
        rot = state.azimuth_momentum**2 / (2.0 * sin_t**2)
    return state.tilt_momentum**2 / 2.0 + rot + math.cos(state.tilt)


def _energy(y) -> np.ndarray:
    """The energy |L|^2 / 2 + n_z of (6, m) vector-chart states (L, n),
    elementwise: :func:`hamiltonian` on the chart."""
    lx, ly, lz, _, _, nz = y
    return (lx * lx + ly * ly + lz * lz) / 2.0 + nz


class _Lockstep:
    """Classical RK4 on the vector chart, stepping a batch of members.

    A member's state is the angular momentum L about the pivot and the rod
    direction n (a unit vector):

        dL/dt = (-n_y, n_x, 0) - damping L,    dn/dt = L x n

    The right-hand side is polynomial: no trig, no 1/sin, no chart change at
    the pole. Without damping the plan holds no damping term: the torque is
    the increment itself, and dL_z/dt is a row of zeros written once per
    batch size, so L_z (= p_phi) comes back bit-exact.

    Each element goes through the operations of the textbook update
    (``k = f(y)``, stage ``y + h*k``, then
    ``y + dt/6 * (((k1 + 2*k2) + 2*k3) + k4)``) in the same order, so a
    member's trajectory is the same to the last bit whatever batch it runs
    in. The undamped torque leaves out the textbook's ``- 0*L``, which
    changes no finite value but the sign of a zero: a -0 torque stays -0
    where ``-0 - 0*L`` is +0 for an L with its sign bit set. Every ufunc
    writes into a buffer allocated once.

    ``park`` puts members at the hanging equilibrium, n = (0, 0, -1) and
    L = 0, where every increment is exactly +-0: a parked column never
    changes and never reads upright, damped or not, so a fall costs only
    the fallen members' columns. ``compact`` drops members and moves the
    survivors to the front; :func:`_fall_block` calls it once an eighth of
    the batch is parked.

    The state and stage buffers have 9 rows, ``n_x' n_y' | n_z n_x n_y L_x
    L_y L_z | L_x'``: the state proper is rows 2-7, and the primed rows
    repeat n_x, n_y and L_x, copied after each stage and each step. An
    increment has the 6 rows of the state proper. So the cross product
    needs no copy of L: rows 5-7 times rows 1-3, less rows 6-8 times rows
    0-2, is (L x n)_z, (L x n)_x, (L x n)_y, the increment's first three
    rows, and the torque's (n_y, n_x) is the reversed slice of rows 4-3.
    ``y`` reads the state back in the (L, n) order of :func:`_to_vector`.

    The step and the fall test are call plans: lists of (function,
    operands) on views of the buffers, built by ``_resize`` once per batch
    size, so construction and every ``compact`` rebind them; ``park``
    rebinds nothing. ``step`` and ``upright`` replay a plan and slice
    nothing. The fall test is 7 calls; its squared cosine and sine sit in
    0-d arrays that ``upright`` writes before each replay. A plan fixes
    operands, not arithmetic: each element still goes through the ufuncs
    of the update above in the same order.
    """

    def __init__(self, y, dt: float, damping: float):
        # constants as 0-d arrays: ufunc calls take them faster than floats
        const = lambda v: np.array(v, dtype=float)  # noqa: E731
        self._torque_sign = np.array([[-1.0], [1.0]])
        self._damping = const(damping)
        self._stage_steps = (const(0.5 * dt), const(0.5 * dt), const(dt))
        self._sixth = const(dt / 6.0)
        self._two = const(2.0)
        self._cos2, self._sin2 = const(0.0), const(0.0)
        n = y.shape[1]
        rows = {"state": 9, "stage": 9, "k": 24, "torque": 3, "work": 3}
        self._buf = {name: np.empty(r * n) for name, r in rows.items()}
        self._buf["keep"] = np.empty(n, dtype=bool)
        self.ids = np.arange(n)
        self._resize(n)
        self._state[_LN_ROWS] = y
        _replay(self._repeat(self._state))

    @property
    def y(self) -> np.ndarray:
        """A copy of the state, (L, n) by members."""
        return self._state[_LN_ROWS]

    def _resize(self, n: int) -> None:
        """Point every view at the first ``n`` members, contiguously, and
        bind the step and fall-test plans to them."""
        view = lambda name, *shape: self._buf[name][: math.prod(shape)].reshape(shape)  # noqa: E731
        self.n = n
        self._state, self._stage = view("state", 9, n), view("stage", 9, n)
        self.k = view("k", 4, 6, n)
        self.k[:, 5] = 0.0  # dL_z/dt of an undamped plan, which never writes it
        self._torque, self._work = view("torque", 3, n), view("work", 3, n)
        self._torque[2] = 0.0
        self._keep = view("keep", n)
        self._step_plan = self._rk4_calls()
        self._fall_plan = self._fall_calls()

    @staticmethod
    def _repeat(z) -> list:
        """The calls that copy n_x, n_y and L_x into their primed rows."""
        return [(np.copyto, (z[:2], z[3:5])), (np.copyto, (z[8], z[5]))]

    def _derivatives(self, z, k) -> list:
        """The calls that put the equations of motion at the 9-row stage
        values ``z`` into increments ``k``."""
        work = self._work
        calls = [
            # (L x n)_(z, x, y) = L_(x, y, z) n_(y, z, x) - L_(y, z, x) n_(x, y, z)
            (np.multiply, (z[5:8], z[1:4], k[:3])),
            (np.multiply, (z[6:9], z[:3], work)),
            (np.subtract, (k[:3], work, k[:3])),
        ]
        if self._damping == 0.0:
            # torque (-n_y, n_x); k[5] stays 0
            return calls + [(np.multiply, (self._torque_sign, z[4:2:-1], k[3:5]))]
        torque = self._torque
        return calls + [
            # torque (-n_y, n_x, 0); its last row stays 0
            (np.multiply, (self._torque_sign, z[4:2:-1], torque[:2])),
            (np.multiply, (self._damping, z[5:8], k[3:])),
            (np.subtract, (torque, k[3:], k[3:])),
        ]

    def _rk4_calls(self) -> list:
        """The calls of one RK4 step of size dt on every member."""
        state, stage, k = self._state, self._stage, self.k
        y = state[2:8]
        k1, k2, k3, k4 = k
        plan = self._derivatives(state, k1)
        for j, h in enumerate(self._stage_steps):
            plan += [
                (np.multiply, (h, k[j], stage[2:8])),
                (np.add, (y, stage[2:8], stage[2:8])),
                *self._repeat(stage),
                *self._derivatives(stage, k[j + 1]),
            ]
        # the k buffers are spent once read: accumulate in k2
        return plan + [
            (np.multiply, (self._two, k2, k2)),
            (np.add, (k1, k2, k2)),
            (np.multiply, (self._two, k3, k3)),
            (np.add, (k2, k3, k2)),
            (np.add, (k2, k4, k2)),
            (np.multiply, (self._sixth, k2, k2)),
            (np.add, (y, k2, y)),
            *self._repeat(state),
        ]

    def _fall_calls(self) -> list:
        """The calls of the fall test at the thresholds in ``_cos2``, ``_sin2``.

        tilt < threshold reads cos2 (n_x^2 + n_y^2) < sin2 n_z |n_z| for a
        threshold in (0, pi/2): no trig, no square root.
        """
        a, b, _ = self._work
        nz, n_xy = self._state[2], self._state[3:5]
        return [
            (np.multiply, (n_xy, n_xy, self._work[:2])),
            (np.add, (a, b, a)),
            (np.multiply, (self._cos2, a, a)),
            (np.abs, (nz, b)),
            (np.multiply, (nz, b, b)),
            (np.multiply, (self._sin2, b, b)),
            (np.less, (a, b, self._keep)),
        ]

    def upright(self, cos2: float, sin2: float) -> np.ndarray:
        """Members still short of the tilt whose squared cosine and sine are
        given (a buffer reused by the next call). A non-finite member is not
        upright, so it leaves the batch at once."""
        self._cos2[...], self._sin2[...] = cos2, sin2
        _replay(self._fall_plan)
        return self._keep

    def states(self, members) -> np.ndarray:
        """A copy of the given members' states, (L, n) by members."""
        return self._state[_LN_ROWS[:, None], members]

    def park(self, members) -> None:
        """Put the given members at the hanging equilibrium, n = (0, 0, -1)
        and L = 0, primed rows included. Every RK4 increment there is
        exactly +-0, so their columns never change, and the fall test reads
        0 < -sin2 there, so they never read upright again."""
        self._state[:, members] = 0.0
        self._state[2, members] = -1.0

    def compact(self, keep) -> None:
        """Keep only the members where ``keep`` is True, in order."""
        state = self._state[:, keep]
        self.ids = self.ids[keep]
        self._resize(len(self.ids))
        self._state[...] = state

    def step(self) -> None:
        """Advance every member by one RK4 step of size dt."""
        _replay(self._step_plan)


def _replay(plan) -> None:
    """Make each call of a plan, in order."""
    for call, operands in plan:
        call(*operands)


def _to_vector(theta, phi, p_theta, p_phi) -> np.ndarray:
    """Canonical coordinates to the (6, m) vector-chart state (L, n), elementwise.

    L = p_theta e_phi - (p_phi / sin theta) e_theta, with L_z taken as p_phi
    itself. The e_theta term is 0 where p_phi is 0, the pole included; a
    nonzero p_phi at the pole has no finite L and gives a non-finite state
    (call under ``np.errstate``).
    """
    theta, phi, p_theta, p_phi = (np.asarray(v, dtype=float) for v in (theta, phi, p_theta, p_phi))
    sin_t, cos_t, sin_p, cos_p = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    l_theta = np.divide(p_phi, sin_t, out=np.zeros_like(p_phi), where=p_phi != 0.0)
    return np.array(
        [
            -p_theta * sin_p - l_theta * (cos_t * cos_p),
            p_theta * cos_p - l_theta * (cos_t * sin_p),
            p_phi,
            sin_t * cos_p,
            sin_t * sin_p,
            cos_t,
        ]
    )


def _to_canonical(y) -> tuple:
    """The (6, m) state (L, n) back to (tilt, azimuth in [0, 2pi), p_theta,
    p_phi), elementwise.

    p_theta = L . e_phi and p_phi = L_z; the azimuth is atan2(n_y, n_x), so
    a member that passed over the pole reads out on the far side.
    """
    lx, ly, lz, nx, ny, nz = y
    tilt = np.arctan2(np.hypot(nx, ny), nz)
    azimuth = np.mod(np.arctan2(ny, nx), TWO_PI)
    azimuth[azimuth == TWO_PI] = 0.0  # the mod of a tiny negative angle rounds up to 2pi
    p_theta = ly * np.cos(azimuth) - lx * np.sin(azimuth)
    return tilt, azimuth, p_theta, lz.copy()


def _flow(coords, dt: float, steps: int, damping: float) -> tuple:
    """(4, m) canonical coordinates after ``steps`` RK4 steps of size dt in one
    lockstep batch, as :func:`_to_canonical` reads them; an overflow is a
    non-finite state, not a warning."""
    with np.errstate(all="ignore"):
        kernel = _Lockstep(_to_vector(*coords), dt, damping)
        for _ in range(int(steps)):
            kernel.step()
        return _to_canonical(kernel.y)


def integrate(state: PhaseState, dt: float, steps: int, damping: float = 0.0) -> PhaseState:
    """Advance one phase-space point by ``steps`` fixed RK4 steps of size dt.

    Energy drift stays below 1e-6 relative per 1e4 steps at dt = 1e-3, also
    on trajectories through the pole. From the exact equilibrium (tilt 0,
    both momenta 0) the tilt and both momenta stay 0 (a zero may read -0.0);
    the azimuth is undefined at the pole, and it reads out from the signs of
    the zero n_x and n_y, so it need not be the one given. Raises
    NumericsError if the state turns non-finite (a nonzero p_phi at the pole
    has no finite energy), ValidationError if the final tilt leaves the
    [0, pi/2] chart (integrated past the fall).
    """
    _check_flow(dt, damping)
    if steps < 0:
        raise ValidationError(f"steps must be >= 0, got {steps!r}")
    start = ([v] for v in (state.tilt, state.azimuth, state.tilt_momentum, state.azimuth_momentum))
    vals = tuple(float(v[0]) for v in _flow(start, dt, steps, damping))
    if not all(np.isfinite(v) for v in vals):
        raise NumericsError("trajectory left the finite range (non-finite state)")
    return PhaseState(*vals)


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
    damping: float = 0.0,
) -> EnsembleResult:
    """Integrate every member until its tilt reaches the fall threshold.

    Members are drawn with per-member seed streams (see
    :func:`member_seed_sequence`) and integrated in lockstep with the same
    RK4 rule as :func:`integrate`; the update is elementwise, so each
    member's trajectory is independent of how many others are running.
    The members are split into one block of consecutive indices per CPU;
    block 0 runs in this process and each other block in a forked child
    (see :func:`._blocks._fork_join`), so the result does not depend on
    the CPU count. Final azimuths are binned into ``n_sectors`` equal sectors.
    Members that never cross within ``max_steps`` land in the unresolved
    bucket. Raises NumericsError naming ``dt`` if ||n| - 1| at a fall
    exceeds ``MAX_NORM_DRIFT`` (a step too coarse for the flow), and naming
    the members of a block whose process failed.
    """
    if n_members < 1:
        raise ValidationError(f"need at least one member, got {n_members!r}")
    if n_sectors < 2:
        raise ValidationError(f"need at least two sectors, got {n_sectors!r}")
    if not (0.0 < fall_threshold < MAX_TILT):
        raise ValidationError(f"fall threshold must lie in (0, pi/2), got {fall_threshold!r}")
    _check_flow(dt, damping)
    if max_steps < 0:
        raise ValidationError(f"max_steps must be >= 0, got {max_steps!r}")

    n = int(n_members)
    counts = np.zeros(n_sectors, dtype=int)  # before the work: a table too big fails at once
    table = _blocks._fork_join(
        partial(
            _fall_block,
            macro=macro,
            seed=seed,
            fall_threshold=fall_threshold,
            dt=dt,
            max_steps=max_steps,
            damping=damping,
        ),
        9,
        n,
        "members",
    )
    member_seeds, fall_times = table[0].view(np.uint64).copy(), table[1].copy()
    start_energies, fallen = table[2], table[3:]
    resolved = np.isfinite(fall_times)
    with np.errstate(all="ignore"):
        drift = float(np.max(np.abs(np.linalg.norm(fallen[3:, resolved], axis=0) - 1.0), initial=0.0))
        if not drift <= MAX_NORM_DRIFT:
            raise NumericsError(
                f"dt={dt!r} is too coarse: |n| drifted from 1 by {drift:.3g} at a fall "
                f"(limit {MAX_NORM_DRIFT:g}); use a smaller dt"
            )
        energy_drift = (
            None
            if damping > 0.0
            else float(np.max(np.abs(_energy(fallen[:, resolved]) - start_energies[resolved]), initial=0.0))
        )
        _, azimuths, _, _ = _to_canonical(fallen[:, resolved])

    sectors = np.full(n, -1, dtype=np.int64)
    final_azimuths = np.full(n, np.nan)
    final_azimuths[resolved] = azimuths
    sectors[resolved] = np.minimum(azimuths // (TWO_PI / n_sectors), n_sectors - 1)
    np.add.at(counts, sectors[resolved], 1)
    return EnsembleResult(
        sector_counts=counts,
        n_unresolved=int(n - resolved.sum()),
        sectors=sectors,
        fall_times=fall_times,
        final_azimuths=final_azimuths,
        member_seeds=member_seeds,
        n_sectors=int(n_sectors),
        max_norm_drift=drift,
        max_energy_drift=energy_drift,
    )


def _fall_block(table, start, stop, parent, *, macro, seed, fall_threshold, dt, max_steps, damping):
    """Draw members ``start``..``stop - 1`` and step them until they fall;
    write each one's seed, fall time, start energy and state at the fall
    into its column of the (9, n) ``table`` (an unresolved member's fall
    time and state are NaN). A member is parked once its fall is recorded
    and the batch compacted once ``_COMPACT_PARKED_SHARE`` of it is
    parked, so a fall costs the fallen members' columns, not the batch. In
    a forked child (``parent`` set), the block stops once its parent is
    gone (``_blocks._check_parent``)."""
    seeds = table[0, start:stop].view(np.uint64)
    fall_times, fallen = table[1, start:stop], table[3:, start:stop]
    begin = np.empty((4, stop - start))
    for j in range(stop - start):
        ss = member_seed_sequence(seed, start + j)
        seeds[j] = ss.generate_state(1, np.uint64)[0]
        state = sample_initial(macro, ss)
        begin[:, j] = state.tilt, state.azimuth, state.tilt_momentum, state.azimuth_momentum
    table[1:, start:stop] = np.nan  # row 2, the start energies, is written next
    cos2, sin2 = math.cos(fall_threshold) ** 2, math.sin(fall_threshold) ** 2
    step = 0
    with np.errstate(all="ignore"):
        y = _to_vector(*begin)
        table[2, start:stop] = _energy(y)
        kernel = _Lockstep(y, dt, damping)
        # parked members never read upright: a step has new falls exactly
        # when fewer than the standing members read upright
        standing, parked = kernel.n, np.zeros(kernel.n, dtype=bool)
        upright = kernel.upright(cos2, sin2)
        while True:
            if np.count_nonzero(upright) < standing:
                fell = np.flatnonzero(~upright & ~parked)
                ids = kernel.ids[fell]
                fall_times[ids] = step * dt
                fallen[:, ids] = kernel.states(fell)
                kernel.park(fell)
                parked[fell] = True
                standing -= fell.size
                if kernel.n - standing >= _COMPACT_PARKED_SHARE * kernel.n:
                    kernel.compact(~parked)
                    parked = np.zeros(kernel.n, dtype=bool)
            if standing == 0 or step >= max_steps:
                break
            kernel.step()
            step += 1
            if step % 1024 == 0:
                _blocks._check_parent(parent)
            upright = kernel.upright(cos2, sin2)


def liouville_check(macro: InitialMacrostate, dt: float, steps: int, damping: float = 0.0) -> float:
    """Estimated phase-volume ratio along trajectories from the macrostate's centre.

    One bundle of 8 probes takes centered differences of the flow map along
    the four canonical axes (displacement = PROBE_SCALE * support radius;
    the probes flow in one lockstep batch in the vector chart and are read
    back before they are differenced, azimuths on the circle); the Jacobian
    determinant estimates the local volume ratio, which is 1 for the
    undamped Hamiltonian flow up to integrator and differencing error.
    """
    if steps < 0:
        raise ValidationError(f"steps must be >= 0, got {steps!r}")
    _check_flow(dt, damping)
    if steps == 0:
        return 1.0  # identity map: exact
    c = macro.center
    center = np.array([[c.tilt], [c.azimuth], [c.tilt_momentum], [c.azimuth_momentum]])
    h = PROBE_SCALE * np.asarray(macro.support_radii)
    # coords x probes, plus and minus along each axis; every coordinate is
    # the centre's plus an offset, so a -0.0 centre coordinate enters as +0.0
    probes = np.empty((4, 8))
    probes[:, 0::2] = center + np.diag(h)
    probes[:, 1::2] = center + np.diag(-h)
    flowed = np.vstack(_flow(probes, dt, steps, damping))
    if not np.all(np.isfinite(flowed)):
        raise NumericsError("degenerate probe bundle: flow produced non-finite probes")
    diff = flowed[:, 0::2] - flowed[:, 1::2]
    diff[1] = np.mod(diff[1] + math.pi, TWO_PI) - math.pi  # azimuths differ on the circle
    det = float(abs(np.linalg.det(diff / (2.0 * h))))
    if not np.isfinite(det) or det == 0.0:
        raise NumericsError("degenerate probe bundle: singular flow Jacobian")
    return det


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
