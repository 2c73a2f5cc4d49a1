import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.stats import chi2, kstest

from enslab.conefall import (
    ConeParams,
    InitialMacrostate,
    PhaseState,
    chi_square_uniform,
    hamiltonian,
    integrate,
    liouville_check,
    member_seed_sequence,
    run_ensemble,
    sample_initial,
)
from enslab.errors import ValidationError
from enslab.probcore import entropy

SYMMETRIC_MACRO = InitialMacrostate(
    center=PhaseState(tilt=0.01, azimuth=math.pi, tilt_momentum=0.0, azimuth_momentum=0.0),
    support_radii=(0.01, math.pi, 0.01, 1e-8),
)


def first_crossing_time(state, dt, threshold, max_steps, chunk=250):
    """Fall time via the public integrator, refined to single-step resolution."""
    done = 0
    while done < max_steps:
        take = min(chunk, max_steps - done)
        nxt = integrate(state, dt, take)
        if nxt.tilt >= threshold:
            for k in range(1, take + 1):
                if integrate(state, dt, k).tilt >= threshold:
                    return (done + k) * dt
        done += take
        state = nxt
    return None


class TestTypes:
    def test_tilt_range_enforced(self):
        with pytest.raises(ValidationError):
            PhaseState(tilt=2.0, azimuth=0.0, tilt_momentum=0.0, azimuth_momentum=0.0)

    def test_azimuth_range_enforced(self):
        with pytest.raises(ValidationError):
            PhaseState(tilt=0.1, azimuth=7.0, tilt_momentum=0.0, azimuth_momentum=0.0)

    def test_support_must_be_positive(self):
        with pytest.raises(ValidationError):
            InitialMacrostate(center=SYMMETRIC_MACRO.center, support_radii=(0.0, 1.0, 1.0, 1.0))

    def test_tilt_support_must_fit_chart(self):
        with pytest.raises(ValidationError):
            InitialMacrostate(
                center=PhaseState(0.005, 0.0, 0.0, 0.0), support_radii=(0.01, 1.0, 1.0, 1.0)
            )


class TestIntegrate:
    def test_equilibrium_is_a_fixed_point(self):
        eq = PhaseState(0.0, 0.0, 0.0, 0.0)
        out = integrate(eq, 1e-3, 1000)
        assert out == eq

    def test_azimuthal_equivariance(self):
        rotation = 2.0 * math.pi / 8.0
        base = PhaseState(0.01, 0.5, 0.005, 1e-9)
        rotated = PhaseState(0.01, 0.5 + rotation, 0.005, 1e-9)
        out_base = integrate(base, 1e-3, 5000)
        out_rot = integrate(rotated, 1e-3, 5000)
        assert out_rot.tilt == out_base.tilt
        assert out_rot.tilt_momentum == out_base.tilt_momentum
        delta = (out_rot.azimuth - out_base.azimuth) % (2.0 * math.pi)
        assert delta == pytest.approx(rotation, abs=1e-9)

    def test_small_tilt_grows_monotonically(self):
        # chained 1000-step legs give the tilts at 1000*k steps: no pole passage, p_phi = 0
        state = PhaseState(1e-6, 0.0, 0.0, 0.0)
        tilts = []
        for _ in range(10):
            state = integrate(state, 1e-3, 1000)
            tilts.append(state.tilt)
        assert all(a < b for a, b in zip(tilts, tilts[1:]))

    def test_fall_time_matches_adaptive_oracle(self):
        # independent oracle: high-precision adaptive integration of the
        # planar limit theta'' = sin(theta) with a terminal crossing event
        event = lambda t, y: y[0] - 1.0
        event.terminal = True
        event.direction = 1
        sol = solve_ivp(
            lambda t, y: [y[1], math.sin(y[0])],
            (0.0, 40.0),
            [1e-6, 0.0],
            rtol=1e-12,
            atol=1e-14,
            events=event,
        )
        t_oracle = float(sol.t_events[0][0])
        t_fixed = first_crossing_time(PhaseState(1e-6, 0.0, 0.0, 0.0), 1e-3, 1.0, 20_000)
        assert abs(t_fixed - t_oracle) / t_oracle < 1e-3

    def test_energy_drift_bound(self):
        # spec trajectory: 1e4 steps at dt = 1e-3 from a near-equilibrium state
        start = PhaseState(1e-6, 0.0, 0.0, 0.0)
        end = integrate(start, 1e-3, 10_000)
        h0, h1 = hamiltonian(start), hamiltonian(end)
        assert abs(h1 - h0) / abs(h0) <= 1e-6

    def test_energy_drift_with_angular_momentum(self):
        start = PhaseState(0.5, 1.0, -0.3, 0.3)
        end = integrate(start, 1e-3, 1000)
        h0, h1 = hamiltonian(start), hamiltonian(end)
        assert abs(h1 - h0) / abs(h0) <= 1e-6
        assert end.azimuth_momentum == start.azimuth_momentum  # cyclic coordinate

    def test_invalid_dt_rejected(self):
        with pytest.raises(ValidationError):
            integrate(PhaseState(0.1, 0.0, 0.0, 0.0), 0.0, 10)


class TestSampleInitial:
    def test_draws_stay_inside_the_box(self):
        rngs = range(1000)
        for seed in rngs:
            s = sample_initial(SYMMETRIC_MACRO, seed)
            assert 0.0 <= s.tilt <= 0.02
            assert abs(s.tilt_momentum) <= 0.01
            assert abs(s.azimuth_momentum) <= 1e-8

    def test_deterministic_per_seed(self):
        assert sample_initial(SYMMETRIC_MACRO, 4) == sample_initial(SYMMETRIC_MACRO, 4)

    def test_marginals_uniform_by_ks(self):
        tilts = np.array([sample_initial(SYMMETRIC_MACRO, member_seed_sequence(0, m)).tilt
                          for m in range(10_000)])
        stat = kstest(tilts / 0.02, "uniform")
        assert stat.pvalue > 0.01


class TestRunEnsemble:
    def test_symmetric_macrostate_gives_uniform_sectors(self):
        result = run_ensemble(SYMMETRIC_MACRO, 2000, 8, seed=7, max_steps=50_000)
        assert result.n_unresolved == 0
        assert chi_square_uniform(result.sector_counts) < chi2.ppf(0.99, 7)
        # macrostate-level indeterminacy: the sector law carries entropy
        assert entropy(result.sector_distribution()) > 0.0

    def test_biased_macrostate_mode(self):
        # box centered inside sector 0; mode pinned by a 10x oracle run
        biased = InitialMacrostate(
            center=PhaseState(0.01, math.pi / 8.0, 0.0, 0.0),
            support_radii=(0.01, math.pi / 4.0, 0.01, 1e-8),
        )
        oracle = run_ensemble(biased, 2000, 8, seed=100, max_steps=50_000)
        small = run_ensemble(biased, 200, 8, seed=101, max_steps=50_000)
        assert int(np.argmax(oracle.sector_counts)) == 0
        assert int(np.argmax(small.sector_counts)) == 0

    def test_single_member(self):
        result = run_ensemble(SYMMETRIC_MACRO, 1, 8, seed=3, max_steps=50_000)
        assert result.sector_counts.sum() == 1
        assert result.sector_distribution().probs.max() == 1.0

    def test_members_are_reproducible(self):
        a = run_ensemble(SYMMETRIC_MACRO, 64, 8, seed=5, max_steps=50_000)
        b = run_ensemble(SYMMETRIC_MACRO, 64, 8, seed=5, max_steps=50_000)
        np.testing.assert_array_equal(a.sectors, b.sectors)
        np.testing.assert_array_equal(a.fall_times, b.fall_times)

    def test_unresolved_members_are_reported(self):
        result = run_ensemble(SYMMETRIC_MACRO, 16, 8, seed=5, max_steps=10)
        assert result.n_unresolved == 16
        assert np.all(result.sectors == -1)
        assert np.all(np.isnan(result.fall_times))

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            run_ensemble(SYMMETRIC_MACRO, 0, 8)
        with pytest.raises(ValidationError):
            run_ensemble(SYMMETRIC_MACRO, 10, 1)
        with pytest.raises(ValidationError):
            run_ensemble(SYMMETRIC_MACRO, 10, 8, fall_threshold=2.0)


class TestLiouville:
    def test_zero_steps_is_exactly_one(self):
        assert liouville_check(SYMMETRIC_MACRO, 1e-3, 0) == 1.0

    def test_hamiltonian_flow_preserves_volume(self):
        ratio = liouville_check(SYMMETRIC_MACRO, 1e-3, 1000)
        assert abs(ratio - 1.0) < 1e-4

    def test_multiple_bundles(self):
        ratio = liouville_check(SYMMETRIC_MACRO, 1e-3, 500, n_probe=24)
        assert abs(ratio - 1.0) < 1e-4

    def test_dissipative_control_contracts(self):
        damped = ConeParams(damping=0.1)
        ratio = liouville_check(SYMMETRIC_MACRO, 1e-3, 1000, params=damped)
        assert ratio == pytest.approx(math.exp(-0.2), rel=1e-3)
        assert ratio < 0.99

    def test_needs_eight_probes(self):
        with pytest.raises(ValidationError):
            liouville_check(SYMMETRIC_MACRO, 1e-3, 10, n_probe=4)


class TestChiSquare:
    def test_exactly_uniform_counts_score_zero(self):
        assert chi_square_uniform([5, 5, 5, 5]) == 0.0

    def test_needs_observations(self):
        with pytest.raises(ValidationError):
            chi_square_uniform([0, 0])


# ---------------------------------------------------------------------------
# Bit identity against a frozen copy of the original per-step integrator.
#
# The lockstep kernel reorganizes the work (preallocated buffers, no phi
# stages, p_phi**2 and the spinning mask hoisted out of the stages, the
# batch compacted only when members fall) but must give every float the
# original per-element arithmetic gave. The functions below are that
# original, kept verbatim as the oracle; they drive the seed's
# gather-step-scatter loop.
# ---------------------------------------------------------------------------


def _oracle_derivatives(theta, phi, p_theta, p_phi, params):
    ml2 = params.mass * params.rod_length**2
    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    spinning = p_phi != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_sin2 = np.where(spinning, 1.0 / (ml2 * sin_t**2), 0.0)
        centrifugal = np.where(spinning, p_phi**2 * cos_t * inv_sin2 / np.where(sin_t == 0.0, 1.0, sin_t), 0.0)
    d_theta = p_theta / ml2
    d_phi = p_phi * inv_sin2
    d_p_theta = centrifugal + params.mass * params.gravity * params.rod_length * sin_t
    d_p_phi = np.zeros_like(np.asarray(p_phi, dtype=float))
    if params.damping > 0.0:
        d_p_theta = d_p_theta - params.damping * p_theta
        d_p_phi = d_p_phi - params.damping * p_phi
    return d_theta, d_phi, d_p_theta, d_p_phi


def _oracle_rk4_step(theta, phi, p_theta, p_phi, dt, params):
    k1 = _oracle_derivatives(theta, phi, p_theta, p_phi, params)
    h = 0.5 * dt
    k2 = _oracle_derivatives(theta + h * k1[0], phi + h * k1[1], p_theta + h * k1[2], p_phi + h * k1[3], params)
    k3 = _oracle_derivatives(theta + h * k2[0], phi + h * k2[1], p_theta + h * k2[2], p_phi + h * k2[3], params)
    k4 = _oracle_derivatives(theta + dt * k3[0], phi + dt * k3[1], p_theta + dt * k3[2], p_phi + dt * k3[3], params)
    sixth = dt / 6.0
    return (
        theta + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        phi + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        p_theta + sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        p_phi + sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
    )


def _oracle_readout(theta, phi):
    if theta >= 0.0:
        return theta, float(np.mod(phi, 2.0 * math.pi))
    return -theta, float(np.mod(phi + math.pi, 2.0 * math.pi))


def oracle_integrate(state, dt, steps, params=ConeParams(), scalar=False):
    """The original ``integrate``; ``scalar`` keeps its numpy-scalar operands.

    Array operands (the default) square with ``x*x``, as the ensemble loop
    always did; numpy scalars square through libm ``pow``, which differs in
    the last bit for about one argument in a thousand.
    """
    wrap = np.float64 if scalar else (lambda v: np.array([v]))
    y = tuple(wrap(v) for v in (state.tilt, state.azimuth, state.tilt_momentum, state.azimuth_momentum))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            y = _oracle_rk4_step(*y, dt, params)
    theta, phi, p_theta, p_phi = (float(np.ravel(v)[0]) for v in y)
    tilt, azimuth = _oracle_readout(theta, phi)
    sign = 1.0 if theta >= 0.0 else -1.0
    return PhaseState(tilt, azimuth, sign * p_theta, p_phi)


def oracle_ensemble(macro, n, n_sectors, fall_threshold, seed, dt, max_steps, params=ConeParams()):
    """The original ``run_ensemble`` loop: gather, step and scatter every step."""
    states = [sample_initial(macro, member_seed_sequence(seed, m)) for m in range(n)]
    theta = np.array([s.tilt for s in states])
    phi = np.array([s.azimuth for s in states])
    p_theta = np.array([s.tilt_momentum for s in states])
    p_phi = np.array([s.azimuth_momentum for s in states])
    fall_steps = np.full(n, -1, dtype=np.int64)
    final_theta = np.full(n, np.nan)
    final_phi = np.full(n, np.nan)
    active = np.ones(n, dtype=bool)
    crossed0 = np.abs(theta) >= fall_threshold
    fall_steps[crossed0] = 0
    final_theta[crossed0] = theta[crossed0]
    final_phi[crossed0] = phi[crossed0]
    active &= ~crossed0
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while active.any() and step < max_steps:
            idx = np.nonzero(active)[0]
            new = _oracle_rk4_step(theta[idx], phi[idx], p_theta[idx], p_phi[idx], dt, params)
            theta[idx], phi[idx], p_theta[idx], p_phi[idx] = new
            step += 1
            crossed = idx[np.abs(theta[idx]) >= fall_threshold]
            fall_steps[crossed] = step
            final_theta[crossed] = theta[crossed]
            final_phi[crossed] = phi[crossed]
            active[crossed] = False
    sectors = np.full(n, -1, dtype=np.int64)
    fall_times = np.full(n, np.nan)
    final_azimuths = np.full(n, np.nan)
    width = 2.0 * math.pi / n_sectors
    for m in np.nonzero(fall_steps >= 0)[0]:
        _, azimuth = _oracle_readout(final_theta[m], final_phi[m])
        final_azimuths[m] = azimuth
        sectors[m] = min(int(azimuth // width), n_sectors - 1)
        fall_times[m] = fall_steps[m] * dt
    return sectors, fall_times, final_azimuths


def oracle_liouville(macro, dt, steps, n_probe=8, params=ConeParams(), probe_scale=1e-6):
    """The original ``liouville_check`` for ``steps`` >= 1."""
    n_bundles = n_probe // 8
    c = macro.center
    radii = np.asarray(macro.support_radii)
    base = np.array([c.tilt, c.azimuth, c.tilt_momentum, c.azimuth_momentum])
    h = probe_scale * radii
    dets = []
    for j in range(n_bundles):
        offset = (j / n_bundles - 0.5 * (n_bundles - 1) / n_bundles) * 0.5
        center_j = base + offset * radii
        probes = np.empty((4, 8))
        for axis in range(4):
            plus = center_j.copy()
            minus = center_j.copy()
            plus[axis] += h[axis]
            minus[axis] -= h[axis]
            probes[:, 2 * axis] = plus
            probes[:, 2 * axis + 1] = minus
        th, ph, pt, pp = probes[0], probes[1], probes[2], probes[3]
        for _ in range(int(steps)):
            th, ph, pt, pp = _oracle_rk4_step(th, ph, pt, pp, dt, params)
        flowed = np.vstack([th, ph, pt, pp])
        jac = np.empty((4, 4))
        for axis in range(4):
            jac[:, axis] = (flowed[:, 2 * axis] - flowed[:, 2 * axis + 1]) / (2.0 * h[axis])
        dets.append(float(abs(np.linalg.det(jac))))
    return float(np.mean(dets))


def run_both(macro, n, fall_threshold, seed, dt, max_steps, params=ConeParams()):
    """``run_ensemble`` over 8 sectors, asserted equal to the original loop."""
    result = run_ensemble(
        macro, n, 8, fall_threshold=fall_threshold, seed=seed, dt=dt, max_steps=max_steps, params=params
    )
    sectors, fall_times, final_azimuths = oracle_ensemble(
        macro, n, 8, fall_threshold, seed, dt, max_steps, params
    )
    assert result.sectors.tobytes() == sectors.tobytes()
    assert result.fall_times.tobytes() == fall_times.tobytes()
    assert result.final_azimuths.tobytes() == final_azimuths.tobytes()
    return result


def bits(state):
    """The exact floats of a state, signed zeros included."""
    return tuple(float(v).hex() for v in (state.tilt, state.azimuth, state.tilt_momentum, state.azimuth_momentum))


def box(tilt, tilt_r, p_tilt_r, p_phi_r):
    return InitialMacrostate(
        center=PhaseState(tilt, math.pi, 0.0, 0.0),
        support_radii=(tilt_r, math.pi, p_tilt_r, p_phi_r),
    )


# fast-falling boxes: tilt well off the pole and dt = 1e-2
SPINNING = box(0.3, 0.25, 0.3, 0.2)  # p_phi != 0 for every member
# p_phi uniform on [-5e-324, 5e-324]: exact zeros mixed with the smallest
# subnormals, whose square underflows to 0 while the gate stays on
MIXED = box(0.3, 0.25, 0.3, 5e-324)
DAMPED = ConeParams(damping=0.05)


class TestBitIdentity:
    @pytest.mark.parametrize("macro", [SPINNING, MIXED], ids=["spinning", "mixed"])
    @pytest.mark.parametrize("params", [ConeParams(), DAMPED], ids=["undamped", "damped"])
    def test_ensemble_matches_original_loop(self, macro, params):
        result = run_both(macro, 60, 1.0, 21, 1e-2, 3000, params)
        assert result.n_unresolved < 60

    def test_mixed_box_really_mixes(self):
        p_phi = [sample_initial(MIXED, member_seed_sequence(21, m)).azimuth_momentum for m in range(60)]
        assert 0 < sum(p == 0.0 for p in p_phi) < 60

    def test_members_past_the_threshold_at_step_zero(self):
        result = run_both(box(1.0, 0.3, 0.3, 0.2), 40, 0.9, 5, 1e-2, 3000)
        assert 0 < np.count_nonzero(result.fall_times == 0.0) < 40

    def test_unresolved_members_match(self):
        result = run_both(SPINNING, 30, 1.0, 9, 1e-2, 120)
        assert 0 < result.n_unresolved < 30

    def test_default_cli_box_matches_original_loop(self):
        run_both(SYMMETRIC_MACRO, 12, 1.0, 3, 1e-3, 50_000)

    @pytest.mark.parametrize(
        "state",
        [
            PhaseState(0.0, 0.0, 0.0, 0.0),  # the exact equilibrium
            PhaseState(-0.0, 0.0, -0.0, -0.0),  # signed zeros
            PhaseState(0.5, 1.0, -0.3, -0.0),
            PhaseState(1e-6, 0.0, 0.0, 0.0),
            PhaseState(0.5, 1.0, -0.3, 0.0),
            PhaseState(0.5, 1.0, -0.3, 0.3),
            PhaseState(0.01, 0.5, -0.02, 1e-9),  # heads over the pole
        ],
    )
    @pytest.mark.parametrize("params", [ConeParams(), DAMPED], ids=["undamped", "damped"])
    def test_integrate_matches_original_step(self, state, params):
        out = bits(integrate(state, 1e-3, 700, params))
        assert out == bits(oracle_integrate(state, 1e-3, 700, params))
        # on these states no last-bit difference of pow reaches the result
        assert out == bits(oracle_integrate(state, 1e-3, 700, params, scalar=True))

    @pytest.mark.parametrize("state", [PhaseState(0.2, 1.0, -0.3, -0.0), PhaseState(-0.0, 1.0, -0.3, 0.3)])
    def test_integrate_zero_steps_is_the_readout(self, state):
        assert bits(integrate(state, 1e-3, 0)) == bits(oracle_integrate(state, 1e-3, 0))

    @pytest.mark.parametrize("params", [ConeParams(), DAMPED], ids=["undamped", "damped"])
    @pytest.mark.parametrize("n_probe", [8, 24])
    def test_liouville_matches_original_step(self, params, n_probe):
        for macro in (SYMMETRIC_MACRO, SPINNING):
            ratio = liouville_check(macro, 1e-3, 300, n_probe=n_probe, params=params)
            assert ratio == oracle_liouville(macro, 1e-3, 300, n_probe=n_probe, params=params)

    @settings(max_examples=25, deadline=None)
    @given(
        n_small=st.integers(1, 4),
        extra=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        p_phi_r=st.sampled_from([5e-324, 1e-8, 0.2]),
        damped=st.booleans(),
    )
    def test_member_outcome_does_not_depend_on_the_batch(self, n_small, extra, seed, p_phi_r, damped):
        # the members of a small ensemble are the first members of a larger
        # one; their outcomes must agree although the larger batch compacts
        # on a different schedule
        macro = box(0.3, 0.25, 0.3, p_phi_r)
        kw = dict(fall_threshold=1.0, seed=seed, dt=1e-2, max_steps=3000, params=DAMPED if damped else ConeParams())
        small = run_ensemble(macro, n_small, 8, **kw)
        large = run_ensemble(macro, n_small + extra, 8, **kw)
        for field in ("sectors", "fall_times", "final_azimuths"):
            assert np.array_equal(getattr(small, field), getattr(large, field)[:n_small], equal_nan=True)
