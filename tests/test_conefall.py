import errno
import json
import math
import mmap
import os
import threading
import time
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.stats import chi2, kstest

from block_helpers import assert_no_child_left, counted_forks, force_cpus
from enslab import _blocks, cli, conefall
from enslab.conefall import (
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
from enslab.errors import NumericsError, ValidationError
from enslab.probcore import DiscreteDistribution, entropy


SYMMETRIC_MACRO = InitialMacrostate(
    center=PhaseState(tilt=0.01, azimuth=math.pi, tilt_momentum=0.0, azimuth_momentum=0.0),
    support_radii=(0.01, math.pi, 0.01, 1e-8),
)

CONE_DEFAULTS = {key: default for key, (_, default) in cli.SCHEMAS["cone"].items()}
# cone configs the CLI refuses for their flow or their box, with its message
REFUSED_CONE_CONFIGS = [
    ({"dt": 0.0}, "dt must be positive, got 0.0"),
    ({"dt": -1e-3}, "dt must be positive, got -0.001"),
    ({"dt": math.nan}, "dt must be positive, got nan"),
    ({"dt": math.inf}, "dt must be positive, got inf"),
    ({"damping": 1e4}, "damping=10000.0 at dt=0.001 is beyond RK4's stability limit damping*dt <= 2.785"),
    *[
        ({key: 1e300}, f"{key}=1e+300 overflows the kinetic energy p^2/(2 m l^2)")
        for key in ("tilt_momentum_radius", "azimuth_momentum_radius")
    ],
    ({"azimuth_radius": 1e308}, "azimuth_radius=1e+308 about 3.141592653589793 spans past the float range"),
]


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

    @pytest.mark.parametrize("damping", [-0.1, math.nan, math.inf])
    def test_damping_must_be_finite_and_nonnegative(self, damping):
        calls = (
            lambda: integrate(PhaseState(0.1, 0.0, 0.0, 0.0), 1e-3, 1, damping),
            lambda: run_ensemble(SYMMETRIC_MACRO, 1, 8, damping=damping),
            lambda: liouville_check(SYMMETRIC_MACRO, 1e-3, 0, damping=damping),
        )
        for call in calls:
            with pytest.raises(ValidationError, match="damping must be >= 0"):
                call()

    @pytest.mark.parametrize("entry", ["integrate", "run_ensemble", "liouville_check"])
    @pytest.mark.parametrize(
        "config, message",
        REFUSED_CONE_CONFIGS,
        ids=[
            "dt-0",
            "dt-negative",
            "dt-nan",
            "dt-inf",
            "damping-1e4",
            "tilt_momentum_radius",
            "azimuth_momentum_radius",
            "azimuth_radius",
        ],
    )
    def test_library_rejects_what_the_cli_rejects(self, entry, config, message, tmp_path, monkeypatch, capsys):
        # every entry point checks its flow before any work (liouville_check
        # before its zero-step shortcut), and the box is checked where it is
        # built; the CLI prints the same message wherever JSON holds the value
        def unreachable(*args, **kwargs):
            raise AssertionError("work began for a config that fails")

        monkeypatch.setattr(conefall, "sample_initial", unreachable)
        monkeypatch.setattr(conefall._Lockstep, "__init__", unreachable)
        p = {**CONE_DEFAULTS, **config}
        calls = {
            "integrate": lambda macro: integrate(macro.center, p["dt"], 1, p["damping"]),
            "run_ensemble": lambda macro: run_ensemble(macro, 1, 8, dt=p["dt"], damping=p["damping"]),
            "liouville_check": lambda macro: liouville_check(macro, p["dt"], 0, damping=p["damping"]),
        }
        radii = (p["tilt_radius"], p["azimuth_radius"], p["tilt_momentum_radius"], p["azimuth_momentum_radius"])
        with pytest.raises(ValidationError) as info:
            calls[entry](InitialMacrostate(PhaseState(p["tilt_center"], p["azimuth_center"], 0.0, 0.0), radii))
        assert str(info.value) == message
        if all(map(math.isfinite, config.values())):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(config))
            assert cli.main(["cone", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
            assert capsys.readouterr().err == f"invalid configuration: {message}\n"


class TestIntegrate:
    def test_equilibrium_is_a_fixed_point(self):
        eq = PhaseState(0.0, 0.0, 0.0, 0.0)
        out = integrate(eq, 1e-3, 1000)
        assert out == eq

    def test_equilibrium_keeps_tilt_and_momenta_at_zero(self):
        # at the pole the azimuth is undefined: it reads out from the signs of
        # the zero n_x and n_y, so only its range is pinned
        for azimuth in np.arange(65) * (2.0 * math.pi / 65):
            for steps in (0, 1, 1000):
                out = integrate(PhaseState(0.0, float(azimuth), 0.0, 0.0), 1e-3, steps)
                assert (out.tilt, out.tilt_momentum, out.azimuth_momentum) == (0.0, 0.0, 0.0)
                assert 0.0 <= out.azimuth < 2.0 * math.pi

    def test_azimuthal_equivariance(self):
        # rotation about the vertical mixes n_x and n_y, so the rotated run
        # agrees to rounding (measured: 7e-15), not bit for bit
        rotation = 2.0 * math.pi / 8.0
        base = PhaseState(0.01, 0.5, 0.005, 1e-9)
        rotated = PhaseState(0.01, 0.5 + rotation, 0.005, 1e-9)
        out_base = integrate(base, 1e-3, 5000)
        out_rot = integrate(rotated, 1e-3, 5000)
        assert out_rot.tilt == pytest.approx(out_base.tilt, abs=1e-12)
        assert out_rot.tilt_momentum == pytest.approx(out_base.tilt_momentum, abs=1e-12)
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

    @pytest.mark.parametrize("tilt", [0.0, -0.0])
    def test_azimuthal_momentum_at_the_pole_raises(self, tilt):
        # infinite energy: a numerics error, and no numpy warning on the way
        state = PhaseState(tilt, 1.0, -0.3, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError):
                hamiltonian(state)
            with pytest.raises(NumericsError):
                integrate(state, 1e-3, 10)


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
        assert entropy(DiscreteDistribution.from_weights(result.sector_counts)) > 0.0

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
        assert result.sector_counts.max() == 1

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

    def test_every_block_writes_nan_for_members_that_never_fall(self, monkeypatch):
        # steps of 1e-300 move no member: each forked block's fall times stay NaN
        force_cpus(monkeypatch, 3)
        result = run_ensemble(SYMMETRIC_MACRO, 10, 8, seed=5, dt=1e-300, max_steps=3)
        assert result.n_unresolved == 10
        assert np.all(np.isnan(result.fall_times))
        assert result.fall_time_stats() == {"count": 0}

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

    def test_dissipative_control_contracts(self):
        ratio = liouville_check(SYMMETRIC_MACRO, 1e-3, 1000, damping=0.1)
        assert ratio == pytest.approx(math.exp(-0.2), rel=1e-3)
        assert ratio < 0.99


class TestChiSquare:
    def test_exactly_uniform_counts_score_zero(self):
        assert chi_square_uniform([5, 5, 5, 5]) == 0.0

    def test_needs_observations(self):
        with pytest.raises(ValidationError):
            chi_square_uniform([0, 0])


# ---------------------------------------------------------------------------
# Physics oracles: closed forms, an adaptive integrator and conservation laws.
# ---------------------------------------------------------------------------


def starts(macro, seed, n):
    """The (4, n) canonical starts of an ensemble's members."""
    states = [sample_initial(macro, member_seed_sequence(seed, m)) for m in range(n)]
    return np.array([[s.tilt, s.azimuth, s.tilt_momentum, s.azimuth_momentum] for s in states]).T


def on_circle(angle):
    """An angle wrapped into [-pi, pi)."""
    return np.mod(np.asarray(angle) + math.pi, 2.0 * math.pi) - math.pi


@pytest.fixture(scope="module")
def default_box():
    """The CLI's default box, 1000 members of seed 3, at dt = 1e-3 and 1e-2."""
    runs = {dt: run_ensemble(SYMMETRIC_MACRO, 1000, 8, seed=3, dt=dt, max_steps=100_000) for dt in (1e-3, 1e-2)}
    return runs, starts(SYMMETRIC_MACRO, 3, 1000)


def linearized_deflection(start):
    """Fall azimuth minus start azimuth of the linearized saddle (g = l = m = 1).

    Near the pole x = theta (cos phi, sin phi) obeys x'' = x, so x grows
    along x(0) + x'(0): radial part theta0 + p_theta0, transverse part
    p_phi / sin theta0.
    """
    theta, _, p_theta, p_phi = start
    return np.arctan2(p_phi / np.sin(theta), theta + p_theta)


class TestFallOracles:
    @pytest.mark.parametrize("p0", [1e-6, -2e-6], ids=["away", "over-the-pole"])
    def test_linearized_saddle_closed_form(self, p0):
        # planar start near the pole: the signed tilt is theta0 cosh t + p0 sinh t,
        # and a sign change means the rod passed over the pole
        theta0, phi0 = 1e-6, 0.5
        for t in (0.5, 1.0, 2.0):
            out = integrate(PhaseState(theta0, phi0, p0, 0.0), 1e-3, round(t / 1e-3))
            signed = theta0 * math.cosh(t) + p0 * math.sinh(t)
            assert out.tilt == pytest.approx(abs(signed), rel=1e-6)
            expected = phi0 if signed > 0.0 else phi0 + math.pi
            assert abs(on_circle(out.azimuth - expected)) < 1e-9

    @pytest.mark.parametrize("dt, tol", [(1e-3, 1e-9), (1e-2, 1e-8)])
    def test_near_pole_passage_matches_solve_ivp(self, dt, tol):
        # p_phi != 0 turns the rod 1.9e-4 rad from the pole; the adaptive
        # oracle integrates the canonical equations, regular off the pole
        start = PhaseState(0.3, 1.0, -0.6, 1e-4)

        def rhs(t, y):
            s, c = math.sin(y[0]), math.cos(y[0])
            return [y[2], y[3] / s**2, y[3] ** 2 * c / s**3 + s, 0.0]

        sol = solve_ivp(rhs, (0.0, 2.0), [0.3, 1.0, -0.6, 1e-4], method="DOP853", rtol=1e-12, atol=1e-14)
        assert sol.y[0].min() < 2e-4
        tilt, azimuth, p_tilt, _ = sol.y[:, -1]
        out = integrate(start, dt, round(2.0 / dt))
        assert abs(out.tilt - tilt) < tol
        assert abs(on_circle(out.azimuth - azimuth)) < tol
        assert abs(out.tilt_momentum - p_tilt) < tol
        assert out.azimuth_momentum == start.azimuth_momentum

    def test_fall_azimuths_match_the_linearized_saddle(self, default_box):
        # every member, the over-the-pole ones included (worst measured: 8.1e-5
        # over seeds 3, 5 and 11)
        runs, start = default_box
        predicted = start[1] + linearized_deflection(start)
        assert np.abs(on_circle(runs[1e-3].final_azimuths - predicted)).max() < 1e-3

    def test_planar_sector_prediction(self, default_box):
        # the planar prediction: the sector of phi0, or of phi0 + pi when
        # theta0 + p_theta0 < 0. It holds outside the band around that
        # separatrix where p_phi turns the fall by 1e-2 rad or more, for
        # members at least 0.02 rad inside their sector
        runs, start = default_box
        theta, phi, p_theta, _ = start
        width = 2.0 * math.pi / 8
        planar = np.mod(np.where(theta + p_theta < 0.0, phi + math.pi, phi), 2.0 * math.pi)
        sectors = np.minimum(planar // width, 7)
        turn = np.abs(on_circle(2.0 * linearized_deflection(start)) / 2.0)
        inside = np.abs(on_circle(planar - (sectors + 0.5) * width)) < 0.5 * width - 0.02
        clear = (turn < 1e-2) & inside
        assert clear.mean() > 0.9
        np.testing.assert_array_equal(runs[1e-3].sectors[clear], sectors[clear])
        assert np.mean(runs[1e-3].sectors == sectors) >= 0.995

    def test_sectors_do_not_depend_on_dt(self, default_box):
        runs, start = default_box
        fine, coarse = runs[1e-3], runs[1e-2]
        np.testing.assert_array_equal(fine.sectors, coarse.sectors)
        over = start[0] + start[2] < 0.0
        assert over.sum() > 100
        for run in (fine, coarse):
            deflection = np.mod(run.final_azimuths[over] - start[1][over], 2.0 * math.pi)
            assert np.abs(deflection - math.pi).max() < 0.05

    def test_conserved_quantities_drift_at_rounding_level(self):
        # |n| = 1, L . n = 0 and the energy, over 5000 steps of the default
        # box (measured: 1.4e-14, 4.3e-15 and 8.8e-15)
        y0 = conefall._to_vector(*starts(SYMMETRIC_MACRO, 3, 300))
        kernel = conefall._Lockstep(y0, 1e-3, 0.0)
        for _ in range(5000):
            kernel.step()

        def invariants(y):
            L, n = y[:3], y[3:]
            return np.sqrt((n * n).sum(axis=0)), (L * n).sum(axis=0), 0.5 * (L * L).sum(axis=0) + n[2]

        norm, l_dot_n, energy = invariants(kernel.y)
        assert np.abs(norm - 1.0).max() < 1e-13
        assert np.abs(l_dot_n).max() < 1e-13
        assert np.abs(energy - invariants(y0)[2]).max() < 1e-13

    def test_norm_drift_is_reported(self, default_box):
        runs, _ = default_box
        assert 0.0 < runs[1e-3].max_norm_drift < 1e-13  # measured 1.8e-14
        assert runs[1e-3].max_norm_drift < runs[1e-2].max_norm_drift < 1e-9  # measured 7.5e-11

    @pytest.mark.parametrize("dt", [0.3, 10.0])
    def test_coarse_dt_raises_naming_dt(self, dt):
        # |n| at the falls drifts by 9.4e-5 at dt = 0.3 and is non-finite at dt = 10
        with pytest.raises(NumericsError, match="dt"):
            run_ensemble(SYMMETRIC_MACRO, 50, 8, seed=3, dt=dt, max_steps=1000)


# ---------------------------------------------------------------------------
# Bit identity of the buffered kernel against the textbook RK4 update.
#
# The lockstep kernel reorganizes the work (preallocated buffers, repeated
# rows, accumulation in place, fallen members parked and the batch compacted
# an eighth at a time)
# but must give every float the plain per-element RK4 update on the same
# vector-chart equations gives. The functions below are that update; they
# share only the chart maps with the module and drive a
# gather-step-scatter loop.
# ---------------------------------------------------------------------------


def _oracle_derivatives(y, d):
    lx, ly, lz, nx, ny, nz = y
    return np.array(
        [
            -ny - d * lx,
            nx - d * ly,
            0.0 - d * lz,
            ly * nz - lz * ny,
            lz * nx - lx * nz,
            lx * ny - ly * nx,
        ]
    )


def _oracle_rk4_step(y, dt, d):
    h = 0.5 * dt
    k1 = _oracle_derivatives(y, d)
    k2 = _oracle_derivatives(y + h * k1, d)
    k3 = _oracle_derivatives(y + h * k2, d)
    k4 = _oracle_derivatives(y + dt * k3, d)
    return y + dt / 6.0 * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)


def oracle_integrate(state, dt, steps, damping=0.0):
    start = ([v] for v in (state.tilt, state.azimuth, state.tilt_momentum, state.azimuth_momentum))
    y = conefall._to_vector(*start)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            y = _oracle_rk4_step(y, dt, damping)
    return PhaseState(*(float(v[0]) for v in conefall._to_canonical(y)))


def oracle_ensemble(macro, n, n_sectors, fall_threshold, seed, dt, max_steps, damping=0.0):
    """``run_ensemble`` as a plain loop: gather, step and scatter every step."""
    y = conefall._to_vector(*starts(macro, seed, n))
    cos2, sin2 = math.cos(fall_threshold) ** 2, math.sin(fall_threshold) ** 2

    def fell(idx):
        nx, ny, nz = y[3:, idx]
        return ~(cos2 * (nx * nx + ny * ny) < sin2 * (nz * np.abs(nz)))

    fall_steps = np.full(n, -1, dtype=np.int64)
    idx = np.arange(n)
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            down = fell(idx)
            fall_steps[idx[down]] = step
            idx = idx[~down]
            if idx.size == 0 or step >= max_steps:
                break
            y[:, idx] = _oracle_rk4_step(y[:, idx], dt, damping)
            step += 1
    resolved = fall_steps >= 0
    sectors = np.full(n, -1, dtype=np.int64)
    fall_times = np.full(n, np.nan)
    final_azimuths = np.full(n, np.nan)
    final_azimuths[resolved] = conefall._to_canonical(y[:, resolved])[1]
    sectors[resolved] = np.minimum(final_azimuths[resolved] // (2.0 * math.pi / n_sectors), n_sectors - 1)
    fall_times[resolved] = fall_steps[resolved] * dt
    return sectors, fall_times, final_azimuths


def oracle_liouville(macro, dt, steps, n_probe=8, damping=0.0, probe_scale=1e-6):
    """``liouville_check`` for ``steps`` >= 1, one plain RK4 loop per bundle."""
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
        y = conefall._to_vector(*probes)
        for _ in range(int(steps)):
            y = _oracle_rk4_step(y, dt, damping)
        flowed = np.vstack(conefall._to_canonical(y))
        jac = np.empty((4, 4))
        for axis in range(4):
            diff = flowed[:, 2 * axis] - flowed[:, 2 * axis + 1]
            diff[1] = on_circle(diff[1])
            jac[:, axis] = diff / (2.0 * h[axis])
        dets.append(float(abs(np.linalg.det(jac))))
    return float(np.mean(dets))


def run_both(macro, n, fall_threshold, seed, dt, max_steps, damping=0.0):
    """``run_ensemble`` over 8 sectors, asserted equal to the plain loop."""
    result = run_ensemble(
        macro, n, 8, fall_threshold=fall_threshold, seed=seed, dt=dt, max_steps=max_steps, damping=damping
    )
    sectors, fall_times, final_azimuths = oracle_ensemble(
        macro, n, 8, fall_threshold, seed, dt, max_steps, damping
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
# p_phi uniform on [-5e-324, 5e-324]: exact zeros, whose e_theta term at
# entry is skipped, mixed with the smallest subnormals
MIXED = box(0.3, 0.25, 0.3, 5e-324)
DAMPED = 0.05
TINY = 1e-300  # damped, but below every increment


class TestBitIdentity:
    @pytest.mark.parametrize("macro", [SPINNING, MIXED], ids=["spinning", "mixed"])
    @pytest.mark.parametrize("damping", [0.0, DAMPED], ids=["undamped", "damped"])
    def test_ensemble_matches_original_loop(self, macro, damping):
        result = run_both(macro, 60, 1.0, 21, 1e-2, 3000, damping)
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
    @pytest.mark.parametrize("damping", [0.0, DAMPED], ids=["undamped", "damped"])
    def test_integrate_matches_original_step(self, state, damping):
        assert bits(integrate(state, 1e-3, 700, damping)) == bits(oracle_integrate(state, 1e-3, 700, damping))

    @pytest.mark.parametrize("state", [PhaseState(0.2, 1.0, -0.3, -0.0), PhaseState(0.5, 6.0, 0.3, -0.3)])
    def test_integrate_zero_steps_is_the_readout(self, state):
        # zero steps: the chart round trip, which returns the state to rounding
        out = integrate(state, 1e-3, 0)
        assert bits(out) == bits(oracle_integrate(state, 1e-3, 0))
        assert (out.tilt, out.azimuth, out.tilt_momentum) == pytest.approx(
            (state.tilt, state.azimuth, state.tilt_momentum), abs=1e-15
        )
        assert out.azimuth_momentum == state.azimuth_momentum

    @pytest.mark.parametrize("damping", [0.0, DAMPED], ids=["undamped", "damped"])
    def test_liouville_matches_original_step(self, damping):
        signed_zeros = InitialMacrostate(PhaseState(0.3, -0.0, -0.0, -0.0), (0.25, 1.0, 0.3, 0.2))
        for macro in (SYMMETRIC_MACRO, SPINNING, signed_zeros):
            ratio = liouville_check(macro, 1e-3, 300, damping=damping)
            assert ratio == oracle_liouville(macro, 1e-3, 300, n_probe=8, damping=damping)

    def test_tiny_damping_takes_the_damped_plan(self):
        # any damping > 0 binds the damping term, however small its effect
        result = run_both(SPINNING, 60, 1.0, 21, 1e-2, 3000, TINY)
        assert result.n_unresolved < 60 and result.max_energy_drift is None
        for state in (PhaseState(0.0, math.pi, 0.0, 0.0), PhaseState(0.5, 1.0, -0.3, 0.3)):
            assert bits(integrate(state, 1e-3, 700, TINY)) == bits(oracle_integrate(state, 1e-3, 700, TINY))
        ratio = liouville_check(SPINNING, 1e-3, 300, damping=TINY)
        assert ratio == oracle_liouville(SPINNING, 1e-3, 300, damping=TINY)

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
        kw = dict(fall_threshold=1.0, seed=seed, dt=1e-2, max_steps=3000, damping=DAMPED if damped else 0.0)
        small = run_ensemble(macro, n_small, 8, **kw)
        large = run_ensemble(macro, n_small + extra, 8, **kw)
        for field in ("sectors", "fall_times", "final_azimuths"):
            assert np.array_equal(getattr(small, field), getattr(large, field)[:n_small], equal_nan=True)


def assert_plans_bound(kernel):
    """Every operand of both call plans is a 0-d constant, the broadcast
    torque sign, or a view of the kernel's buffers over its current batch."""
    for plan in (kernel._step_plan, kernel._fall_plan):
        for _, operands in plan:
            for op in operands:
                assert isinstance(op, np.ndarray)
                if op.ndim == 0 or op is kernel._torque_sign:
                    continue
                assert op.shape[-1] == kernel.n
                assert any(op.base is buf for buf in kernel._buf.values())


def step_plan_shape(kernel):
    """The step plan's length and how many of its operands are the damping
    constant, after checking (on a batch that is not empty) that every
    operand of both plans is C-contiguous but the reversed (n_y, n_x) view
    of the torque, one per derivative."""
    operands = [op for _, ops in kernel._step_plan for op in ops]
    if kernel.n:
        strided = [op for op in operands if not op.flags.c_contiguous]
        assert len(strided) == 4 and all(op.strides == (-8 * kernel.n, 8) for op in strided)
        assert all(op.flags.c_contiguous for _, ops in kernel._fall_plan for op in ops)
    return len(kernel._step_plan), sum(op is kernel._damping for op in operands)


def check_every_binding(monkeypatch, check):
    """Call ``check(kernel)`` after each kernel construction and each
    ``compact``; returns the list of batch sizes, appended as they come."""
    sizes = []
    init, compact = conefall._Lockstep.__init__, conefall._Lockstep.compact

    def checked_init(kernel, *args):
        init(kernel, *args)
        check(kernel)
        sizes.append(kernel.n)

    def checked_compact(kernel, keep):
        compact(kernel, keep)
        check(kernel)
        sizes.append(kernel.n)

    monkeypatch.setattr(conefall._Lockstep, "__init__", checked_init)
    monkeypatch.setattr(conefall._Lockstep, "compact", checked_compact)
    return sizes


class TestCallPlans:
    @pytest.mark.parametrize("damping, shape", [(0.0, (37, 0)), (DAMPED, (45, 4)), (TINY, (45, 4))])
    def test_step_plan_shape_after_every_compaction(self, damping, shape, monkeypatch):
        def check(kernel):
            assert step_plan_shape(kernel) == shape

        sizes = check_every_binding(monkeypatch, check)
        run_both(SPINNING, 40, 1.0, 7, 1e-2, 3000, damping)
        assert sizes[0] == 40 and sizes[-1] == 0 and len(sizes) > 5

    def test_plans_follow_every_compaction(self, monkeypatch):
        sizes = check_every_binding(monkeypatch, assert_plans_bound)
        result = run_both(SPINNING, 40, 1.0, 7, 1e-2, 3000)
        assert sizes[0] == 40 and sizes[-1] == result.n_unresolved == 0 and len(sizes) > 5
        assert sizes == sorted(sizes, reverse=True)

    def test_upright_reads_the_thresholds_of_each_call(self):
        kernel = conefall._Lockstep(conefall._to_vector(*starts(SPINNING, 5, 30)), 1e-2, 0.0)
        nx, ny, nz = kernel.y[3:]
        results = []
        for threshold in (0.2, 0.4, 0.2):
            cos2, sin2 = math.cos(threshold) ** 2, math.sin(threshold) ** 2
            results.append(kernel.upright(cos2, sin2).copy())
            assert np.array_equal(results[-1], cos2 * (nx * nx + ny * ny) < sin2 * (nz * np.abs(nz)))
        assert 0 < results[0].sum() < results[1].sum() < 30
        assert np.array_equal(results[0], results[2])

    def test_liouville_bundles_share_one_batch(self, monkeypatch):
        sizes = []
        init = conefall._Lockstep.__init__

        def counted_init(kernel, y, *args):
            sizes.append(y.shape[1])
            init(kernel, y, *args)

        monkeypatch.setattr(conefall._Lockstep, "__init__", counted_init)
        liouville_check(SYMMETRIC_MACRO, 1e-3, 10)
        assert sizes == [8]


class TestParking:
    @pytest.mark.parametrize("damping", [0.0, DAMPED], ids=["undamped", "damped"])
    def test_a_parked_column_stays_put(self, damping):
        y = conefall._to_vector(*starts(SPINNING, 5, 30))
        parked = np.zeros(30, dtype=bool)
        parked[[0, 3, 4, 17, 29]] = True
        kernel = conefall._Lockstep(y, 1e-2, damping)
        alone = conefall._Lockstep(y[:, ~parked], 1e-2, damping)
        kernel.park(np.flatnonzero(parked))
        before = kernel._state[:, parked].copy()
        with np.errstate(all="ignore"):
            for _ in range(10_000):
                kernel.step()
                alone.step()
        assert kernel._state[:, parked].tobytes() == before.tobytes()
        assert np.array_equal(kernel.y[:, parked], np.tile([[0.0]] * 5 + [[-1.0]], parked.sum()))
        for threshold in (0.2, 1.0, 1.5):
            assert not kernel.upright(math.cos(threshold) ** 2, math.sin(threshold) ** 2)[parked].any()
        hexes = lambda a: [float(v).hex() for v in a.ravel()]  # noqa: E731
        assert hexes(kernel.y[:, ~parked]) == hexes(alone.y)

    def test_compactions_are_bounded(self, monkeypatch):
        # a block compacts once an eighth of its batch is parked, so each
        # compaction leaves at most 7/8 of the batch before it
        force_cpus(monkeypatch, 1)
        sizes = check_every_binding(monkeypatch, lambda kernel: None)
        result = run_ensemble(SYMMETRIC_MACRO, 2000, 8, seed=3, dt=1e-2, max_steps=50_000)
        assert result.n_unresolved == 0 and sizes[0] == 2000
        assert len(sizes) - 1 <= math.ceil(math.log(2000) / math.log(8 / 7)) + 2


class TestEnergyDrift:
    def test_matches_the_hamiltonian_at_start_and_fall(self):
        # the start energy from hamiltonian, the energy at the fall from the
        # textbook loop's chart state (canonical coordinates would drop the
        # drift of L . n); they differ from the run's start energy by
        # rounding at most
        macro, seed, dt = SPINNING, 21, 1e-2
        result = run_ensemble(macro, 6, 8, seed=seed, dt=dt, max_steps=3000)
        begin, drifts = starts(macro, seed, 6), []
        for m, fall_time in enumerate(result.fall_times):
            y = conefall._to_vector(*begin[:, m : m + 1])
            for _ in range(round(fall_time / dt)):
                y = _oracle_rk4_step(y, dt, 0.0)
            L, n = y[:3, 0], y[3:, 0]
            drifts.append(abs(0.5 * (L * L).sum() + n[2] - hamiltonian(PhaseState(*begin[:, m]))))
        assert result.n_unresolved == 0
        assert result.max_energy_drift == pytest.approx(max(drifts), rel=0.0, abs=1e-15)
        assert result.max_energy_drift > 1e-13

    def test_rounding_level_on_the_default_box(self, default_box):
        runs, _ = default_box
        assert 0.0 < runs[1e-3].max_energy_drift < 1e-12  # measured 1.4e-14
        assert runs[1e-3].max_energy_drift < runs[1e-2].max_energy_drift  # measured 2.8e-11

    def test_none_with_damping_and_zero_without_falls(self):
        assert run_ensemble(SPINNING, 7, 8, seed=21, dt=1e-2, max_steps=3000, damping=DAMPED).max_energy_drift is None
        assert run_ensemble(SYMMETRIC_MACRO, 16, 8, seed=5, max_steps=10).max_energy_drift == 0.0

    def test_does_not_depend_on_the_cpu_count(self, monkeypatch):
        drifts = set()
        for cpus in (1, 2, 3):
            force_cpus(monkeypatch, cpus)
            drifts.add(run_ensemble(SPINNING, 7, 8, seed=21, dt=1e-2, max_steps=3000).max_energy_drift.hex())
            assert_no_child_left()
        assert len(drifts) == 1


# ---------------------------------------------------------------------------
# Forked blocks: run_ensemble splits its members into one block per CPU,
# block 0 in this process and each other block in a child made by os.fork.
# ---------------------------------------------------------------------------


def result_bits(result):
    """Every array of an EnsembleResult as bytes, and its scalars exactly."""
    arrays = ("sector_counts", "sectors", "fall_times", "final_azimuths", "member_seeds")
    return {
        **{name: getattr(result, name).tobytes() for name in arrays},
        "n_unresolved": result.n_unresolved,
        "max_norm_drift": result.max_norm_drift.hex(),
    }


class TestForkedBlocks:
    @pytest.mark.parametrize(
        "macro, n, seed, max_steps, damping",
        [
            pytest.param(SPINNING, 7, 21, 3000, 0.0, id="uneven-undamped"),
            pytest.param(MIXED, 7, 21, 3000, DAMPED, id="uneven-damped"),
            pytest.param(SPINNING, 30, 9, 120, 0.0, id="unresolved"),
        ],
    )
    def test_results_do_not_depend_on_the_cpu_count(self, macro, n, seed, max_steps, damping, monkeypatch):
        forks = counted_forks(monkeypatch)
        results = []
        for cpus in (1, 2, 3):
            force_cpus(monkeypatch, cpus)
            forks.clear()
            # run_both also holds each result to the textbook RK4 loop
            results.append(result_bits(run_both(macro, n, 1.0, seed, 1e-2, max_steps, damping)))
            assert len(forks) == cpus - 1
            assert_no_child_left()
        assert results[0] == results[1] == results[2]
        unresolved = results[0]["n_unresolved"]
        assert 0 < unresolved < n if max_steps == 120 else unresolved == 0

    def test_coarse_dt_names_dt_on_every_cpu_count(self, monkeypatch):
        messages = set()
        for cpus in (1, 2, 3):
            force_cpus(monkeypatch, cpus)
            with pytest.raises(NumericsError, match=r"^dt=0\.3 is too coarse") as info:
                run_ensemble(SYMMETRIC_MACRO, 50, 8, seed=3, dt=0.3, max_steps=1000)
            messages.add(str(info.value))  # the drift, to the last printed digit
            assert_no_child_left()
        assert len(messages) == 1

    def test_a_failed_child_raises_naming_its_members(self, monkeypatch, tmp_path, capsys):
        force_cpus(monkeypatch, 3)
        parent, step = os.getpid(), conefall._Lockstep.step

        def failing_in_a_child(kernel):
            if os.getpid() != parent:
                raise FloatingPointError("a failing step")
            step(kernel)

        monkeypatch.setattr(conefall._Lockstep, "step", failing_in_a_child)
        # 7 members on 3 CPUs: blocks 0..1, 2..3 and 4..6; the lowest failed one is named
        message = "members 2..3 failed in a forked process (exit status 1)"
        with pytest.raises(NumericsError) as info:
            run_ensemble(SPINNING, 7, 8, seed=21, dt=1e-2, max_steps=3000)
        assert str(info.value) == message
        assert_no_child_left()
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_members": 7, "dt": 1e-2}))
        out = tmp_path / "o"
        capsys.readouterr()
        assert cli.main(["cone", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"numerics error: {message}\n"
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("error", [FloatingPointError, KeyboardInterrupt])
    def test_a_failure_here_kills_and_reaps_the_children(self, error, monkeypatch):
        # each child's one step takes 20 s; the error reaches the caller
        # within 5 s, and every child is gone
        force_cpus(monkeypatch, 3)
        parent = os.getpid()

        def failing_here(kernel):
            if os.getpid() == parent:
                raise error("a failing step")
            time.sleep(20.0)

        monkeypatch.setattr(conefall._Lockstep, "step", failing_here)
        start = time.monotonic()
        with pytest.raises(error, match="a failing step"):
            run_ensemble(SPINNING, 7, 8, seed=21, dt=1e-2, max_steps=1)
        assert time.monotonic() - start < 5.0
        assert_no_child_left()

    def test_no_fork_below_the_floor_beside_a_thread_or_without_fork(self, monkeypatch):
        def refused():
            raise AssertionError("os.fork was called")

        def run():
            return result_bits(run_ensemble(SPINNING, n, 8, seed=21, dt=1e-2, max_steps=200))

        monkeypatch.setattr(_blocks.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "fork", refused)
        n = 2 * _blocks._MIN_FORKED_BLOCK - 1  # one block short of two full ones
        below_the_floor = run()
        monkeypatch.setattr(_blocks, "_MIN_FORKED_BLOCK", 1)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            beside_a_thread = run()
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        monkeypatch.delattr(os, "fork")
        assert below_the_floor == beside_a_thread == run()

    def test_a_refused_fork_runs_its_block_here(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        expected = result_bits(run_ensemble(SPINNING, 7, 8, seed=21, dt=1e-2, max_steps=3000))
        forks = []
        fork = os.fork

        def refuse_the_second():
            forks.append(len(forks))
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", refuse_the_second)
        assert result_bits(run_ensemble(SPINNING, 7, 8, seed=21, dt=1e-2, max_steps=3000)) == expected
        assert forks == [0, 1]

    def test_a_block_whose_parent_is_gone_stops(self):
        # a child polls its parent's id every 1024 steps; these members fall
        # after about 7000 steps, so the block stops with none fallen
        table = np.zeros((9, 4))
        block = partial(
            conefall._fall_block,
            macro=SYMMETRIC_MACRO,
            seed=3,
            fall_threshold=1.0,
            dt=1e-3,
            max_steps=10**6,
            damping=0.0,
        )
        with pytest.raises(SystemExit):
            block(table, 0, 4, -1)
        assert np.all(np.isnan(table[1]))
        block(table, 0, 4, os.getppid())
        assert np.all(table[1] > 1024 * 1e-3)

    def test_a_refused_mapping_is_out_of_memory(self, monkeypatch):
        # a size numpy refuses fails first, with numpy's own message (the
        # CLI's test_unallocatable_size_exits_three); past numpy, a shared
        # table the OS cannot map is out of memory too
        class Refused:
            def __init__(self, fileno, length):
                raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", Refused)
        with pytest.raises(MemoryError, match=f"^Unable to map {72 * 5} bytes"):
            run_ensemble(SYMMETRIC_MACRO, 5, 8)
