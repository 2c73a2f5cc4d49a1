import concurrent.futures  # noqa: F401  (loaded before any memory is traced)
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from block_helpers import force_cpus, public_calls_off_the_main_thread
from enslab import spinecho
from enslab.errors import ValidationError
from enslab.probcore import DiscreteDistribution, entropy
from enslab.spinecho import (
    FrequencySpread,
    SpinEnsemble,
    apply_pulse,
    binned_phase_entropy,
    evolve,
    _magnetization,
    init_ensemble,
    run_protocol,
)

NORMAL_UNIT = FrequencySpread(kind="normal", scale=1.0)


class TestInit:
    def test_fresh_ensemble_is_fully_magnetized(self):
        for n in (1, 10, 1000):
            assert _magnetization(init_ensemble(n, NORMAL_UNIT, 0).phases) == 1.0

    def test_zero_spread_gives_equal_frequencies(self):
        # both spreads are centred on 0
        for kind in ("normal", "uniform"):
            e = init_ensemble(100, FrequencySpread(kind=kind, scale=0.0), 1)
            assert np.all(e.frequencies == 0.0)

    def test_sampled_spread_width(self):
        e = init_ensemble(10_000, NORMAL_UNIT, 7)
        sigma = e.frequencies.std(ddof=1)
        assert abs(sigma - 1.0) < 3.0 / math.sqrt(2.0 * e.n_spins)  # 3 MC sigma

    def test_uniform_kind(self):
        e = init_ensemble(10_000, FrequencySpread(kind="uniform", scale=2.0), 3)
        assert e.frequencies.min() >= -2.0 and e.frequencies.max() < 2.0
        stat = stats.kstest((e.frequencies + 2.0) / 4.0, "uniform")
        assert stat.pvalue > 0.01

    def test_needs_a_spin(self):
        with pytest.raises(ValidationError):
            init_ensemble(0, NORMAL_UNIT, 0)


class TestEvolve:
    def test_zero_time_is_identity(self):
        e = evolve(init_ensemble(50, NORMAL_UNIT, 2), 1.3)
        np.testing.assert_array_equal(evolve(e, 0.0).phases, e.phases)

    def test_flow_property(self):
        e = init_ensemble(50, NORMAL_UNIT, 2)
        twice = evolve(evolve(e, 0.7), 1.1)
        direct = evolve(e, 1.8)
        np.testing.assert_allclose(twice.phases, direct.phases, atol=1e-12)

    def test_zero_spread_stays_magnetized(self):
        e = SpinEnsemble(np.full(500, 3.0), np.zeros(500))
        for t in (0.0, 1.0, 17.3):
            assert _magnetization(evolve(e, t).phases) == pytest.approx(1.0, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            evolve(init_ensemble(5, NORMAL_UNIT, 0), -1.0)


class TestPulse:
    def test_involution(self):
        e = evolve(init_ensemble(50, NORMAL_UNIT, 5), 2.0)
        np.testing.assert_array_equal(apply_pulse(apply_pulse(e)).phases, e.phases)

    def test_pulse_at_time_zero_changes_nothing_observable(self):
        e = init_ensemble(50, NORMAL_UNIT, 5)
        assert _magnetization(apply_pulse(e).phases) == _magnetization(e.phases) == 1.0

    def test_echo_cancels_phases_exactly(self):
        e = init_ensemble(200, NORMAL_UNIT, 8)
        tau = 37.25
        refocused = evolve(apply_pulse(evolve(e, tau)), tau)
        assert np.all(refocused.phases == 0.0)  # -(w*tau) + w*tau == 0 exactly


class TestProtocol:
    def test_headline_run(self):
        report = run_protocol(10_000, NORMAL_UNIT, 50.0, 32, seed=5)
        m_tau, s_tau = report.at(50.0)
        m_echo, _ = report.at(100.0)
        assert m_tau < 0.05
        assert s_tau > 0.95 * math.log(32)
        assert abs(m_echo - 1.0) < 1e-12
        assert report.magnetization[0] == 1.0
        assert np.all(report.binned_entropy >= 0.0)

    def test_zero_spread_flatlines(self):
        report = run_protocol(100, FrequencySpread(kind="normal", scale=0.0), 5.0, 8, seed=0)
        assert np.all(report.magnetization == 1.0)
        assert np.all(report.binned_entropy == report.binned_entropy[0])

    def test_single_spin(self):
        report = run_protocol(1, NORMAL_UNIT, 5.0, 8, seed=0)
        np.testing.assert_allclose(report.magnetization, 1.0, atol=1e-12)

    def test_refocusing_for_every_seed_and_spread(self):
        for seed, spread in ((0, NORMAL_UNIT), (1, FrequencySpread("uniform", 3.0)), (2, FrequencySpread("normal", 0.2))):
            report = run_protocol(500, spread, 12.5, 16, seed=seed)
            m_echo, _ = report.at(report.echo_time)
            assert m_echo == pytest.approx(1.0, abs=1e-12)

    def test_dephasing_envelope(self):
        # characteristic-function oracle: E exp(i w t) = exp(-sigma^2 t^2 / 2)
        t_grid = np.arange(0.25, 2.01, 0.25)
        mags = np.empty((30, t_grid.size))
        for seed in range(30):
            e = init_ensemble(10_000, NORMAL_UNIT, seed)
            for j, t in enumerate(t_grid):
                mags[seed, j] = _magnetization(evolve(e, float(t)).phases)
        envelope = np.exp(-0.5 * t_grid**2)
        se = mags.std(axis=0, ddof=1) / math.sqrt(mags.shape[0])
        assert np.all(np.abs(mags.mean(axis=0) - envelope) < 3.0 * se)

    def test_phases_near_uniform_at_tau(self):
        e = evolve(init_ensemble(10_000, NORMAL_UNIT, 9), 50.0)
        stat = stats.kstest(np.mod(e.phases, 2.0 * math.pi) / (2.0 * math.pi), "uniform")
        assert stat.pvalue > 0.01

    def test_binned_entropy_needs_two_bins(self):
        with pytest.raises(ValidationError):
            binned_phase_entropy(init_ensemble(10, NORMAL_UNIT, 0), 1)

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValidationError):
            run_protocol(10, NORMAL_UNIT, 0.0, 8, seed=0)


class TestEnsembleType:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            SpinEnsemble(frequencies=np.ones(3), phases=np.zeros(2))


def reference_sample(state, n_bins) -> tuple:
    """(magnetization, binned entropy) of one state, as first written."""
    counts, _ = np.histogram(np.mod(state.phases, 2.0 * math.pi), bins=n_bins, range=(0.0, 2.0 * math.pi))
    return (
        float(abs(np.mean(np.exp(1j * state.phases)))),
        entropy(DiscreteDistribution.from_weights(counts.astype(float))),
    )


def reference_protocol(n, spread, tau, n_bins, seed, samples_per_leg) -> tuple:
    """run_protocol's loop as first written: one sample at a time through the
    public ensembles. Returns (times, magnetization, binned entropy)."""
    base = init_ensemble(n, spread, seed)
    pulsed = apply_pulse(evolve(base, tau))
    rows = []
    for t in np.linspace(0.0, tau, samples_per_leg + 1):
        rows.append((float(t), *reference_sample(evolve(base, float(t)), n_bins)))
    for t in np.linspace(tau, 2.0 * tau, samples_per_leg + 1)[1:]:
        rows.append((float(t), *reference_sample(evolve(pulsed, float(t) - tau), n_bins)))
    return tuple(np.array(column) for column in zip(*rows))


class TestSplitProtocol:
    @pytest.mark.parametrize("spread", [NORMAL_UNIT, FrequencySpread("uniform", 2.5)])
    @pytest.mark.parametrize("samples_per_leg", [1, 4])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_bit_identical_to_a_serial_loop(self, cpus, samples_per_leg, spread, monkeypatch):
        # 3 or 9 samples in 1-3 blocks, 301 spins, 13 bins
        force_cpus(monkeypatch, cpus)
        before = threading.active_count()
        report = run_protocol(301, spread, 7.5, 13, seed=cpus, samples_per_leg=samples_per_leg)
        assert threading.active_count() == before
        times, mags, ents = reference_protocol(301, spread, 7.5, 13, cpus, samples_per_leg)
        assert report.times.tobytes() == times.tobytes()
        assert report.magnetization.tobytes() == mags.tobytes()
        assert report.binned_entropy.tobytes() == ents.tobytes()

    def test_public_functions_match_the_first_formulas(self):
        state = evolve(init_ensemble(1001, NORMAL_UNIT, 4), 3.25)
        assert (_magnetization(state.phases), binned_phase_entropy(state, 17)) == reference_sample(state, 17)

    def test_workers_call_no_public_function(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        calls = public_calls_off_the_main_thread(monkeypatch)
        run_protocol(50, NORMAL_UNIT, 2.0, 8, seed=1, samples_per_leg=3)
        assert calls == []
        worker = threading.Thread(target=spinecho.evolve, args=(init_ensemble(4, NORMAL_UNIT, 0), 1.0))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert calls == ["enslab.spinecho.evolve"]

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        before = threading.active_count()
        binned = spinecho._binned_entropy

        def failing_off_the_main_thread(phases, n_bins, out):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError(f"{phases.size} phases in a worker")
            return binned(phases, n_bins, out)

        monkeypatch.setattr(spinecho, "_binned_entropy", failing_off_the_main_thread)
        with pytest.raises(FloatingPointError, match="20 phases in a worker"):
            run_protocol(20, NORMAL_UNIT, 2.0, 8, seed=1, samples_per_leg=3)
        assert threading.active_count() == before

    def test_bin_check_keeps_its_message(self):
        with pytest.raises(ValidationError, match="need at least 2 bins, got 1"):
            run_protocol(10, NORMAL_UNIT, 2.0, 1, seed=0)

    def test_two_workers_peak_memory(self, monkeypatch):
        # two samples in flight, with the ensembles behind them, cost at most
        # twice one sample of the serial loop above (measured: 8.6-8.8 MB
        # against 2 x 4.8 MB at n = 1e5)
        force_cpus(monkeypatch, 2)
        n = 100_000
        base = init_ensemble(n, NORMAL_UNIT, 3)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            reference_sample(evolve(base, 7.0), 32)
            single = tracemalloc.get_traced_memory()[1] - start
            del base
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            run_protocol(n, NORMAL_UNIT, 7.0, 32, seed=3, samples_per_leg=2)
            split = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert split <= 2 * single
