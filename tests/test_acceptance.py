"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import chi2, multivariate_normal, norm

from enslab import cli
from enslab.conefall import (
    InitialMacrostate,
    PhaseState,
    chi_square_uniform,
    liouville_check,
    run_ensemble,
)
from enslab.measurement import (
    SystemState,
    build_apparatus,
    entropy_ledger,
    offdiag_suppression,
    outcome_fractions,
    sample_outcomes,
)
from enslab.probcore import (
    DiscreteDistribution,
    EnergyLevels,
    canonical,
    decompose,
    entropy,
    info_decompose,
    mean_energy,
)
from enslab.randomfield import (
    CovarianceSpec,
    FieldSample,
    generate,
    hierarchical_average,
    indicator,
    isotropy_report,
    one_point_prob,
    pair_counts,
)
from enslab.spinecho import FrequencySpread, evolve, init_ensemble, magnetization, run_protocol
from partition_helpers import random_partition, tilt_rows_to_mean

PHI_BAND = 0.682689492137086  # Phi(1) - Phi(-1), Normal-CDF oracle


def auto_counts(field, band):
    ind = indicator(field, band)
    return pair_counts(ind, ind)


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {number}: {name} failed ({detail})"


def test_01_entropy_decomposition_identity():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        joint = random_partition(rng, max_states=10_000)
        dec = decompose(joint)
        worst = max(worst, abs(dec.total - dec.coarse - dec.residual))
    report(
        1,
        "entropy decomposition identity, 1000 random partitions",
        worst <= 1e-12,
        f"max defect {worst:.2e}, {time.time() - t0:.1f}s",
    )


def test_02_information_decomposition_identity():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        joint = random_partition(rng, max_states=10_000)
        s_max_coarse = math.log(len(joint.blocks)) + rng.random()
        s_max_cond = [math.log(vec.size) + rng.random() for _, vec in joint.blocks]
        out = info_decompose(joint, s_max_coarse, s_max_cond)
        worst = max(worst, abs(out.total - out.coarse - out.residual))
    report(
        2,
        "information decomposition identity, matched bounds",
        worst <= 1e-12,
        f"max defect {worst:.2e}, {time.time() - t0:.1f}s",
    )


def test_03_canonical_maximality_and_kkt():
    t0 = time.time()
    rng = np.random.default_rng(1003)
    min_margin = math.inf
    worst_kkt = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 11))
        energies = np.sort(rng.uniform(0.0, 3.0, n))
        temperature = float(rng.uniform(0.5, 2.0))
        levels = EnergyLevels(energies, temperature)
        p = canonical(levels).probs
        target = float(p @ energies)
        kkt = np.log(p) + energies / temperature
        worst_kkt = max(worst_kkt, float(kkt.max() - kkt.min()))
        perturbed = p[None, :] * np.exp(0.3 * rng.standard_normal((1000, n)))
        perturbed /= perturbed.sum(axis=1, keepdims=True)
        tilted = tilt_rows_to_mean(perturbed, energies, target)
        s_rows = -np.sum(tilted * np.log(tilted), axis=1)
        min_margin = min(min_margin, float(entropy(canonical(levels)) - s_rows.max()))
    ok = min_margin > 0.0 and worst_kkt <= 1e-10
    report(
        3,
        "canonical maximality over 20x1000 perturbations + KKT constancy",
        ok,
        f"min margin {min_margin:.2e}, max KKT spread {worst_kkt:.2e}, {time.time() - t0:.1f}s",
    )


def test_04_thermodynamic_identity():
    t0 = time.time()
    energies = np.array([0.0, 0.7, 1.3, 2.1, 3.4])
    worst = 0.0
    for temperature in (0.2, 0.5, 1.0, 2.0, 5.0):
        h = 1e-3 * temperature
        s_plus = entropy(canonical(EnergyLevels(energies, temperature + h)))
        s_minus = entropy(canonical(EnergyLevels(energies, temperature - h)))
        e_plus = mean_energy(EnergyLevels(energies, temperature + h))
        e_minus = mean_energy(EnergyLevels(energies, temperature - h))
        ds_de = (s_plus - s_minus) / (e_plus - e_minus)
        worst = max(worst, abs(ds_de * temperature - 1.0))
    report(
        4,
        "thermodynamic identity dS/dE = 1/T by centered differences",
        worst <= 1e-4,
        f"max relative error {worst:.2e}, {time.time() - t0:.1f}s",
    )


def test_05_fractional_volume_and_hierarchy():
    t0 = time.time()
    spec = CovarianceSpec()
    estimates = []
    epsilons = []
    for seed in range(50):
        field = generate(spec, 2, 243, seed)
        estimates.append(one_point_prob(field, (-1.0, 1.0)))
        rep = hierarchical_average(indicator(field, (-1.0, 1.0)), 5)
        epsilons.append([e for e in rep.epsilons if e is not None])
    estimates = np.array(estimates)
    se = estimates.std(ddof=1) / math.sqrt(estimates.size)
    mean_eps = np.array(epsilons).mean(axis=0)
    ok_prob = abs(estimates.mean() - PHI_BAND) < 3.0 * se
    ok_eps = bool(np.all(mean_eps > 0.0) and np.all(np.diff(mean_eps) < 0.0))
    report(
        5,
        "one-point fractional volume vs Normal-CDF oracle + epsilon decay",
        ok_prob and ok_eps,
        f"|mean-oracle| {abs(estimates.mean() - PHI_BAND):.2e} vs 3sigma {3 * se:.2e}, "
        f"mean eps {np.array2string(mean_eps, precision=3)}, {time.time() - t0:.1f}s",
    )


def test_06_isotropy_null_band_and_control():
    t0 = time.time()
    band = (-1.0, 1.0)
    spec = CovarianceSpec()
    null = np.array(
        [isotropy_report(auto_counts(generate(spec, 2, 243, s), band), 1.5).spread for s in range(30)]
    )
    held_out = isotropy_report(auto_counts(generate(spec, 2, 243, 500), band), 1.5).spread
    bump = CovarianceSpec(variance=1.0, spectrum="gaussian_bump", center=8.0, width=2.0)
    g = generate(bump, 1, 243, 99)
    control = FieldSample(
        dim=2,
        side=243,
        values=np.broadcast_to(g.values[:, None], (243, 243)).copy(),
        spacing=1.0,
        seed=99,
        spec=bump,
    )
    control_spread = isotropy_report(auto_counts(control, band), 1.5).spread
    band_limit = 1.5 * float(null.max())
    ok = held_out <= band_limit and control_spread > band_limit
    report(
        6,
        "direction estimates agree within MC null band; anisotropic control rejected",
        ok,
        f"held-out {held_out:.2e} <= band {band_limit:.2e} < control {control_spread:.2e}, "
        f"{time.time() - t0:.1f}s",
    )


def test_07_offdiag_suppression_scaling():
    t0 = time.time()
    m_values = (100, 1000, 10_000)
    medians = []
    p99 = {}
    for m in m_values:
        mags = np.array(
            [offdiag_suppression(build_apparatus(m, 2, seed), 0, 1) for seed in range(1000)]
        )
        medians.append(float(np.median(mags)))
        p99[m] = float(np.percentile(mags, 99))
    slope = float(np.polyfit(np.log(m_values), np.log(medians), 1)[0])
    ok = -0.6 <= slope <= -0.4 and p99[10_000] < 0.05
    report(
        7,
        "off-diagonal suppression scales as M^p with p in [-0.6,-0.4]; p99 < 0.05",
        ok,
        f"fitted p {slope:.3f}, p99(M=1e4) {p99[10_000]:.4f}, {time.time() - t0:.1f}s",
    )


def test_08_born_rule_fractions_and_sampling():
    t0 = time.time()
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 9))
        z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        z /= np.linalg.norm(z)
        system = SystemState(z)
        apparatus = build_apparatus(32, k, 1)
        fractions = outcome_fractions(system, apparatus)
        worst = max(worst, float(np.abs(fractions.probs - np.abs(z) ** 2).max()))
    system = SystemState([0.6, 0.8])
    apparatus = build_apparatus(64, 2, 2)
    sigma = math.sqrt(10_000 * 0.36 * 0.64)
    passed = 0
    for seed in range(500):
        counts = sample_outcomes(system, apparatus, 10_000, seed=seed)
        if abs(counts[0] - 3600.0) <= 3.0 * sigma:
            passed += 1
    ok = worst <= 1e-12 and passed >= 495
    report(
        8,
        "outcome fractions equal |c_k|^2 exactly; sampling passes 3-sigma bands",
        ok,
        f"max fraction defect {worst:.2e}, {passed}/500 seeds in band, {time.time() - t0:.1f}s",
    )


def test_09_entropy_ledger_balance():
    t0 = time.time()
    rng = np.random.default_rng(1009)
    worst_identity = 0.0
    ok_bound = True
    ok_trend = True
    small_defects, large_defects = [], []
    for _ in range(5):
        k = int(rng.integers(2, 6))
        z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        system = SystemState(z / np.linalg.norm(z))
        defects = {}
        for n in (1000, 1024, 10_000):
            ledger = entropy_ledger(system, n)
            worst_identity = max(
                worst_identity,
                abs(ledger.final_total - ledger.final_coarse - ledger.final_residual),
            )
            if abs(ledger.final_total - ledger.initial_total) > ledger.rounding_defect + 1e-12:
                ok_bound = False
            defects[n] = ledger.rounding_defect
        # defect tends to zero with n: never grows (ties allowed for exactly
        # representable fractions), and shrinks strictly on average
        if defects[10_000] > defects[1000] + 1e-12:
            ok_trend = False
        small_defects.append(defects[1000])
        large_defects.append(defects[10_000])
    ok_trend = ok_trend and float(np.mean(large_defects)) < float(np.mean(small_defects))
    ok = worst_identity <= 1e-12 and ok_bound and ok_trend
    report(
        9,
        "ledger identity, defect bound, defect shrinking with n",
        ok,
        f"max identity defect {worst_identity:.2e}, trend ok {ok_trend}, {time.time() - t0:.1f}s",
    )


def test_10_cone_ensemble():
    t0 = time.time()
    macro = InitialMacrostate(
        center=PhaseState(tilt=0.01, azimuth=math.pi, tilt_momentum=0.0, azimuth_momentum=0.0),
        support_radii=(0.01, math.pi, 0.01, 1e-8),
    )
    base = run_ensemble(macro, 8000, 8, seed=11, max_steps=100_000)
    stat = chi_square_uniform(base.sector_counts)
    ok_uniform = base.n_unresolved == 0 and stat < chi2.ppf(0.99, 7)
    ratio = liouville_check(macro, 1e-3, 1000)
    ok_liouville = abs(ratio - 1.0) <= 1e-4
    width = 2.0 * math.pi / 8.0
    rotated_macro = InitialMacrostate(
        center=PhaseState(
            tilt=0.01,
            azimuth=(math.pi + width) % (2.0 * math.pi),
            tilt_momentum=0.0,
            azimuth_momentum=0.0,
        ),
        support_radii=(0.01, math.pi, 0.01, 1e-8),
    )
    rotated = run_ensemble(rotated_macro, 8000, 8, seed=11, max_steps=100_000)
    l1 = int(np.abs(rotated.sector_counts - np.roll(base.sector_counts, 1)).sum())
    ok_equivariant = l1 <= 4
    ok = ok_uniform and ok_liouville and ok_equivariant
    report(
        10,
        "cone sector uniformity, Liouville ratio, rotation equivariance",
        ok,
        f"chi2 {stat:.2f} < {chi2.ppf(0.99, 7):.2f}, |ratio-1| {abs(ratio - 1):.2e}, "
        f"rotation L1 {l1}, {time.time() - t0:.1f}s",
    )


def test_11_spin_echo():
    t0 = time.time()
    spread = FrequencySpread(kind="normal", scale=1.0)
    rep = run_protocol(10_000, spread, 50.0, 32, seed=5)
    m_tau, s_tau = rep.at(50.0)
    m_echo, _ = rep.at(100.0)
    ok_headline = m_tau < 0.05 and s_tau > 0.95 * math.log(32) and abs(m_echo - 1.0) <= 1e-12
    t_grid = np.arange(0.25, 2.01, 0.25)
    mags = np.empty((20, t_grid.size))
    for seed in range(20):
        ens = init_ensemble(10_000, spread, seed)
        for j, t in enumerate(t_grid):
            mags[seed, j] = magnetization(evolve(ens, float(t)))
    envelope = np.exp(-0.5 * t_grid**2)
    se = mags.std(axis=0, ddof=1) / math.sqrt(mags.shape[0])
    ok_envelope = bool(np.all(np.abs(mags.mean(axis=0) - envelope) < 3.0 * se))
    ok = ok_headline and ok_envelope
    report(
        11,
        "spin echo: dephasing, near-maximal binned entropy, exact refocus, envelope",
        ok,
        f"M(tau) {m_tau:.4f}, S_b(tau) {s_tau:.3f} vs 0.95 ln32 {0.95 * math.log(32):.3f}, "
        f"|M(2tau)-1| {abs(m_echo - 1):.1e}, {time.time() - t0:.1f}s",
    )


def test_12_cli_reproducibility(tmp_path):
    t0 = time.time()
    configs = {
        "entropy": {},
        "field": {"side": 81, "max_level": 4, "two_point_r": [1.0], "isotropy_r": 1.5},
        "canonical": {"energies": [0.0, 1.0, 2.0], "temperature": 0.9},
        "measure": {
            "n_microstates": 1000,
            "n_members": 5000,
            "suppression_m": [100, 1000],
            "suppression_seeds": 100,
            "ledger_n_micro": 1000,
        },
        "cone": {"n_members": 300, "max_steps": 30_000},
        "spinecho": {"n": 2000, "tau": 25.0, "samples_per_leg": 25},
    }
    all_ok = True
    for name, params in configs.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(params))
        digests = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{name}_{run_id}"
            code = cli.main([name, "--config", str(cfg), "--seed", "42", "--out", str(out)])
            assert code == 0
            run_digests = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
                if p.name != "manifest.json"
            }
            digests.append(run_digests)
        if digests[0] != digests[1]:
            all_ok = False
    report(
        12,
        "every CLI subcommand is byte-identical under identical config+seed",
        all_ok,
        f"6 subcommands x 2 runs, SHA-256 equality, {time.time() - t0:.1f}s",
    )
