"""Oracle checks on the files one CLI run wrote.

``check(subcommand, parameters, out_dir)`` returns a list of failure
messages, empty when every check passes. The checks compare against closed
forms and conservation laws, not against recorded bytes, so they hold for
any output the program may legitimately produce: summaries that gain keys,
fall times that are no longer multiples of dt, or two-point estimates that
are summed in another order.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import gaussian

EXACT = 1e-12
# Field tolerances, in units of the exact one-point standard deviation.
# Calibrated on 20-40 seeds of each field configuration in the workloads:
# one-point z had sd 0.83-1.03, two-point deviations sd 1.17 (max 2.5).
ONE_POINT_Z = 6.0
TWO_POINT_Z = 8.0
# Upper 1e-6 quantile of chi-square, by degrees of freedom (8 sectors: 7).
CHI2_QUANTILE_1E6 = {7: 40.5218}
# Median of the Rayleigh law that |resultant| * sqrt(M) approaches for M
# uniform random phasors; sqrt(pi)/2 is its mean, not its median.
RAYLEIGH_MEDIAN = math.sqrt(math.log(2.0))
MEDIAN_Z = 6.0


def _summary(out_dir: Path) -> dict:
    return json.loads((out_dir / "summary.json").read_text())


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _near(label, value, target, tol, failures):
    if not abs(value - target) <= tol:
        failures.append(f"{label}: {value!r} differs from {target!r} by more than {tol!r}")


def _shannon(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def check_digests(out_dir: Path) -> list:
    """Every output the manifest lists exists and has the recorded SHA-256."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    failures = []
    for name, digest in manifest["outputs"].items():
        path = out_dir / name
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            failures.append(f"{name}: missing or does not match its manifest digest")
    return failures


def _check_entropy(params, out_dir, failures):
    s = _summary(out_dir)
    blocks = [np.asarray(b, dtype=float) for b in params["blocks"]]
    masses = np.array([b.sum() for b in blocks])
    coarse = _shannon(masses)
    residual = sum(m * _shannon(b / m) for b, m in zip(blocks, masses) if m > 0.0)
    ent = s["entropy"]
    _near("entropy.total", ent["total"], _shannon(np.concatenate(blocks)), EXACT, failures)
    _near("entropy.coarse", ent["coarse"], coarse, EXACT, failures)
    _near("entropy.residual", ent["residual"], residual, EXACT, failures)
    _near("entropy identity defect", ent["identity_defect"], 0.0, EXACT, failures)
    info = s["information"]
    _near("information identity", info["total"], info["coarse"] + info["residual"], EXACT, failures)


def _check_canonical(params, out_dir, failures):
    s = _summary(out_dir)
    rows = read_rows(out_dir / "distribution.csv")
    energies = np.array([float(r["energy"]) for r in rows])
    probs = np.array([float(r["prob"]) for r in rows])
    t = s["temperature"]
    w = np.exp(-(energies - energies.min()) / t)
    expected = w / w.sum()
    _near("canonical probabilities", float(np.abs(probs - expected).max()), 0.0, EXACT, failures)
    _near("canonical mean energy", s["mean_energy"], float(expected @ energies), EXACT, failures)
    _near("canonical entropy", s["entropy"], _shannon(expected), EXACT, failures)
    _near("canonical KKT spread", s["kkt_spread"], 0.0, EXACT * max(1.0, float(np.abs(energies).max()) / t), failures)
    target = params.get("target_mean_energy")
    if target is None:
        _near("canonical temperature", t, params["temperature"], 0.0, failures)
    else:
        # the bisection stops at |mean - target| <= 1e-10
        _near("canonical solved mean", s["mean_energy"], target, 2e-10, failures)


def _check_measure(params, out_dir, failures):
    s = _summary(out_dir)
    c = np.asarray(params["coefficients"], dtype=float)
    born = np.abs(c) ** 2
    _near("measure fractions", float(np.abs(np.array(s["fractions"]) - born).max()), 0.0, EXACT, failures)
    counts = np.array(s["counts"])
    n = params["n_members"]
    if int(counts.sum()) != n:
        failures.append(f"measure counts sum to {int(counts.sum())}, expected {n}")
    sd = np.sqrt(n * born * (1.0 - born))
    _near("measure sampled counts", float(np.max(np.abs(counts - n * born) / np.maximum(sd, 1.0))), 0.0, 6.0, failures)
    ledger = s["ledger"]
    n_micro = params["ledger_n_micro"]
    _near("ledger initial total", ledger["initial_total"], math.log(n_micro), EXACT, failures)
    _near("ledger identity", ledger["final_total"], ledger["final_coarse"] + ledger["final_residual"], EXACT, failures)
    _near("ledger balance", ledger["final_total"], ledger["initial_total"], ledger["rounding_defect"] + EXACT, failures)
    if sum(ledger["microstate_counts"]) != n_micro:
        failures.append("ledger microstate counts do not sum to ledger_n_micro")
    seeds = params["suppression_seeds"]
    # standard error of a sample median: 1 / (2 f(median) sqrt(n)); the
    # Rayleigh density at its median equals sqrt(ln 2)
    tol = MEDIAN_Z / (2.0 * RAYLEIGH_MEDIAN * math.sqrt(seeds))
    for m, median, _ in s["suppression_curve"]:
        _near(f"suppression median * sqrt(M) at M={m}", median * math.sqrt(m), RAYLEIGH_MEDIAN, tol, failures)


def _check_spinecho(params, out_dir, failures):
    s = _summary(out_dir)
    rows = read_rows(out_dir / "trace.csv")
    _near("echo magnetization", s["magnetization_at_echo"], 1.0, EXACT, failures)
    if len(rows) != 2 * params["samples_per_leg"] + 1:
        failures.append(f"trace has {len(rows)} samples, expected {2 * params['samples_per_leg'] + 1}")
    _near("aligned start magnetization", float(rows[0]["magnetization"]), 1.0, EXACT, failures)
    _near("echo time", float(rows[-1]["t"]), 2.0 * params["tau"], EXACT * params["tau"], failures)
    _near("echo trace magnetization", float(rows[-1]["magnetization"]), 1.0, EXACT, failures)
    top = max(float(r["binned_entropy"]) for r in rows)
    if top > math.log(params["n_bins"]) + EXACT:
        failures.append(f"binned entropy {top!r} exceeds ln(n_bins)")


def _check_cone(params, out_dir, failures):
    s = _summary(out_dir)
    n, k = params["n_members"], params["n_sectors"]
    counts = np.array(s["sector_counts"])
    if s["n_unresolved"] != 0:
        failures.append(f"{s['n_unresolved']} cone members unresolved")
    if int(counts.sum()) != n or counts.size != k:
        failures.append(f"sector counts {counts.tolist()} do not cover {n} members in {k} sectors")
    expected = n / k
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    _near("chi-square statistic", s["chi_square_uniform"], chi2, 1e-9 * max(1.0, chi2), failures)
    if not chi2 < CHI2_QUANTILE_1E6.get(k - 1, -math.inf):
        failures.append(f"chi-square {chi2!r} not below the 1e-6 quantile for {k} sectors")
    rows = read_rows(out_dir / "members.csv")
    fall = np.array([float(r["fall_time"]) for r in rows])
    azimuth = np.array([float(r["final_azimuth"]) for r in rows])
    sector = np.array([int(r["sector"]) for r in rows])
    if len(rows) != n or not np.all(np.isfinite(fall) & (fall >= 0.0)):
        failures.append("members.csv lacks a finite fall time for every member")
    elif not np.all((azimuth >= 0.0) & (azimuth < 2.0 * math.pi)):
        failures.append("a final azimuth lies outside [0, 2pi)")
    else:
        width = 2.0 * math.pi / k
        if not np.array_equal(sector, np.minimum(azimuth // width, k - 1).astype(int)):
            failures.append("a member's sector does not match its final azimuth")
        if not np.array_equal(np.bincount(sector, minlength=k), counts):
            failures.append("per-member sectors do not add up to the sector counts")


def lattice_offsets(dim: int, side: int, spacing: float, r: float) -> np.ndarray:
    """Integer offsets whose length lies in the half-open bin [r - s/2, r + s/2)."""
    reach = int(math.floor((r + 0.5 * spacing) / spacing)) + 1
    axis = np.arange(-reach, reach + 1)
    grid = np.stack(np.meshgrid(*(axis,) * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    length = spacing * np.sqrt((grid * grid).sum(axis=1))
    return grid[(length >= r - 0.5 * spacing) & (length < r + 0.5 * spacing)]


def _direction(vec) -> tuple:
    g = math.gcd(*(abs(int(c)) for c in vec))
    reduced = [int(c) // g for c in vec]
    first = next(c for c in reduced if c != 0)
    return tuple(c if first > 0 else -c for c in reduced)


@functools.lru_cache(maxsize=4)
def _field_model(spectrum, index, center, width, cutoff, dim, side, a, b):
    """(correlation map, one-point oracle, its sampling sigma) in standard units."""
    power = gaussian.power_table(spectrum, index, center, width, cutoff, dim, side)
    rho = gaussian.correlation_map(power)
    p1 = gaussian.normal_cdf(b) - gaussian.normal_cdf(a)
    return rho, p1, gaussian.one_point_sigma(a, b, rho)


def _check_field(params, out_dir, failures):
    s = _summary(out_dir)
    dim, side, spacing = params["dim"], params["side"], params["spacing"]
    sd = math.sqrt(params["variance"])
    a, b = ((v - params["mean"]) / sd for v in params["interval"])
    rho, p1, sigma = _field_model(
        params["spectrum"], params["index"], params["center"], params["width"],
        params["cutoff"], dim, side, a, b,
    )
    values = np.fromfile(out_dir / "field.bin", dtype="<f8")
    lo, hi = params["interval"]
    if values.size != side**dim:
        failures.append(f"field.bin holds {values.size} values, expected {side**dim}")
    else:
        _near("one-point from field.bin", float(((values >= lo) & (values < hi)).mean()), s["one_point_prob"], EXACT, failures)
    _near("one-point vs Normal CDF", s["one_point_prob"], p1, ONE_POINT_Z * sigma, failures)
    _near("hierarchy global mean", s["global_mean"], s["one_point_prob"], EXACT, failures)

    def oracle(offsets):
        return float(np.mean(gaussian.rectangle_prob(a, b, rho[tuple(np.mod(offsets, side).T)])))

    estimates = {r["query"]: float(r["estimate"]) for r in read_rows(out_dir / "estimates.csv")}
    for r in params["two_point_r"]:
        key = f"two_point_r={format(float(r), '.17g')}"
        if key not in estimates:
            failures.append(f"estimates.csv lacks {key}")
            continue
        want = oracle(lattice_offsets(dim, side, spacing, float(r)))
        _near(key, estimates[key], want, TWO_POINT_Z * sigma, failures)
    iso_r = float(params["isotropy_r"])
    groups: dict = {}
    for vec in lattice_offsets(dim, side, spacing, iso_r):
        if vec.any():
            groups.setdefault(_direction(vec), []).append(vec)
    prefix = f"isotropy_r={format(iso_r, '.17g')}_dir="
    found = {k[len(prefix):]: v for k, v in estimates.items() if k.startswith(prefix)}
    if set(found) != {"_".join(map(str, d)) for d in groups}:
        failures.append(f"isotropy directions {sorted(found)} differ from the lattice's at r={iso_r}")
        return
    for direction, vecs in groups.items():
        label = "_".join(map(str, direction))
        _near(f"isotropy {label}", found[label], oracle(np.array(vecs)), TWO_POINT_Z * sigma, failures)


CHECKS = {
    "entropy": _check_entropy,
    "canonical": _check_canonical,
    "measure": _check_measure,
    "spinecho": _check_spinecho,
    "cone": _check_cone,
    "field": _check_field,
}


def check(subcommand: str, parameters: dict, out_dir: Path) -> list:
    """Failure messages for one run's outputs; empty when all checks pass."""
    failures = []
    try:
        failures += check_digests(out_dir)
        CHECKS[subcommand](parameters, out_dir, failures)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        failures.append(f"unreadable or incomplete output: {exc!r}")
    return failures
