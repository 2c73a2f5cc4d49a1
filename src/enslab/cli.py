"""Reproducible experiment driver.

One subcommand per experiment::

    enslab <entropy|field|canonical|measure|cone|spinecho>
           [--config cfg.json] [--seed N] [--out DIR]

Parameters come from the JSON config file (a flat object); --seed and --out
override the file. Every parameter is validated against the subcommand's
schema before any computation; an unknown or ill-typed key exits with status
2 and a message naming it. Runtime numerical failures exit with status 3.

Each run writes into the output directory:

* ``summary.json``  - the experiment's headline numbers (sorted keys),
* one or more CSV files - per-row data, floats at 17 significant digits,
* ``manifest.json`` - resolved config, seed, timestamps, SHA-256 of outputs.

All randomness flows from the single config seed. Streams for distinct roles
are split as SeedSequence(seed, spawn_key=(role,)) with fixed role indices
(0 = primary generation, 1 = outcome sampling, 2 = auxiliary curves), and
per-member streams inside an experiment use spawn_key=(member,) on the
derived stream. Identical config+seed therefore reproduces summary and CSV
files byte for byte; the manifest differs only in its timestamps.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, conefall, measurement, probcore, randomfield, spinecho
from .errors import EnslabError, NumericsError

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICS = 3

LOG_BASE_NOTE = "e (entropies in nats)"


class SchemaError(Exception):
    """Config parameter failed validation; message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    parameters: dict
    seed: int
    out_dir: Path


@dataclass(frozen=True)
class RunManifest:
    artifact_version: str
    subcommand: str
    parameters: dict
    seed: int
    started_utc: str
    finished_utc: str
    outputs: dict


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, float) or _is_int(value)


def _is_array(value, of=_is_number) -> bool:
    return isinstance(value, list) and all(map(of, value))


def _is_pair(value) -> bool:
    return _is_array(value) and len(value) == 2


# JSON-array tags: the test a value must pass, and how an error describes it
_ARRAY_TAGS = {
    "numbers": (_is_array, "an array of numbers"),
    "integers": (lambda v: _is_array(v, _is_int), "an array of integers"),
    "interval": (_is_pair, "an array of two numbers [a, b]"),
    "number lists": (lambda v: _is_array(v, _is_array), "an array of arrays of numbers"),
    "coefficients": (
        lambda v: _is_array(v) or _is_array(v, _is_pair),
        "an array of numbers or of [re, im] pairs",
    ),
}


# ---------------------------------------------------------------------------
# parameter schemas: key -> (type tag, default). Type tags: int, float, a key
# of _ARRAY_TAGS (a JSON array with typed elements), or a tuple of allowed
# strings.
# ---------------------------------------------------------------------------

SCHEMAS = {
    "entropy": {
        "blocks": ("number lists", [[0.5], [0.3, 0.2]]),
    },
    "field": {
        "dim": ("int", 2),
        "side": ("int", 81),
        "mean": ("float", 0.0),
        "variance": ("float", 1.0),
        "spectrum": (("white", "power_law", "gaussian_bump"), "white"),
        "index": ("float", -2.0),
        "center": ("float", 8.0),
        "width": ("float", 2.0),
        "cutoff": ("float", 0.0),  # 0 means no cutoff
        "spacing": ("float", 1.0),
        "interval": ("interval", [-1.0, 1.0]),
        "max_level": ("int", 3),
        "two_point_r": ("numbers", [1.0, 1.5]),
        "isotropy_r": ("float", 1.5),
    },
    "canonical": {
        "energies": ("numbers", [0.0, 1.0, 2.0, 3.0]),
        "temperature": ("float", 1.0),
        "target_mean_energy": ("float", None),  # set -> temperature is solved for
    },
    "measure": {
        "coefficients": ("coefficients", [0.6, 0.8]),
        "n_microstates": ("int", 10_000),
        "n_members": ("int", 10_000),
        "ledger_n_micro": ("int", 1024),
        "suppression_m": ("integers", [100, 1000, 10_000]),
        "suppression_seeds": ("int", 200),
    },
    "cone": {
        "tilt_center": ("float", 0.01),
        "tilt_radius": ("float", 0.01),
        "azimuth_center": ("float", math.pi),
        "azimuth_radius": ("float", math.pi),
        "tilt_momentum_radius": ("float", 0.01),
        "azimuth_momentum_radius": ("float", 1e-8),
        "n_members": ("int", 2000),
        "n_sectors": ("int", 8),
        "fall_threshold": ("float", 1.0),
        "dt": ("float", 1e-3),
        "max_steps": ("int", 100_000),
        "damping": ("float", 0.0),
    },
    "spinecho": {
        "n": ("int", 10_000),
        "spread_kind": (("normal", "uniform"), "normal"),
        "spread_scale": ("float", 1.0),
        "tau": ("float", 50.0),
        "n_bins": ("int", 32),
        "samples_per_leg": ("int", 50),
    },
}


def _check_type(key: str, value, tag):
    if isinstance(tag, tuple):
        if value not in tag:
            raise SchemaError(f"parameter '{key}' must be one of {tag}, got {value!r}")
        return value
    if tag == "int":
        if not _is_int(value):
            raise SchemaError(f"parameter '{key}' must be an integer, got {value!r}")
        return value
    if tag == "float":
        if not _is_number(value):
            raise SchemaError(f"parameter '{key}' must be a number, got {value!r}")
        return float(value)
    accepts, description = _ARRAY_TAGS[tag]
    if not accepts(value):
        raise SchemaError(f"parameter '{key}' must be {description}, got {value!r}")
    return value


def resolve_parameters(subcommand: str, file_params: dict) -> dict:
    """Apply defaults, then file values; reject unknown keys and bad types.

    A key whose default is None (unset) also accepts JSON null, its default.
    """
    schema = SCHEMAS[subcommand]
    resolved = {key: default for key, (_, default) in schema.items()}
    for key, value in file_params.items():
        if key not in schema:
            raise SchemaError(f"unknown parameter '{key}' for subcommand '{subcommand}'")
        tag, default = schema[key]
        resolved[key] = None if value is None and default is None else _check_type(key, value, tag)
    return resolved


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _role_seed(seed: int, role: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(role),))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# experiments: each returns (summary dict, list of files written)
# ---------------------------------------------------------------------------


def _run_entropy(params: dict, seed: int, out_dir: Path):
    blocks = [(f"block{i}", np.asarray(vec, dtype=float)) for i, vec in enumerate(params["blocks"])]
    joint = probcore.PartitionedDistribution(tuple(blocks))
    decomp = probcore.decompose(joint)
    masses = joint.block_masses()
    s_max_coarse = math.log(len(blocks))
    s_max_cond = [math.log(vec.size) for _, vec in joint.blocks]
    info = probcore.info_decompose(joint, s_max_coarse, s_max_cond)
    rows = []
    for (label, vec), mass, cond, bound in zip(
        joint.blocks, masses, decomp.per_block_conditional, s_max_cond
    ):
        rows.append((label, vec.size, mass, cond, bound))
    csv_path = out_dir / "blocks.csv"
    write_csv(csv_path, ["block", "n_states", "mass", "conditional_entropy", "s_max_conditional"], rows)
    summary = {
        "log_base": LOG_BASE_NOTE,
        "entropy": {
            "total": decomp.total,
            "coarse": decomp.coarse,
            "residual": decomp.residual,
            "identity_defect": abs(decomp.total - decomp.coarse - decomp.residual),
        },
        "information": {
            "total": info.total,
            "coarse": info.coarse,
            "residual": info.residual,
            "s_max_coarse": s_max_coarse,
        },
    }
    return summary, [csv_path]


def _run_field(params: dict, seed: int, out_dir: Path):
    spec = randomfield.CovarianceSpec(
        mean=params["mean"],
        variance=params["variance"],
        spectrum=params["spectrum"],
        index=params["index"],
        center=params["center"],
        width=params["width"],
        cutoff=params["cutoff"] if params["cutoff"] > 0 else None,
    )
    field = randomfield.generate(
        spec, params["dim"], params["side"], _role_seed(seed, 0), spacing=params["spacing"]
    )
    interval = tuple(float(v) for v in params["interval"])
    ind = randomfield.indicator(field, interval)
    report = randomfield.hierarchical_average(ind, params["max_level"])
    epsilons, global_mean = list(report.epsilons), report.global_mean()
    del report  # holds a float copy of the bitmask; gone before the pair counts
    n_points = field.values.size
    p1 = float(ind.bits.mean())
    rows = [("one_point", p1, math.sqrt(max(p1 * (1 - p1), 0.0) / n_points), n_points)]
    counts = randomfield.pair_counts(ind, ind)
    for r in params["two_point_r"]:
        p2 = randomfield.two_point_prob(counts, float(r))
        rows.append(
            (f"two_point_r={_fmt(float(r))}", p2, math.sqrt(max(p2 * (1 - p2), 0.0) / n_points), n_points)
        )
    iso = None
    if field.dim > 1:  # a 1-d lattice has a single direction: nothing to compare
        iso = randomfield.isotropy_report(counts, params["isotropy_r"])
        for e in iso.estimates:
            rows.append(
                (
                    f"isotropy_r={_fmt(float(params['isotropy_r']))}_dir={'_'.join(map(str, e.direction))}",
                    e.estimate,
                    math.sqrt(max(e.estimate * (1 - e.estimate), 0.0) / n_points),
                    n_points,
                )
            )
    del counts  # as large as the field; gone before field.bin is encoded
    csv_path = out_dir / "estimates.csv"
    write_csv(csv_path, ["query", "estimate", "mc_sigma", "n_samples"], rows)

    bin_path = out_dir / "field.bin"
    bin_path.write_bytes(np.ascontiguousarray(field.values, dtype="<f8"))  # no copy when native
    sidecar = {
        "dim": field.dim,
        "side": field.side,
        "spacing": field.spacing,
        "seed": field.seed,
        "spec": asdict(spec),
    }
    sidecar_path = out_dir / "field.json"
    write_json(sidecar_path, sidecar)
    summary = {
        "log_base": LOG_BASE_NOTE,
        "interval": list(interval),
        "one_point_prob": p1,
        "isotropy_spread": iso.spread if iso else None,
        "epsilons": epsilons,
        "global_mean": global_mean,
        "sample_mean": float(field.values.mean()),
        "sample_variance": float(field.values.var()),
    }
    return summary, [csv_path, bin_path, sidecar_path]


def _run_canonical(params: dict, seed: int, out_dir: Path):
    energies = np.asarray(params["energies"], dtype=float)
    target = params["target_mean_energy"]
    if target is None:
        temperature = params["temperature"]
    else:
        temperature = probcore.temperature_for_mean_energy(energies, float(target))
    levels = probcore.EnergyLevels(energies=energies, temperature=temperature)
    dist = probcore.canonical(levels)
    s = probcore.entropy(dist)
    mean_e = float(dist.probs @ energies)
    live = dist.probs > probcore.ZERO_CUTOFF
    kkt = np.log(dist.probs[live]) + energies[live] / temperature
    rows = [(k, energies[k], dist.probs[k]) for k in range(len(dist))]
    csv_path = out_dir / "distribution.csv"
    write_csv(csv_path, ["level", "energy", "prob"], rows)
    summary = {
        "log_base": LOG_BASE_NOTE,
        "temperature": temperature,
        "mean_energy": mean_e,
        "entropy": s,
        "information": probcore.information(dist, math.log(len(dist))),
        "kkt_spread": float(kkt.max() - kkt.min()),
    }
    return summary, [csv_path]


def _coefficients_from_param(raw) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 2:  # [[re, im], ...]
        return arr[:, 0] + 1j * arr[:, 1]
    return arr.astype(complex)


def _run_measure(params: dict, seed: int, out_dir: Path):
    c = _coefficients_from_param(params["coefficients"])
    system = measurement.SystemState(coefficients=c)
    k = system.n_outcomes
    apparatus = measurement.build_apparatus(params["n_microstates"], k, _role_seed(seed, 0))
    fractions = measurement.outcome_fractions(system, apparatus)
    counts = measurement.sample_outcomes(system, apparatus, params["n_members"], _role_seed(seed, 1))
    curve = measurement.suppression_curve(
        [int(m) for m in params["suppression_m"]],
        params["suppression_seeds"],
        _role_seed(seed, 2),
    )
    ledger = measurement.entropy_ledger(system, params["ledger_n_micro"])
    rows = [(i, fractions.probs[i], int(counts[i])) for i in range(k)]
    csv_path = out_dir / "outcomes.csv"
    write_csv(csv_path, ["outcome", "born_fraction", "sampled_count"], rows)
    summary = {
        "log_base": LOG_BASE_NOTE,
        "seed": seed,
        "M": params["n_microstates"],
        "K": k,
        "c": [[float(z.real), float(z.imag)] for z in c],
        "fractions": [float(p) for p in fractions.probs],
        "counts": [int(v) for v in counts],
        "suppression_curve": [[m, med, p95] for m, med, p95 in curve],
        "ledger": {
            "initial_total": ledger.initial_total,
            "final_coarse": ledger.final_coarse,
            "final_residual": ledger.final_residual,
            "final_total": ledger.final_total,
            "rounding_defect": ledger.rounding_defect,
            "microstate_counts": [int(v) for v in ledger.microstate_counts],
        },
    }
    return summary, [csv_path]


def _run_cone(params: dict, seed: int, out_dir: Path):
    macro = conefall.InitialMacrostate(
        center=conefall.PhaseState(
            tilt=params["tilt_center"],
            azimuth=params["azimuth_center"],
            tilt_momentum=0.0,
            azimuth_momentum=0.0,
        ),
        support_radii=(
            params["tilt_radius"],
            params["azimuth_radius"],
            params["tilt_momentum_radius"],
            params["azimuth_momentum_radius"],
        ),
    )
    cone_params = conefall.ConeParams(damping=params["damping"])
    result = conefall.run_ensemble(
        macro,
        params["n_members"],
        params["n_sectors"],
        fall_threshold=params["fall_threshold"],
        seed=_role_seed(seed, 0),
        dt=params["dt"],
        max_steps=params["max_steps"],
        params=cone_params,
    )
    rows = zip(
        range(params["n_members"]),
        result.member_seeds.tolist(),
        result.fall_times.tolist(),
        result.final_azimuths.tolist(),
        result.sectors.tolist(),
    )
    csv_path = out_dir / "members.csv"
    write_csv(csv_path, ["member", "seed", "fall_time", "final_azimuth", "sector"], rows)
    summary = {
        "sector_counts": [int(v) for v in result.sector_counts],
        "n_unresolved": result.n_unresolved,
        "chi_square_uniform": conefall.chi_square_uniform(result.sector_counts),
        "fall_time_stats": result.fall_time_stats(),
        "n_sectors": result.n_sectors,
    }
    return summary, [csv_path]


def _run_spinecho(params: dict, seed: int, out_dir: Path):
    spread = spinecho.FrequencySpread(kind=params["spread_kind"], scale=params["spread_scale"])
    report = spinecho.run_protocol(
        params["n"],
        spread,
        params["tau"],
        params["n_bins"],
        _role_seed(seed, 0),
        samples_per_leg=params["samples_per_leg"],
    )
    rows = list(zip(report.times, report.magnetization, report.binned_entropy))
    csv_path = out_dir / "trace.csv"
    write_csv(csv_path, ["t", "magnetization", "binned_entropy"], rows)
    m_tau, s_tau = report.at(params["tau"])
    m_echo, _ = report.at(report.echo_time)
    summary = {
        "log_base": LOG_BASE_NOTE,
        "tau": params["tau"],
        "n_bins": params["n_bins"],
        "magnetization_at_tau": m_tau,
        "binned_entropy_at_tau": s_tau,
        "magnetization_at_echo": m_echo,
    }
    return summary, [csv_path]


RUNNERS = {
    "entropy": _run_entropy,
    "field": _run_field,
    "canonical": _run_canonical,
    "measure": _run_measure,
    "cone": _run_cone,
    "spinecho": _run_spinecho,
}


def run(config: RunConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    started = datetime.now(timezone.utc).isoformat()
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        summary, files = RUNNERS[config.subcommand](config.parameters, config.seed, out_dir)
    except (NumericsError, FloatingPointError) as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except EnslabError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    summary_path = out_dir / "summary.json"
    write_json(summary_path, summary)
    files = [summary_path] + list(files)
    finished = datetime.now(timezone.utc).isoformat()
    manifest = RunManifest(
        artifact_version=__version__,
        subcommand=config.subcommand,
        parameters=config.parameters,
        seed=config.seed,
        started_utc=started,
        finished_utc=finished,
        outputs={f.name: sha256_of(f) for f in files},
    )
    write_json(out_dir / "manifest.json", asdict(manifest))
    return EXIT_OK


def build_config(argv) -> RunConfig:
    parser = argparse.ArgumentParser(prog="enslab", description="seeded experiment driver")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SCHEMAS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, default=None, help="JSON parameter file")
        p.add_argument("--seed", type=int, default=None, help="root seed (overrides config)")
        p.add_argument("--out", type=Path, default=Path("runs") / name, help="output directory")
    args = parser.parse_args(argv)

    file_params: dict = {}
    file_seed = None
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise SchemaError("config file must hold a JSON object")
        file_params = dict(loaded)
        file_seed = file_params.pop("seed", None)
        if file_seed is not None and not _is_int(file_seed):
            raise SchemaError(f"parameter 'seed' must be an integer, got {file_seed!r}")
    seed = args.seed if args.seed is not None else (file_seed if file_seed is not None else 0)
    if seed < 0:
        raise SchemaError(f"parameter 'seed' must be a non-negative integer, got {seed!r}")
    params = resolve_parameters(args.subcommand, file_params)
    return RunConfig(subcommand=args.subcommand, parameters=params, seed=int(seed), out_dir=args.out)


def main(argv=None) -> int:
    try:
        config = build_config(argv if argv is not None else sys.argv[1:])
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
