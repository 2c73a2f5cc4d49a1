"""Reproducible experiment driver.

One subcommand per experiment::

    enslab <entropy|field|canonical|measure|cone|spinecho>
           [--config cfg.json] [--seed N] [--out DIR]

Parameters come from the JSON config file (a flat object); --seed and --out
override the file. Every parameter is validated against the subcommand's
schema before any computation; an unknown or ill-typed key exits with status
2 and a message naming it. Runtime numerical failures exit with status 3, as
does a size numpy cannot allocate.

Each run writes into the output directory:

* ``summary.json``  - the experiment's headline numbers (sorted keys),
* one or more CSV files - per-row data, floats at 17 significant digits,
* ``manifest.json`` - resolved config, seed, timestamps, SHA-256 of outputs,
  and the environment (Python and numpy versions, platform, CPU count).

Every digest is taken from the bytes in memory as they are written: the
file writers return it, and a worker thread hashes ``field.bin`` while the
calling thread writes it and takes the field's mean and variance. Every JSON
file is standard JSON; a run whose summary holds a non-finite number exits
with status 3, naming the entry.

Before a run starts, the outputs of an earlier run in the same directory
(every file its manifest lists, its summary and the manifest) are deleted;
other files stay. A run that exits 2 or 3 removes the output directory if
it created it.

All randomness flows from the single config seed. Streams for distinct roles
are split as SeedSequence(seed, spawn_key=(role,)) with fixed role indices
(0 = primary generation, 1 = outcome sampling, 2 = auxiliary curves), and
per-member streams inside an experiment use spawn_key=(member,) on the
derived stream. Identical config+seed therefore reproduces summary and CSV
files byte for byte, on any CPU count; the manifest differs only in its
timestamps and, across machines, its environment.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import platform
import shutil
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, _blocks, conefall, measurement, probcore, quantum, randomfield, spinecho
from .errors import EnslabError, NumericsError

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICS = 3

# numpy raises ValueError, not MemoryError, when an array's size in bytes
# overflows; this message is reported as out of memory too
_NUMPY_TOO_BIG = "array is too big"

LOG_BASE_NOTE = "e (entropies in nats)"


class SchemaError(Exception):
    """Config parameter failed validation; message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    parameters: dict
    seed: int
    out_dir: Path


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


def _is_finite(value) -> bool:
    """False for a number, or an array holding one at any depth, that is NaN,
    an infinity, or a JSON integer no float can hold (about 1.8e308 or more)."""
    if isinstance(value, list):
        return all(map(_is_finite, value))
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _fits_int64(value) -> bool:
    """False for an integer, or an array holding one, outside int64."""
    values = value if isinstance(value, list) else [value]
    return all(-(2**63) <= v < 2**63 for v in values)


def _check_type(key: str, value, tag):
    if isinstance(tag, tuple):
        if value not in tag:
            raise SchemaError(f"parameter '{key}' must be one of {tag}, got {value!r}")
        return value
    if tag == "int":
        accepts, description = _is_int, "an integer"
    elif tag == "float":
        accepts, description = _is_number, "a number"
    else:
        accepts, description = _ARRAY_TAGS[tag]
    if not accepts(value):
        raise SchemaError(f"parameter '{key}' must be {description}, got {value!r}")
    if tag in ("int", "integers"):
        if not _fits_int64(value):
            raise SchemaError(f"parameter '{key}' holds an integer outside the int64 range")
    elif not _is_finite(value):
        raise SchemaError(f"parameter '{key}' holds a number that is not finite as a float")
    return float(value) if tag == "float" else value


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


def _write_text(path: Path, text: str) -> str:
    """Write ``text`` as ASCII bytes; returns their SHA-256 hex digest."""
    data = text.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_csv(path: Path, header, rows) -> str:
    """Write a CSV file; returns its SHA-256 hex digest."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return _write_text(path, text.getvalue())


def write_json(path: Path, obj) -> str:
    """Write standard JSON (no NaN or infinity); returns its SHA-256 hex digest."""
    return _write_text(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _role_seed(seed: int, role: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(role),))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# experiments: each returns (summary dict, {file name: SHA-256 hex digest})
# for the files it wrote
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
    header = ["block", "n_states", "mass", "conditional_entropy", "s_max_conditional"]
    files = {csv_path.name: write_csv(csv_path, header, rows)}
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
    return summary, files


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
    # the lattice, interval and hierarchy rules need only the config, so they
    # run before the field is built, in the order generate, indicator and
    # hierarchical_average apply them. np.empty writes nothing: it raises
    # numpy's own error for a field too big to allocate, which comes before
    # the hierarchy rule, as it does inside generate
    randomfield._check_lattice(params["dim"], params["side"])
    np.empty((params["side"],) * params["dim"])
    interval = randomfield._checked_interval(params["interval"])
    randomfield._check_hierarchy(params["side"], params["max_level"])
    field = randomfield.generate(
        spec, params["dim"], params["side"], _role_seed(seed, 0), spacing=params["spacing"]
    )
    ind = randomfield.indicator(field, interval)
    report = randomfield.hierarchical_average(ind, params["max_level"])
    n_points = field.values.size
    p1 = report.global_mean()  # ones / points: also the one-point estimate
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
    residual = counts.residual
    del counts  # as large as the field; gone before field.bin is encoded
    csv_path = out_dir / "estimates.csv"
    files = {csv_path.name: write_csv(csv_path, ["query", "estimate", "mc_sigma", "n_samples"], rows)}

    data = np.ascontiguousarray(field.values, dtype="<f8")  # no copy when native

    def save():  # on the calling thread, while a worker hashes the same bytes
        (out_dir / "field.bin").write_bytes(data)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite moment fails the run
            return float(field.values.mean()), float(field.values.var())

    (mean, variance), files["field.bin"] = _blocks._both(
        save, lambda: hashlib.sha256(data).hexdigest(), data.size
    )
    sidecar = {
        "dim": field.dim,
        "side": field.side,
        "spacing": field.spacing,
        "seed": field.seed,
        "spec": asdict(spec),
    }
    files["field.json"] = write_json(out_dir / "field.json", sidecar)
    summary = {
        "log_base": LOG_BASE_NOTE,
        "interval": list(interval),
        "one_point_prob": p1,
        "isotropy_spread": iso.spread if iso else None,
        "epsilons": list(report.epsilons),
        "global_mean": p1,
        "sample_mean": mean,
        "sample_variance": variance,
        "diagnostics": {
            "fft_rounding_residual": residual,
            "variance_ratio": variance / spec.variance if spec.variance > 0 else None,
        },
    }
    return summary, files


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
    files = {csv_path.name: write_csv(csv_path, ["level", "energy", "prob"], rows)}
    summary = {
        "log_base": LOG_BASE_NOTE,
        "temperature": temperature,
        "mean_energy": mean_e,
        "entropy": s,
        "information": probcore.information(dist, math.log(len(dist))),
        "kkt_spread": float(kkt.max() - kkt.min()),
    }
    return summary, files


def _coefficients_from_param(raw) -> np.ndarray:
    """Real numbers, or [re, im] pairs in the JSON wire format."""
    arr = np.asarray(raw, dtype=float)
    return quantum._from_pairs(arr, 1, "coefficients") if arr.ndim == 2 else arr.astype(complex)


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
    files = {csv_path.name: write_csv(csv_path, ["outcome", "born_fraction", "sampled_count"], rows)}
    summary = {
        "log_base": LOG_BASE_NOTE,
        "seed": seed,
        "M": params["n_microstates"],
        "K": k,
        "c": quantum._to_pairs(c),
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
    return summary, files


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
    header = ["member", "seed", "fall_time", "final_azimuth", "sector"]
    files = {csv_path.name: write_csv(csv_path, header, rows)}
    summary = {
        "sector_counts": [int(v) for v in result.sector_counts],
        "n_unresolved": result.n_unresolved,
        "chi_square_uniform": conefall.chi_square_uniform(result.sector_counts),
        "fall_time_stats": result.fall_time_stats(),
        "n_sectors": result.n_sectors,
        "diagnostics": {"max_norm_drift": result.max_norm_drift},
    }
    return summary, files


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
    files = {csv_path.name: write_csv(csv_path, ["t", "magnetization", "binned_entropy"], rows)}
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
    return summary, files


RUNNERS = {
    "entropy": _run_entropy,
    "field": _run_field,
    "canonical": _run_canonical,
    "measure": _run_measure,
    "cone": _run_cone,
    "spinecho": _run_spinecho,
}


def _environment() -> dict:
    """What the speed of a run depends on: interpreter, numpy, platform and the
    CPUs the field transforms, suppression curve and spin echo split across."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "cpu_count": _blocks._cpu_count(),
    }


def _outermost_missing(path: Path) -> Path | None:
    """The outermost directory on ``path`` that does not exist yet, if any."""
    missing = None
    for p in (path, *path.parents):
        if p.exists():
            break
        missing = p
    return missing


def _remove_previous_outputs(out_dir: Path) -> None:
    """Delete an earlier run's outputs from ``out_dir``: every file its
    manifest lists, its summary, then the manifest. Other files stay."""
    manifest = out_dir / "manifest.json"
    try:
        listed = list(json.loads(manifest.read_text())["outputs"])
    except (OSError, ValueError, KeyError, TypeError):
        listed = []
    for name in [*listed, "summary.json", "manifest.json"]:
        # only plain file names directly inside out_dir
        if isinstance(name, str) and Path(name).name == name and (out_dir / name).is_file():
            (out_dir / name).unlink()


def run(config: RunConfig) -> int:
    """Execute one experiment; returns the process exit status.

    The outputs of an earlier run in the same directory are deleted first.
    A run that fails removes the output directory if it created it, with
    any parents it created; a directory that existed before is left alone.
    """
    started = datetime.now(timezone.utc).isoformat()
    out_dir = config.out_dir
    created = _outermost_missing(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _remove_previous_outputs(out_dir)
    status = None
    try:
        status = _run_into(config, out_dir, started)
        return status
    finally:
        if status != EXIT_OK and created is not None:
            shutil.rmtree(created, ignore_errors=True)


def _non_finite_entry(obj, path: str = "") -> str | None:
    """The dotted path of the first NaN or infinity in a summary, in the
    order the runner built it; None when every number is finite."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return path if isinstance(obj, float) and not math.isfinite(obj) else None
    for key, value in items:
        found = _non_finite_entry(value, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


def _run_into(config: RunConfig, out_dir: Path, started: str) -> int:
    try:
        summary, files = RUNNERS[config.subcommand](config.parameters, config.seed, out_dir)
    except NumericsError as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except EnslabError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_NUMPY_TOO_BIG):
            raise
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    entry = _non_finite_entry(summary)
    if entry is not None:
        for name in files:
            (out_dir / name).unlink()
        print(f"numerics error: summary entry '{entry}' is not finite", file=sys.stderr)
        return EXIT_NUMERICS
    files["summary.json"] = write_json(out_dir / "summary.json", summary)
    manifest = {
        "artifact_version": __version__,
        "subcommand": config.subcommand,
        "parameters": config.parameters,
        "seed": config.seed,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "environment": _environment(),
        "outputs": files,
    }
    write_json(out_dir / "manifest.json", manifest)
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
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an int over 4300 digits
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
