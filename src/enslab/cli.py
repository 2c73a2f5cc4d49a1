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

Each experiment's runner only computes: it returns its summary and, for
every output file, the encoded bytes with their SHA-256 digest, and it never
touches the disk. A worker thread hashes ``field.bin``'s bytes while the
calling thread takes the field's mean and variance. Every JSON file is
standard JSON; a run whose summary holds a non-finite number exits with
status 3, naming the entry.

Before a run starts, the outputs of an earlier run in the same directory
(every file its manifest lists, its summary and the manifest) are deleted;
other files stay. Only a run that succeeds creates the output directory and
writes its files, then the summary, then the manifest: a run that exits 2
or 3 creates no directory and writes no file.

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
import os
import platform
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, _blocks, conefall, measurement, probcore, randomfield, spinecho
from .errors import EnslabError, NumericsError, ValidationError

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICS = 3

# numpy raises ValueError, not MemoryError, when an array's size in bytes
# or its length overflows; these messages are reported as out of memory too
_NUMPY_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded")

LOG_BASE_NOTE = "e (entropies in nats)"


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


# type tags: the test a value must pass, and how an error describes it
_TAGS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a number"),
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
# parameter schemas: key -> (type tag, default). Type tags: a key of _TAGS
# (a number, or a JSON array with typed elements), or a tuple of allowed
# strings, which the library module that takes the value owns.
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
        "spectrum": (randomfield.SPECTRUM_KINDS, "white"),
        "index": ("float", -2.0),
        "center": ("float", 8.0),
        "width": ("float", 2.0),
        "cutoff": ("float", 0.0),  # 0 means no cutoff; a negative one is refused
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
        "spread_kind": (spinecho.SPREAD_KINDS, "normal"),
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
            raise ValidationError(f"parameter '{key}' must be one of {tag}, got {value!r}")
        return value
    accepts, description = _TAGS[tag]
    if not accepts(value):
        raise ValidationError(f"parameter '{key}' must be {description}, got {value!r}")
    if tag in ("int", "integers"):
        if not _fits_int64(value):
            raise ValidationError(f"parameter '{key}' holds an integer outside the int64 range")
    elif not _is_finite(value):
        raise ValidationError(f"parameter '{key}' holds a number that is not finite as a float")
    return float(value) if tag == "float" else value


def resolve_parameters(subcommand: str, file_params: dict) -> dict:
    """Apply defaults, then file values; reject unknown keys and bad types.

    A key whose default is None (unset) also accepts JSON null, its default.
    """
    schema = SCHEMAS[subcommand]
    resolved = {key: default for key, (_, default) in schema.items()}
    for key, value in file_params.items():
        if key not in schema:
            raise ValidationError(f"unknown parameter '{key}' for subcommand '{subcommand}'")
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


def _output(data) -> tuple:
    """``(data, SHA-256 hex digest of its bytes)``: one output file, in memory."""
    return data, hashlib.sha256(data).hexdigest()


def encode_csv(header, rows) -> tuple:
    """A CSV file's ASCII bytes and their digest."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return _output(text.getvalue().encode("ascii"))


def _plain(value):
    """A numpy array or scalar as the Python values of ``.tolist()``: the
    JSON encoder's hook for what it cannot write itself."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def encode_json(obj) -> tuple:
    """Standard JSON's ASCII bytes (no NaN or infinity) and their digest;
    numpy arrays and scalars are written as their Python values."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=_plain)
    return _output((text + "\n").encode("ascii"))


def _role_seed(seed: int, role: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(role),))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# experiments: each returns (summary dict, {file name: (bytes, SHA-256 hex
# digest)}) and touches no file
# ---------------------------------------------------------------------------


def _run_entropy(params: dict, seed: int):
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
    header = ["block", "n_states", "mass", "conditional_entropy", "s_max_conditional"]
    outputs = {"blocks.csv": encode_csv(header, rows)}
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
    return summary, outputs


def _run_field(params: dict, seed: int):
    spec = randomfield.CovarianceSpec(
        mean=params["mean"],
        variance=params["variance"],
        spectrum=params["spectrum"],
        index=params["index"],
        center=params["center"],
        width=params["width"],
        cutoff=params["cutoff"] if params["cutoff"] != 0 else None,
    )
    dim, side, spacing = params["dim"], params["side"], params["spacing"]
    # every rule that needs only the config, before the field is built
    interval = randomfield.check_config(
        dim, side, spacing, params["interval"], params["max_level"], params["two_point_r"], params["isotropy_r"]
    )
    field = randomfield.generate(spec, dim, side, _role_seed(seed, 0), spacing=spacing)
    ind = randomfield.indicator(field, interval)
    report = randomfield.hierarchical_average(ind, params["max_level"])
    n_points = field.values.size

    def mc_sigma(p):  # the binomial sd, as if the points were independent
        return math.sqrt(max(p * (1 - p), 0.0) / n_points)

    p1 = report.global_mean()  # ones / points: also the one-point estimate
    rows = [("one_point", p1, mc_sigma(p1), n_points)]
    counts = randomfield.pair_counts(ind)
    for r in params["two_point_r"]:
        p2 = randomfield.two_point_prob(counts, float(r))
        rows.append((f"two_point_r={_fmt(float(r))}", p2, mc_sigma(p2), n_points))
    iso = None
    if dim > 1:
        iso = randomfield.isotropy_report(counts, params["isotropy_r"])
        for e in iso.estimates:
            rows.append(
                (
                    f"isotropy_r={_fmt(float(params['isotropy_r']))}_dir={'_'.join(map(str, e.direction))}",
                    e.estimate,
                    mc_sigma(e.estimate),
                    n_points,
                )
            )
    residual = counts.residual
    del counts  # as large as the field; gone before the moments are taken
    outputs = {"estimates.csv": encode_csv(["query", "estimate", "mc_sigma", "n_samples"], rows)}

    data = np.ascontiguousarray(field.values, dtype="<f8")  # no copy when native

    def moments():  # on the calling thread, while a worker hashes the same bytes
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite moment fails the run
            return float(field.values.mean()), float(field.values.var())

    (mean, variance), digest = _blocks._both(moments, lambda: hashlib.sha256(data).hexdigest(), data.size)
    outputs["field.bin"] = data, digest
    sidecar = {
        "dim": field.dim,
        "side": field.side,
        "spacing": field.spacing,
        "seed": field.seed,
        "spec": asdict(spec),
    }
    outputs["field.json"] = encode_json(sidecar)
    summary = {
        "log_base": LOG_BASE_NOTE,
        "interval": interval,
        "one_point_prob": p1,
        "isotropy_spread": iso.spread if iso else None,
        "epsilons": report.epsilons,
        "global_mean": p1,
        "sample_mean": mean,
        "sample_variance": variance,
        "diagnostics": {
            "fft_rounding_residual": residual,
            "variance_ratio": variance / spec.variance if spec.variance > 0 else None,
        },
    }
    return summary, outputs


def _run_canonical(params: dict, seed: int):
    energies = np.asarray(params["energies"], dtype=float)
    target = params["target_mean_energy"]
    if target is None:
        temperature = params["temperature"]
    else:
        temperature = probcore.temperature_for_mean_energy(energies, float(target))
    levels = probcore.EnergyLevels(energies=energies, temperature=temperature)
    dist = probcore.canonical(levels)
    s = probcore.entropy(dist)
    live = dist.probs > probcore.ZERO_CUTOFF
    kkt = np.log(dist.probs[live]) + (energies[live] - energies.min()) / temperature
    rows = [(k, energies[k], dist.probs[k]) for k in range(len(dist))]
    outputs = {"distribution.csv": encode_csv(["level", "energy", "prob"], rows)}
    summary = {
        "log_base": LOG_BASE_NOTE,
        "temperature": temperature,
        "mean_energy": dist.probs @ energies,
        "entropy": s,
        "information": probcore.information(dist, math.log(len(dist))),
        "kkt_spread": kkt.max() - kkt.min(),
    }
    return summary, outputs


def _coefficients_from_param(raw) -> np.ndarray:
    """Real numbers, or [re, im] pairs: the JSON wire format for complex
    numbers, which the summary's ``c`` uses too."""
    arr = np.asarray(raw, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1] if arr.ndim == 2 else arr.astype(complex)


def _run_measure(params: dict, seed: int):
    c = _coefficients_from_param(params["coefficients"])
    system = measurement.SystemState(coefficients=c)
    k = system.n_outcomes
    # the ledger checks its microstate budget, so a bad one fails before the
    # curve; the apparatus, the largest table, is drawn last, once every other
    # key has passed its check
    ledger = measurement.entropy_ledger(system, params["ledger_n_micro"])
    fractions = measurement.outcome_fractions(system)
    counts = measurement.sample_outcomes(system, params["n_members"], _role_seed(seed, 1))
    curve = measurement.suppression_curve(
        [int(m) for m in params["suppression_m"]],
        params["suppression_seeds"],
        _role_seed(seed, 2),
    )
    apparatus = measurement.build_apparatus(params["n_microstates"], k, _role_seed(seed, 0))
    rows = [(i, fractions.probs[i], int(counts[i])) for i in range(k)]
    outputs = {"outcomes.csv": encode_csv(["outcome", "born_fraction", "sampled_count"], rows)}
    summary = {
        "log_base": LOG_BASE_NOTE,
        "seed": seed,
        "M": params["n_microstates"],
        "K": k,
        "c": np.stack((c.real, c.imag), axis=-1),
        "fractions": fractions.probs,
        "max_coherence": measurement.max_coherence(system, apparatus),
        "counts": counts,
        "suppression_curve": curve,
        "ledger": {
            "initial_total": ledger.initial_total,
            "final_coarse": ledger.final_coarse,
            "final_residual": ledger.final_residual,
            "final_total": ledger.final_total,
            "rounding_defect": ledger.rounding_defect,
            "microstate_counts": ledger.microstate_counts,
        },
    }
    return summary, outputs


def _run_cone(params: dict, seed: int):
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
    result = conefall.run_ensemble(
        macro,
        params["n_members"],
        params["n_sectors"],
        fall_threshold=params["fall_threshold"],
        seed=_role_seed(seed, 0),
        dt=params["dt"],
        max_steps=params["max_steps"],
        damping=params["damping"],
    )
    rows = zip(
        range(params["n_members"]),
        result.member_seeds.tolist(),
        result.fall_times.tolist(),
        result.final_azimuths.tolist(),
        result.sectors.tolist(),
    )
    header = ["member", "seed", "fall_time", "final_azimuth", "sector"]
    outputs = {"members.csv": encode_csv(header, rows)}
    summary = {
        "sector_counts": result.sector_counts,
        "n_unresolved": result.n_unresolved,
        # no member fell: no count to test against the uniform law
        "chi_square_uniform": conefall.chi_square_uniform(result.sector_counts)
        if result.sector_counts.any()
        else None,
        "fall_time_stats": result.fall_time_stats(),
        "n_sectors": result.n_sectors,
        "diagnostics": {
            "max_norm_drift": result.max_norm_drift,
            "max_energy_drift": result.max_energy_drift,
        },
    }
    return summary, outputs


def _run_spinecho(params: dict, seed: int):
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
    outputs = {"trace.csv": encode_csv(["t", "magnetization", "binned_entropy"], rows)}
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
    return summary, outputs


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
    CPUs the field transforms, suppression curve, cone members and spin echo
    split across."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "cpu_count": _blocks._cpu_count(),
    }


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


def _non_finite_entry(obj, path: str = "") -> str | None:
    """The dotted path of the first NaN or infinity in a summary, in the
    order the runner built it, numpy arrays read as :func:`encode_json`
    writes them; None when every number is finite."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
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


def run(config: RunConfig) -> int:
    """Execute one experiment; returns the process exit status.

    The outputs of an earlier run in the same directory are deleted first.
    The runner computes every output in memory. Only then, and only if the
    summary is finite, the directory is created and the outputs, the summary
    and the manifest are written, in that order: a failed run creates no
    directory and writes no file.
    """
    started = datetime.now(timezone.utc).isoformat()
    out_dir = config.out_dir
    _remove_previous_outputs(out_dir)
    try:
        summary, outputs = RUNNERS[config.subcommand](config.parameters, config.seed)
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
        print(f"numerics error: summary entry '{entry}' is not finite", file=sys.stderr)
        return EXIT_NUMERICS
    outputs["summary.json"] = encode_json(summary)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (data, _) in outputs.items():
        (out_dir / name).write_bytes(data)
    manifest = {
        "artifact_version": __version__,
        "subcommand": config.subcommand,
        "parameters": config.parameters,
        "seed": config.seed,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "environment": _environment(),
        "outputs": {name: digest for name, (_, digest) in outputs.items()},
    }
    (out_dir / "manifest.json").write_bytes(encode_json(manifest)[0])
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
    # the first of --out and its parents that exists must be a directory
    for path in (args.out, *args.out.parents):
        if os.path.lexists(path):
            if not path.is_dir():
                raise ValidationError(f"--out {str(args.out)!r}: {str(path)!r} is not a directory")
            break

    file_params: dict = {}
    file_seed = None
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an int over 4300 digits
            raise ValidationError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        file_params = dict(loaded)
        file_seed = file_params.pop("seed", None)
        if file_seed is not None and not _is_int(file_seed):
            raise ValidationError(f"parameter 'seed' must be an integer, got {file_seed!r}")
    seed = args.seed if args.seed is not None else (file_seed if file_seed is not None else 0)
    if seed < 0:
        raise ValidationError(f"parameter 'seed' must be a non-negative integer, got {seed!r}")
    params = resolve_parameters(args.subcommand, file_params)
    return RunConfig(subcommand=args.subcommand, parameters=params, seed=int(seed), out_dir=args.out)


def main(argv=None) -> int:
    try:
        config = build_config(argv if argv is not None else sys.argv[1:])
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
