"""Per-layer metrics: which calls are traced and how spans become numbers.

The layers are the enslab modules the CLI reaches. ``quantum`` is left out:
no CLI path calls it. Every public function of a layer module is wrapped,
under the span name ``<module>.<function>``, wherever a layer module holds a
reference to it, so calls the CLI makes and calls one module makes into
another are both recorded.

``METRICS`` records, for each per-layer metric, its unit and the end-to-end
metric and workload it should move; later changes cite these by name.
"""

from __future__ import annotations

import inspect
import math
import pathlib
import statistics

import numpy as np

import oracles

LAYER_MODULES = ("probcore", "randomfield", "measurement", "conefall", "spinecho")

# name -> (unit, the end-to-end metric and workload it should move)
METRICS = {
    "cone.sample_s": ("s", "run_s on cone-fall"),
    "cone.integrate_s": ("s", "run_s on cone-fall"),
    "cone.ns_per_member_step": ("ns", "run_s on cone-fall"),
    "cone.steps": ("count", "exact count; fixed per-step cost of run_s on cone-fall"),
    "cone.member_steps": ("count", "exact count; per-member cost of run_s on cone-fall"),
    "field.generate_s": ("s", "run_s, peak_rss_mb on field-far and quick-runs"),
    "field.indicator_s": ("s", "run_s on field-far"),
    "field.indicator_calls": ("count", "exact count; run_s on field-far"),
    "field.hierarchy_s": ("s", "run_s on field-far"),
    "field.two_point_s": ("s", "run_s on field-far; unchanged on quick-runs"),
    "field.isotropy_s": ("s", "run_s on field-far; unchanged on quick-runs"),
    "field.offsets": ("count", "exact count; run_s on field-far"),
    "field.points": ("count", "exact count; run_s on field-far"),
    "field.ns_per_point_offset": ("ns", "run_s on field-far; unchanged on quick-runs"),
    "measure.apparatus_s": ("s", "run_s on quick-runs"),
    "measure.apparatus_builds": ("count", "exact count; run_s on quick-runs"),
    "measure.phases_drawn": ("count", "exact count; run_s on quick-runs"),
    "measure.suppression_s": ("s", "run_s on quick-runs"),
    "measure.curve_self_s": ("s", "run_s on quick-runs"),
    "echo.evolve_s": ("s", "run_s on quick-runs"),
    "echo.magnetization_s": ("s", "run_s on quick-runs"),
    "echo.entropy_s": ("s", "run_s on quick-runs"),
    "echo.samples": ("count", "exact count; run_s on quick-runs"),
    "echo.spin_samples": ("count", "exact count; run_s on quick-runs"),
    "probcore.calls": ("count", "exact count; run_s on quick-runs"),
    "probcore.self_s": ("s", "run_s on quick-runs"),
    "cli.write_s": ("s", "run_s on quick-runs (per run) and field-far (bulk bytes)"),
    "cli.hash_s": ("s", "run_s on quick-runs (per run) and field-far (bulk bytes)"),
    "cli.bytes_written": ("bytes", "exact count; run_s on field-far"),
    "cli.self_s": ("s", "run_s on quick-runs"),
    "trace.overhead_s": ("s", "traced minus untraced pass time; moves no end-to-end metric"),
}

# counts that must repeat exactly across passes of the same code and seed
EXACT_COUNTS = {name for name, (_, moves) in METRICS.items() if moves.startswith("exact count")}


def targets(cli, modules) -> list:
    """(owner, attribute, span name, counter) for every call site to trace."""
    by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
    public = {}
    for short, module in by_name.items():
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr, None)
            if inspect.isfunction(obj):
                public[obj] = f"{short}.{attr}"
    phases = lambda apparatus: int(apparatus.phases.size)  # noqa: E731
    out = []
    for module in (cli, *by_name.values()):
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj in public:
                count = phases if public[obj] == "measurement.build_apparatus" else None
                out.append((module, attr, public[obj], count))
    dist = by_name["probcore"].DiscreteDistribution
    out += [(dist, name, f"probcore.{name}", None) for name in ("from_weights", "uniform")]
    out += [
        (cli, "write_csv", "cli.write", None),
        (cli, "write_json", "cli.write", None),
        (pathlib.Path, "write_bytes", "cli.write", None),
        (cli, "sha256_of", "cli.hash", None),
    ]
    return out


def _field_work(configs) -> tuple:
    """(offsets, points, point-offset pairs) of every two-point query."""
    offsets = points = pairs = 0
    for c in configs:
        if c.subcommand != "field":
            continue
        p = c.parameters
        n = sum(len(oracles.lattice_offsets(p["dim"], p["side"], p["spacing"], float(r))) for r in p["two_point_r"])
        iso = oracles.lattice_offsets(p["dim"], p["side"], p["spacing"], float(p["isotropy_r"]))
        n += int(np.count_nonzero(iso.any(axis=1)))
        size = p["side"] ** p["dim"]
        offsets, points, pairs = offsets + n, points + size, pairs + n * size
    return offsets, points, pairs


def _output_counts(configs) -> dict:
    """Exact work counts: the field queries' sizes, the rest read back from the
    files the runs wrote."""
    steps = member_steps = samples = spin_samples = written = 0
    for c in configs:
        try:
            written += sum(f.stat().st_size for f in c.out_dir.iterdir() if f.is_file())
            if c.subcommand == "cone":
                falls = [float(r["fall_time"]) for r in oracles.read_rows(c.out_dir / "members.csv")]
                per_member = [math.ceil(t / c.parameters["dt"] - 1e-6) for t in falls if math.isfinite(t)]
                steps = max([steps, *per_member])
                member_steps += sum(per_member)
            elif c.subcommand == "spinecho":
                n_rows = len(oracles.read_rows(c.out_dir / "trace.csv"))
                samples += n_rows
                spin_samples += n_rows * c.parameters["n"]
        except (OSError, KeyError, ValueError):
            continue  # missing or malformed outputs are the oracles' to report
    offsets, points, pairs = _field_work(configs)
    return {
        "field.point_offsets": pairs,
        "cone.steps": steps,
        "cone.member_steps": member_steps,
        "field.offsets": offsets,
        "field.points": points,
        "echo.samples": samples,
        "echo.spin_samples": spin_samples,
        "cli.bytes_written": written,
    }


def pass_metrics(table: dict, counts: dict, configs, scale: float) -> dict:
    """Per-layer metrics of one traced pass from its span summary and counters.

    Times are multiplied by ``scale``, the pass's factor to the reference
    speed (see calibrate.py), like the end-to-end times.
    """

    def total(name):
        return table.get(name, {}).get("total_s", 0.0) * scale

    def own(name):
        return table.get(name, {}).get("self_s", 0.0) * scale

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = _output_counts(configs)
    pairs = out.pop("field.point_offsets")
    probcore = [v for k, v in table.items() if k.startswith("probcore.")]
    field_pairs_s = total("randomfield.two_point_prob") + total("randomfield.isotropy_report")
    metrics = {
        "cone.sample_s": total("conefall.sample_initial"),
        "cone.integrate_s": own("conefall.run_ensemble"),
        "cone.ns_per_member_step": ratio(own("conefall.run_ensemble") * 1e9, out["cone.member_steps"]),
        "field.generate_s": total("randomfield.generate"),
        "field.indicator_s": total("randomfield.indicator"),
        "field.indicator_calls": calls("randomfield.indicator"),
        "field.hierarchy_s": total("randomfield.hierarchical_average"),
        "field.two_point_s": total("randomfield.two_point_prob"),
        "field.isotropy_s": total("randomfield.isotropy_report"),
        "field.ns_per_point_offset": ratio(field_pairs_s * 1e9, pairs),
        "measure.apparatus_s": total("measurement.build_apparatus"),
        "measure.apparatus_builds": calls("measurement.build_apparatus"),
        "measure.phases_drawn": counts.get("measurement.build_apparatus", 0),
        "measure.suppression_s": total("measurement.suppression_curve"),
        "measure.curve_self_s": own("measurement.suppression_curve"),
        "echo.evolve_s": total("spinecho.evolve"),
        "echo.magnetization_s": total("spinecho.magnetization"),
        "echo.entropy_s": total("spinecho.binned_phase_entropy"),
        "probcore.calls": sum(v["calls"] for v in probcore),
        "probcore.self_s": sum(v["self_s"] for v in probcore) * scale,
        "cli.write_s": total("cli.write"),
        "cli.hash_s": total("cli.hash"),
        "cli.self_s": own("cli.run"),
    }
    metrics.update(out)
    return metrics


def aggregate(per_pass: list) -> tuple:
    """Medians over traced passes, and a message for each exact count that
    did not repeat. ``trace.overhead_s`` is left to the caller."""
    metrics, problems = {}, []
    for name in METRICS:
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m in per_pass]
        if name in EXACT_COUNTS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs across passes of the same seed: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return metrics, problems
