"""Self-tests of the benchmark: oracles, span arithmetic, workload seeding.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import oracles
import tracing
import workloads
from enslab import cli, measurement, probcore, spinecho

BENCH = Path(__file__).resolve().parent.parent

SMALL = {
    "entropy": {},
    "canonical": {"target_mean_energy": 1.0},
    "measure": {"n_microstates": 1000, "suppression_m": [100, 1000], "suppression_seeds": 50},
    "spinecho": {"n": 1000},
    "cone": {"n_members": 64},
    "field": {},
}


def _run(subcommand, out_dir, seed=3):
    params = cli.resolve_parameters(subcommand, SMALL[subcommand])
    assert cli.run(cli.RunConfig(subcommand, params, seed, out_dir)) == 0
    return params


def _rewrite(out_dir, name, edit):
    """Apply ``edit`` to one output and re-sign it in the manifest, so only
    the oracle, not the digest check, can notice."""
    path = out_dir / name
    if name.endswith(".json"):
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
    else:
        path.write_text(edit(path.read_text()))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    manifest["outputs"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    (out_dir / "manifest.json").write_text(json.dumps(manifest))


def _set(*keys, value=None, scale=None):
    def edit(obj):
        *path, last = keys
        for k in path:
            obj = obj[k]
        obj[last] = obj[last] * scale if scale is not None else value

    return edit


def _csv_cell(row, column, value):
    def edit(text):
        lines = text.splitlines()
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"

    return edit


CORRUPTIONS = [
    ("entropy", "summary.json", _set("entropy", "total", value=0.7)),
    ("entropy", "summary.json", _set("information", "residual", value=0.1)),
    ("canonical", "summary.json", _set("mean_energy", value=1.001)),
    ("canonical", "distribution.csv", _csv_cell(1, 2, "0.5")),
    ("measure", "summary.json", _set("fractions", 0, value=0.37)),
    ("measure", "summary.json", _set("ledger", "final_total", value=9.0)),
    ("measure", "summary.json", _set("suppression_curve", 1, 1, scale=2.0)),
    ("spinecho", "summary.json", _set("magnetization_at_echo", value=1.0 - 1e-9)),
    ("spinecho", "trace.csv", _csv_cell(1, 1, "0.5")),
    ("cone", "summary.json", _set("n_unresolved", value=1)),
    ("cone", "summary.json", _set("sector_counts", 0, value=0)),
    ("cone", "members.csv", _csv_cell(1, 4, "9")),
    ("field", "summary.json", _set("one_point_prob", value=0.6)),
    ("field", "summary.json", _set("global_mean", scale=1.0 + 1e-9)),
    ("field", "estimates.csv", _csv_cell(2, 1, "0.55")),
    ("field", "estimates.csv", _csv_cell(5, 1, "0.55")),
]


@pytest.mark.parametrize("subcommand", sorted(SMALL))
def test_oracles_accept_genuine_output(subcommand, tmp_path):
    params = _run(subcommand, tmp_path)
    assert oracles.check(subcommand, params, tmp_path) == []


@pytest.mark.parametrize("subcommand, name, edit", CORRUPTIONS)
def test_oracles_reject_corrupted_output(subcommand, name, edit, tmp_path):
    params = _run(subcommand, tmp_path)
    _rewrite(tmp_path, name, edit)
    assert oracles.check_digests(tmp_path) == []
    assert oracles.check(subcommand, params, tmp_path) != []


def test_digest_check_rejects_unsigned_edit(tmp_path):
    params = _run("entropy", tmp_path)
    (tmp_path / "blocks.csv").write_text("tampered\n")
    assert oracles.check("entropy", params, tmp_path) != []


def test_missing_output_is_a_failure_not_a_crash(tmp_path):
    params = _run("spinecho", tmp_path)
    (tmp_path / "trace.csv").unlink()
    assert oracles.check("spinecho", params, tmp_path) != []


def test_self_time_on_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["a.child", 1.5, 2.0, 1],
        ["b", 2.0, 5.0, 0],  # overlaps a: the union 1..5 counts once
        ["c", 9.0, 12.0, 0],  # runs past its parent: only 9..10 counts
        ["other-root", 20.0, 21.0, -1],
    ]
    assert tracing.self_times(spans) == [5.0, 1.5, 0.5, 3.0, 3.0, 1.0]
    table = tracing.summarize(spans + [["a", 30.0, 31.0, -1]])
    assert table["a"] == {"calls": 2, "total_s": 3.0, "self_s": 2.5}


def test_tracer_nests_calls_through_module_globals():
    ticks = iter(range(1000))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    modules = [sys.modules[f"enslab.{name}"] for name in layers.LAYER_MODULES]
    original = measurement.build_apparatus
    with tracer.patched(layers.targets(cli, modules)):
        measurement.suppression_curve([10], 2, seed=1)
        spinecho.binned_phase_entropy(spinecho.init_ensemble(8, spinecho.FrequencySpread(), 0), 4)
    assert measurement.build_apparatus is original
    assert "from_weights" in vars(probcore.DiscreteDistribution)
    assert isinstance(vars(probcore.DiscreteDistribution)["uniform"], classmethod)
    names = [s[0] for s in tracer.spans]
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    assert names.count("measurement.build_apparatus") == 2
    assert parents["measurement.build_apparatus"] == "measurement.suppression_curve"
    assert parents["probcore.uniform"] == "measurement.build_apparatus"
    # spinecho's own binding of probcore.entropy is patched too
    assert parents["probcore.entropy"] == "spinecho.binned_phase_entropy"
    assert tracer.counts["measurement.build_apparatus"] == 2 * 2 * 10
    assert all(end > start for _, start, end, _ in tracer.spans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_seed_fixes_the_configs(workload):
    first = workloads.experiments(workload, 7)
    assert first == workloads.experiments(workload, 7)
    assert first != workloads.experiments(workload, 8)
    for e in first:
        spelled = set(e.parameters)
        missing = set(cli.SCHEMAS[e.subcommand]) - spelled
        assert missing <= {"target_mean_energy"}, (e.label, missing)
        assert cli.resolve_parameters(e.subcommand, e.parameters)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.METRICS)
    assert [m["unit"] for m in spec["per_layer"]] == [u for u, _ in layers.METRICS.values()]
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS


def test_lattice_offsets_match_the_query_sizes():
    assert len(oracles.lattice_offsets(3, 81, 1.0, 1.0)) == 18
    assert len(oracles.lattice_offsets(3, 162, 1.0, 8.0)) == 762
    assert len(oracles.lattice_offsets(2, 81, 1.0, 0.3)) == 1


def test_rectangle_probability_limits():
    import gaussian

    band = gaussian.normal_cdf(1.0) - gaussian.normal_cdf(-1.0)
    assert gaussian.rectangle_prob(-1.0, 1.0, 0.0)[0] == pytest.approx(band * band, abs=1e-15)
    assert gaussian.rectangle_prob(-1.0, 1.0, 1.0)[0] == pytest.approx(band, abs=1e-12)
    assert math.isclose(gaussian.rectangle_prob(-1.0, 1.0, 0.3)[0], 0.4769287710534489, abs_tol=1e-12)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quick-runs", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_sampler_removes_its_own_time():
    import time

    import calibrate

    with calibrate.SpeedSampler() as speed:
        start = time.perf_counter()
        time.sleep(0.3)
        raw = time.perf_counter() - start
    assert len(speed.samples) >= 3
    assert speed.spent == sum(speed.samples) < raw
    assert speed.scale == calibrate.REFERENCE_S / (sum(speed.samples) / len(speed.samples))
    assert speed.at_reference(raw) == (raw - speed.spent) * speed.scale
