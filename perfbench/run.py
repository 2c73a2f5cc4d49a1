"""Benchmark of the enslab CLI experiments, run in-process through ``cli.run``.

    python3 perfbench/run.py --workload cone-fall --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
One pass runs every experiment of the workload once, from resolved configs
to outputs written and hashed. A first, warm-up pass is recorded but not
reported; further passes repeat the same experiments while the time budget
allows another, and their median is ``run_s``. Set-up is timed in fresh
processes. Outputs are checked against oracles after the timers stop.

Times are reported at a reference machine speed: a calibration kernel
sampled on the same CPU while each interval runs cancels the host's speed
drift (see calibrate.py). The raw times are kept in the result record.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates traced
and untraced passes and prints the per-layer metrics, medians over the
traced passes, plus the tracing overhead.

The last line of standard output is the JSON result; the line before it
records the environment and the pass times. Outputs, spans and results are
written under ``perfbench/out``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy loads: the benchmark targets a
# 2-CPU machine and runs one process at a time
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
OUT = probe.ROOT / "perfbench" / "out"
UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def time_setup(workload: str, seed: int) -> list:
    """(raw, at reference speed) times from spawning a fresh interpreter to
    its set-up being done. The monotonic clock is shared by all processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, probe.__file__, workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        ready, kernel_s = (float(v) for v in proc.stdout.split())
        raw = ready - start
        samples.append((raw, raw * calibrate.REFERENCE_S / kernel_s))
    return samples


def run_pass(cli, configs, tracer=None) -> dict:
    """Run every experiment once: exit statuses (None for a traceback), output
    digests, and the time both as measured and at the reference speed."""
    statuses = []
    run = cli.run if tracer is None else tracer.wrap(cli.run, "cli.run")
    with calibrate.SpeedSampler() as speed:
        start = time.perf_counter()
        for config in configs:
            try:
                statuses.append(run(config))
            except Exception:  # a traceback fails the experiment, not the benchmark
                traceback.print_exc()
                statuses.append(None)
        raw = time.perf_counter() - start
    return {
        "traced": tracer is not None,
        "raw_s": raw,
        "seconds": speed.at_reference(raw),
        "scale": speed.scale,
        "statuses": statuses,
        "digests": [_digests(c.out_dir) for c in configs],
    }


def _digests(out_dir):
    try:
        return json.loads((out_dir / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, KeyError):
        return None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out_root = OUT / workload
    shutil.rmtree(out_root, ignore_errors=True)
    cli, configs = probe.resolve(workload, seed, out_root)
    setup = [] if trace else time_setup(workload, seed)
    modules = [sys.modules[f"enslab.{name}"] for name in layers.LAYER_MODULES]
    targets = layers.targets(cli, modules)

    start = time.perf_counter()
    passes = [run_pass(cli, configs)]
    tracers, traced_metrics = [], []
    while True:
        warm = passes[1:]
        enough = any(not p["traced"] for p in warm) and (not trace or any(p["traced"] for p in warm))
        typical = statistics.median(p["raw_s"] for p in passes)
        if enough and time.perf_counter() - start + typical > seconds:
            break
        if trace and len(warm) % 2 == 0:
            tracer = tracing.Tracer()
            with tracer.patched(targets):
                passes.append(run_pass(cli, configs, tracer))
            tracers.append(tracer)
            table = tracing.summarize(tracer.spans)
            traced_metrics.append(layers.pass_metrics(table, tracer.counts, configs, passes[-1]["scale"]))
        else:
            passes.append(run_pass(cli, configs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    messages = []
    verdicts = []
    for config in configs:
        problems = oracles.check(config.subcommand, config.parameters, config.out_dir)
        verdicts.append(not problems)
        messages += [f"{config.out_dir.name}: {p}" for p in problems]
    reference = passes[0]["digests"]
    failed = sum(
        not ok or status != 0 or digest is None or digest != ref
        for p in passes
        for ok, status, digest, ref in zip(verdicts, p["statuses"], p["digests"], reference)
    )

    untraced = [p["seconds"] for p in passes[1:] if not p["traced"]]
    traced = [p["seconds"] for p in passes if p["traced"]]
    if trace:
        metrics, problems = layers.aggregate(traced_metrics)
        messages += problems
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        (OUT / f"spans-{workload}-{seed}.json").write_text(json.dumps([t.spans for t in tracers]))
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
    else:
        metrics = {
            "setup_s": statistics.median(at_reference for _, at_reference in setup),
            "run_s": statistics.median(untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        units = UNITS
    return {
        "correct": failed == 0 and not messages,
        "attempted": len(configs) * len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "messages": messages,
        "passes": {
            "raw_s": [p["raw_s"] for p in passes],
            "at_reference_s": [p["seconds"] for p in passes],
            "traced": [p["traced"] for p in passes],
            "setup_raw_s": [raw for raw, _ in setup],
            "setup_at_reference_s": [at_reference for _, at_reference in setup],
        },
    }


def environment(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": workload,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "environment": env}, indent=1))
    for message in result.pop("messages"):
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps({"environment": env, "passes": result.pop("passes")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
