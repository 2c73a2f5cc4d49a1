"""Set-up path of the benchmark: import enslab and resolve a workload's configs.

Run as a script it is the set-up probe: it does exactly that in a fresh
process and prints the monotonic clock reading at which it was ready, so the
parent can time process start to ready, and then the mean time of the
calibration kernel, so the parent can scale that interval to the reference
speed of the CPU it ran on. ``run.py`` calls :func:`resolve` for its own
set-up, so both run the same code.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def resolve(workload: str, seed: int, out_root: Path):
    """Import the CLI from this checkout and build one RunConfig per experiment.

    Raises ImportError when the checkout holds no enslab sources; an enslab
    installed elsewhere is never used.
    """
    if not (SOURCE / "enslab" / "__init__.py").is_file():
        raise ImportError(f"no enslab sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    from enslab import cli

    import workloads

    experiments = workloads.experiments(workload, seed)
    configs = [
        cli.RunConfig(
            subcommand=e.subcommand,
            parameters=cli.resolve_parameters(e.subcommand, e.parameters),
            seed=e.seed,
            out_dir=out_root / e.label,
        )
        for e in experiments
    ]
    return cli, configs


if __name__ == "__main__":
    resolve(sys.argv[1], int(sys.argv[2]), ROOT / "perfbench" / "out" / "probe")
    ready = time.monotonic()
    import calibrate

    print(ready, calibrate.mean_kernel(30))
