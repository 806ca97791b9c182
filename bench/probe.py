"""Set-up probe, run in a fresh interpreter by run_bench.py.

Times ``import hho_control`` (with its CLI module) and
``ExperimentConfig.build_problem()`` for one workload, and prints both on one
JSON line.  Usage: ``python3 bench/probe.py <workload>``.
"""

import json
import sys
import time
from pathlib import Path

from workloads import config_kwargs

ROOT = Path(__file__).resolve().parent.parent


def main(workload):
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import hho_control  # noqa: F401
    from hho_control import cli
    t1 = time.perf_counter()
    cli.ExperimentConfig(**config_kwargs(workload, seed=0)).build_problem()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "problem_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1])
