"""Every level of the benchmark ladders agrees with ``bench/reference.json``.

The benchmark checks each study it runs against the reference records at the
file's ``rel_tol``, and counts a study that misses it as failed.  The level
pins of ``test_level_regression.py`` cover only the first level of each
ladder, so this test runs every ladder of ``bench/workloads.py`` at the
reference's seed and makes the same comparison: a change that would make
the benchmark report incorrect outputs fails here first.  It reads the
benchmark's files and changes nothing under ``bench/``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from hho_control import cli
from hho_control.errors import QUANTITIES

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _workloads():
    # plain data (no package import), loaded from its file: bench/ is no package
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("workload", sorted(REFERENCE["workloads"]))
def test_benchmark_ladder_matches_the_reference(workload, tmp_path):
    ref = REFERENCE["workloads"][workload]
    seed = 42 if ref["seed"] is None else ref["seed"]
    cfg = cli.ExperimentConfig(**WORKLOADS.config_kwargs(workload, seed,
                                                         str(tmp_path)))
    assert list(cfg.levels) == [r["level"] for r in ref["records"]]
    tol = REFERENCE["rel_tol"]
    for level, want in zip(cfg.levels, ref["records"]):
        record = cli.run_level(cfg, cfg.problem, level)
        assert record.n_cells == want["n_cells"]
        for q in ("h",) + QUANTITIES:
            got = getattr(record, q)
            assert abs(got - want[q]) <= tol * abs(want[q]), (level, q, got,
                                                              want[q])
