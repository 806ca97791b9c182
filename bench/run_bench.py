"""Convergence-study benchmark of hho-control.

    python3 bench/run_bench.py --workload uc1-cartesian --seed 1 --seconds 30 --trace 0

One closed-loop client in one process: studies of the workload run one at a
time, each level in order, until the next study would overrun ``--seconds``
(at least one study runs).  Before that, ``setup_s`` is measured in several
fresh interpreters (bench/probe.py).  BLAS threads are capped at the number
of CPUs the process may use.

With ``--trace 0`` each study is untraced and the end-to-end metrics are
reported: ``setup_s``, ``level_s`` and ``study_s`` are median wall times
scaled to a reference host speed (see calibrate.py), with the raw medians
beside them.
With ``--trace 1`` each round runs a traced study (one span per layer call,
see studies.py) and then an untraced one, and the per-layer metrics of the
finest level are reported.

Every study is checked (studies.check_study); a study that fails a check or
raises counts in ``failed``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
results, with samples, run metadata and spans, go to
``bench/runs/<run>/result.json``.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_PROBES = 5
FORMAT = "hho-control-bench/1"
METHOD = ("Times only the benchmark's own processes, by time.perf_counter; "
          "setup_s, level_s and study_s are scaled by the host speed a "
          "calibration kernel measured during the run. No caches are dropped "
          "and no CPUs are pinned.")


def cap_blas_threads():
    for var in BLAS_THREAD_VARS:
        try:
            n = int(os.environ.get(var, NPROC))
        except ValueError:
            n = NPROC
        os.environ[var] = str(min(max(n, 1), NPROC))


def git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_metadata(loadavg):
    return {
        "nproc": NPROC,
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "sympy": importlib.metadata.version("sympy"),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "loadavg_start": loadavg,
        "method": METHOD,
    }


def probe_setup(workload, count):
    """Time import and problem set-up in ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload],
                             capture_output=True, text=True, timeout=120,
                             cwd=ROOT)
        if out.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{out.stderr}")
        samples.append(json.loads(out.stdout.splitlines()[-1]))
    return samples


def summarize(samples):
    """Median and sample count; the highest percentile with >= 10 samples beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    for p in (99, 95, 90):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            out[f"p{p}"] = ordered[rank - 1]
            break
    return out


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed; becomes rng_seed of Voronoi meshes")
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget of the studies")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_units(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for a trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class StudyLog:
    """Every attempted study with the failures its checks found.

    A study that raises counts as failed.  The first completed study's
    ``report.csv`` is the reference for the byte-identity check.
    """

    def __init__(self, check):
        self.entries = []
        self._check = check
        self._first_csv = None

    def attempt(self, kind, cfg, run):
        entry = {"kind": kind}
        self.entries.append(entry)
        try:
            study = run(cfg)
            entry["failures"] = self._check(study, cfg, self._first_csv)
        except Exception:  # noqa: BLE001 - a crashing study is a failed op
            entry["failures"] = [traceback.format_exc()]
            return None, entry
        if self._first_csv is None:
            self._first_csv = study.report_csv
        entry.update(records=[vars(r) for r in study.records],
                     solver=study.solver, level_s=study.level_s,
                     report_s=study.report_s, kernel_s=study.kernel_s,
                     trace_ids=study.trace_ids)
        return study, entry

    def failures(self):
        return [f"{e['kind']} study {i}: {f}"
                for i, e in enumerate(self.entries, start=1) for f in e["failures"]]

    def failed(self):
        return sum(1 for e in self.entries if e["failures"])


def run_rounds(seconds, new_config, prob, calibrator, tracer, log):
    """Run rounds until the next would overrun ``seconds``; return samples.

    A round is one untraced study, preceded by a traced one when tracing.
    """
    import studies

    samples = {"level_wall_s": [], "study_wall_s": [], "kernel_s": [],
               "layers": []}
    round_s = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        tag = f"round-{len(round_s) + 1}"
        traced = None
        if tracer is not None:
            traced, traced_entry = log.attempt(
                "traced", new_config(f"{tag}-traced"),
                lambda cfg: studies.run_traced_study(tracer, cfg, prob, tag))
        study, _ = log.attempt("untraced", new_config(f"{tag}-untraced"),
                               lambda cfg: studies.run_study(cfg, prob, calibrator))
        if study is not None:
            samples["level_wall_s"].append(study.level_s[-1])
            samples["study_wall_s"].append(study.study_s)
            samples["kernel_s"].extend(study.kernel_s)
            if traced is not None:
                if traced.records != study.records:
                    traced_entry["failures"].append(
                        "ErrorRecords differ from the untraced study's")
                samples["layers"].append(
                    studies.layer_metrics(traced, study.level_s[-1]))
        round_s.append(time.perf_counter() - start)
        if time.perf_counter() - t0 + statistics.median(round_s) > seconds:
            return samples


def main(argv=None):
    loadavg = os.getloadavg()
    args = parse_args(argv)
    if not (ROOT / "src" / "hho_control" / "__init__.py").is_file():
        sys.exit(f"error: no hho_control package under {ROOT / 'src'}")
    units = declared_units(args.trace)
    cap_blas_threads()
    probes = probe_setup(args.workload, SETUP_PROBES)

    sys.path.insert(0, str(ROOT / "src"))
    from hho_control import cli

    import studies
    from calibrate import Calibrator, normalized
    from tracing import Tracer
    from workloads import config_kwargs

    meta = run_metadata(loadavg)
    reference = json.loads((BENCH / "reference.json").read_text())
    stamp = time.strftime("%Y%m%d-%H%M%S")
    run_dir = BENCH / "runs" / (f"{stamp}-{os.getpid()}-{args.workload}"
                                f"-seed{args.seed}-trace{args.trace}")
    run_dir.mkdir(parents=True)

    def new_config(out_name):
        return cli.ExperimentConfig(**config_kwargs(
            args.workload, args.seed, output_dir=str(run_dir / out_name)))

    log = StudyLog(lambda study, cfg, first_csv: studies.check_study(
        study, args.workload, args.seed, cfg, reference, first_csv))
    tracer = Tracer() if args.trace else None
    samples = run_rounds(args.seconds, new_config,
                         new_config("problem").build_problem(), Calibrator(),
                         tracer, log)
    failures, failed = log.failures(), log.failed()
    if not samples["kernel_s"] or (tracer is not None and not samples["layers"]):
        print("\n".join(failures), file=sys.stderr)
        sys.exit("error: no study completed")

    if tracer is None:
        # Scale every time by the host speed the run saw: the median kernel
        # time over its studies, which follow the set-up probes directly.
        samples["setup_wall_s"] = [p["import_s"] + p["problem_s"] for p in probes]
        speed = statistics.median(samples["kernel_s"])
        for name in ("setup", "level", "study"):
            samples[f"{name}_s"] = [normalized(t, speed)
                                    for t in samples[f"{name}_wall_s"]]
        samples["peak_rss_mb"] = [studies.maxrss_mb()]
    else:
        layers = samples["layers"]
        samples = {name: [r[name] for r in layers] for name in layers[0]}
        # ru_maxrss is a high-water mark: only the first round can raise it
        samples["control_unconstrained.rss_delta_mb"] = [
            layers[0]["control_unconstrained.rss_delta_mb"]]
        samples["setup.import_s"] = [p["import_s"] for p in probes]
        samples["presets.problem_s"] = [p["problem_s"] for p in probes]
    metrics = {name: dict(summarize(samples[name]), unit=unit)
               for name, unit in units.items()}
    # raw wall times beside their normalized metrics; reported, not gated
    wall = {name: dict(summarize(values), unit="s")
            for name, values in samples.items() if name.endswith("_wall_s")}

    result = {
        "format": FORMAT, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "meta": meta,
        "correct": failed == 0, "attempted": len(log.entries), "failed": failed,
        "failures": failures, "metrics": metrics, "wall_metrics": wall,
        "setup_probes": probes, "studies": log.entries,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"results {run_dir.relative_to(ROOT)}/result.json")
    for name, m in list(metrics.items()) + list(wall.items()):
        extra = "".join(f"  {k} {m[k]:.6g}" for k in ("p99", "p95", "p90") if k in m)
        print(f"  {name:40s} {m['median']:.6g} {m['unit']}  (median of {m['n']}){extra}")
    print(f"  ops_attempted {len(log.entries)}  ops_failed {failed}")
    for line in failures:
        print(f"  FAILED: {line}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(log.entries), "failed": failed,
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))


if __name__ == "__main__":
    main()
