"""Studies of one workload: untraced through the CLI, traced through the layers.

The untraced study does what ``cli.run_experiment`` does: ``cli.run_level``
per level, then ``cli.write_report``.  The traced study repeats each level's
steps through the public calls of each layer, one span per call, and must
produce the same ``ErrorRecord`` bit for bit.
"""

import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from hho_control import cli
from hho_control.control_constrained import ConstrainedSolution, solve_wc2
from hho_control.control_unconstrained import OptimalitySolution, solve_uc1
from hho_control.errors import (QUANTITIES, ConvergenceReport, ErrorRecord,
                                energy_error, l2_error_control,
                                l2_error_reconstruction)
from hho_control.hho_core import HhoSpace
from hho_control.mesh import make_cartesian, make_voronoi

from tracing import duration, self_times
from workloads import WORKLOADS

UC_RESIDUAL_MAX = 1e-10
LAYERS = ("mesh", "hho_core", "control_unconstrained", "control_constrained",
          "errors", "cli")


@dataclass
class Study:
    records: list
    solver: list
    report_csv: bytes
    report_bytes: int
    level_s: list = field(default_factory=list)
    report_s: float = 0.0
    kernel_s: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    trace_ids: list = field(default_factory=list)

    @property
    def study_s(self):
        return sum(self.level_s) + self.report_s


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def solver_stats(sol):
    if isinstance(sol, OptimalitySolution):
        return {"residual_max": max(sol.residuals.values())}
    if isinstance(sol, ConstrainedSolution):
        return {"iterations": sol.iterations,
                "final_increment": sol.final_increment}
    raise TypeError(f"unexpected solution type {type(sol).__name__}")


@contextmanager
def observe_solver(scheme, sink):
    """Record each solve's residual or increment as ``cli.run_level`` runs.

    ``run_level`` drops the solution, so the residual and increment checks
    need this pass-through around the solver that ``cli`` calls.
    """
    name = f"solve_{scheme}"
    original = getattr(cli, name)

    def observed(*args, **kwargs):
        sol = original(*args, **kwargs)
        sink.append(solver_stats(sol))
        return sol

    setattr(cli, name, observed)
    try:
        yield
    finally:
        setattr(cli, name, original)


def _report(records, out_dir):
    cli.write_report(ConvergenceReport(records), out_dir)


def _report_files(out_dir):
    out = Path(out_dir)
    size = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return (out / "report.csv").read_bytes(), size


def run_study(cfg, prob, calibrator):
    """Time ``cli.run_level`` per level and the report.

    The calibration kernel runs before the first level and after each level,
    outside the timed steps, to sample the host's speed during the run.
    """
    records, level_s, solver = [], [], []
    kernel_s = [calibrator.kernel_s()]
    with observe_solver(cfg.scheme, solver):
        for level in cfg.levels:
            t = time.perf_counter()
            records.append(cli.run_level(cfg, prob, level))
            level_s.append(time.perf_counter() - t)
            kernel_s.append(calibrator.kernel_s())
        t = time.perf_counter()
        _report(records, cfg.output_dir)
        report_s = time.perf_counter() - t
    csv, size = _report_files(cfg.output_dir)
    return Study(records, solver, csv, size, level_s=level_s,
                 report_s=report_s, kernel_s=kernel_s)


def _traced_level(tracer, cfg, prob, level, trace_id):
    span = partial(tracer.span, trace_id=trace_id)
    with span("bench.level"):
        with span("mesh.generate"):
            if cfg.mesh_family == "cartesian":
                mesh = make_cartesian(level)
            else:
                mesh = make_voronoi(level, rng_seed=cfg.rng_seed,
                                    lloyd_iters=cfg.lloyd_iters)
        with span("hho_core.space"):
            if cfg.scheme == "uc1":
                space = HhoSpace(mesh, cfg.degree, dirichlet=True)
            else:  # wc2 uses the fixed mixed-order space V^{1+}
                space = HhoSpace(mesh, 1, cell_degree=2, dirichlet=True)
        with span("hho_core.local_ops"):
            ops = space.local_ops()
        with span("hho_core.stiffness_matrix"):
            stiffness = space.stiffness_matrix()
        with span("hho_core.cell_mass_matrix"):
            space.cell_mass_matrix()
        rss_before = maxrss_mb()
        if cfg.scheme == "uc1":
            with span("control_unconstrained.solve_uc1"):
                sol = solve_uc1(space, prob)
        else:
            with span("control_constrained.solve_wc2"):
                sol = solve_wc2(space, prob, cfg.pgd)
        rss_delta = maxrss_mb() - rss_before
        exact = prob.exact
        with span("mesh.max_diameter"):
            h = mesh.max_diameter()
        with span("errors.l2_error_control"):
            err_u = l2_error_control(sol, exact.u)
        with span("errors.energy_error"):
            err_y = energy_error(space, sol.y, exact.y)
        with span("errors.energy_error"):
            err_phi = energy_error(space, sol.phi, exact.phi)
        with span("errors.l2_error_reconstruction"):
            rec_y = l2_error_reconstruction(space, sol.y, exact.y)
        with span("errors.l2_error_reconstruction"):
            rec_phi = l2_error_reconstruction(space, sol.phi, exact.phi)
    record = ErrorRecord(
        level=level, h=h, n_cells=mesh.n_cells, err_u_l2=err_u,
        err_y_energy=err_y, err_phi_energy=err_phi, err_y_l2_recon=rec_y,
        err_phi_l2_recon=rec_phi, iters=getattr(sol, "iterations", None))
    counts = {"n_cells": mesh.n_cells, "n_faces": mesh.n_faces,
              "kernels": len({id(op.G) for op in ops}),
              "n_dofs": space.n_dofs, "n_active_dofs": len(space.active_dofs),
              "stiffness_nnz": stiffness.nnz, "rss_delta_mb": rss_delta}
    return record, solver_stats(sol), counts


def run_traced_study(tracer, cfg, prob, tag):
    """Repeat the study's levels through the layer calls, one span per call."""
    records, solver, counts, trace_ids = [], [], [], []
    for level in cfg.levels:
        trace_id = f"{tag}/level-{level}"
        record, stats, level_counts = _traced_level(tracer, cfg, prob, level,
                                                    trace_id)
        records.append(record)
        solver.append(stats)
        counts.append(level_counts)
        trace_ids.append(trace_id)
    report_id = f"{tag}/report"
    with tracer.span("cli.write_report", report_id):
        _report(records, cfg.output_dir)
    csv, size = _report_files(cfg.output_dir)
    study = Study(records, solver, csv, size, trace_ids=trace_ids)
    study.layers = {"counts": counts[-1], "solver": solver[-1],
                    "level_spans": tracer.of_trace(trace_ids[-1]),
                    "report_spans": tracer.of_trace(report_id)}
    return study


def layer_metrics(traced, untraced_level_s):
    """Per-layer metrics of the traced study's finest level and its report."""
    spans = traced.layers["level_spans"]
    report_spans = traced.layers["report_spans"]
    counts, stats = traced.layers["counts"], traced.layers["solver"]
    time_of = {}
    for s in spans + report_spans:
        time_of[s["name"]] = time_of.get(s["name"], 0.0) + duration(s)
    uc = "residual_max" in stats
    uc_solve_s = time_of.get("control_unconstrained.solve_uc1", 0.0)
    wc_solve_s = time_of.get("control_constrained.solve_wc2", 0.0)
    iterations = stats.get("iterations", 0)
    level_span = next(s for s in spans if s["name"] == "bench.level")
    metrics = {
        "mesh.generate_s": time_of["mesh.generate"],
        "mesh.n_cells": counts["n_cells"],
        "mesh.n_faces": counts["n_faces"],
        "hho_core.local_ops_s": time_of["hho_core.local_ops"],
        "hho_core.kernels": counts["kernels"],
        "hho_core.kernel_reuse": counts["n_cells"] / counts["kernels"],
        "hho_core.assemble_s": (time_of["hho_core.stiffness_matrix"]
                                + time_of["hho_core.cell_mass_matrix"]),
        "hho_core.n_dofs": counts["n_dofs"],
        "hho_core.n_active_dofs": counts["n_active_dofs"],
        "hho_core.stiffness_nnz": counts["stiffness_nnz"],
        # the uc1 optimality system couples state and adjoint on the active DOFs
        "control_unconstrained.solve_s": uc_solve_s,
        "control_unconstrained.system_unknowns":
            2 * counts["n_active_dofs"] if uc else 0,
        "control_unconstrained.residual_max": stats.get("residual_max", 0.0),
        "control_unconstrained.rss_delta_mb": counts["rss_delta_mb"] if uc else 0.0,
        "control_constrained.solve_s": wc_solve_s,
        "control_constrained.iterations": iterations,
        "control_constrained.iter_s": wc_solve_s / iterations if iterations else 0.0,
        "control_constrained.final_increment": stats.get("final_increment", 0.0),
        "errors.control_l2_s": time_of["errors.l2_error_control"],
        "errors.energy_s": time_of["errors.energy_error"],
        "errors.recon_l2_s": time_of["errors.l2_error_reconstruction"],
        "cli.report_s": time_of["cli.write_report"],
        "cli.report_bytes": traced.report_bytes,
        "trace.overhead_s": duration(level_span) - untraced_level_s,
    }
    own = self_times(spans + report_spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = own.get(layer, 0.0)
    return metrics


def _close(a, b, rel_tol):
    return abs(a - b) <= rel_tol * abs(b)


def check_study(study, workload, seed, cfg, reference, first_csv):
    """Failures of one study's output; an empty list means the study passed."""
    failures = []
    records = study.records
    ref = reference["workloads"][workload]
    if ref["seed"] is None or ref["seed"] == seed:
        tol = reference["rel_tol"]
        if [r.level for r in records] != [r["level"] for r in ref["records"]]:
            failures.append("levels differ from the reference")
        for got, want in zip(records, ref["records"]):
            if got.n_cells != want["n_cells"]:
                failures.append(f"level {got.level}: n_cells {got.n_cells} "
                                f"!= reference {want['n_cells']}")
            for q in ("h",) + QUANTITIES:
                if not _close(getattr(got, q), want[q], tol):
                    failures.append(f"level {got.level}: {q} {getattr(got, q)!r}"
                                    f" != reference {want[q]!r}")
    values = [getattr(r, q) for r in records for q in QUANTITIES]
    if not all(math.isfinite(v) and v > 0 for v in values):
        failures.append("an error is not a finite positive number")
    else:
        rate = ConvergenceReport(records).final_rate("err_u_l2")
        lo, hi = WORKLOADS[workload]["rate_window"]
        if not lo <= rate <= hi:
            failures.append(f"final err_u_l2 EOC {rate:.4f} outside [{lo}, {hi}]")
    if len(study.solver) != len(records):
        failures.append(f"{len(study.solver)} solves seen for {len(records)} levels")
    for level, stats in zip(cfg.levels, study.solver):
        if "residual_max" in stats and not stats["residual_max"] <= UC_RESIDUAL_MAX:
            failures.append(f"level {level}: residual {stats['residual_max']:.3e}"
                            f" > {UC_RESIDUAL_MAX:.0e}")
        if "final_increment" in stats and not stats["final_increment"] <= cfg.pgd.tol:
            failures.append(f"level {level}: increment "
                            f"{stats['final_increment']:.3e} > {cfg.pgd.tol:.0e}")
    if first_csv is not None and study.report_csv != first_csv:
        failures.append("report.csv differs from the run's first study")
    return failures
