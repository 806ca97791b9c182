"""Experiment harness: configs, convergence runs, CSV/Markdown/TSV emission.

`hho-control run` builds one mesh per level, solves the selected scheme,
collects the error record and writes `report.csv`, `report.md` and plot-ready
TSV data.  Output is byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import presets as presets_mod
from .control_constrained import PgdConfig, solve_wc1, solve_wc2
from .control_unconstrained import (SCHEMES, ControlProblem, check_scheme,
                                    solve_uc1, solve_uc2, solve_uc31,
                                    solve_uc32)
from .errors import (QUANTITIES, ConvergenceReport, ErrorRecord, energy_error,
                     l2_error_control, l2_error_reconstruction)
from .hho_core import HhoSpace
from .mesh import is_count, make_cartesian, make_voronoi, write_mesh


class ConfigError(ValueError):
    """Invalid experiment configuration."""


MESH_FAMILIES = ("cartesian", "voronoi")

CSV_HEADER = ("level,h,n_cells,err_u_l2,rate_u,err_y_energy,rate_y,"
              "err_phi_energy,rate_phi,err_y_l2_recon,rate_y_recon,"
              "err_phi_l2_recon,rate_phi_recon,iters")


@dataclass(frozen=True)
class ExperimentConfig:
    """A convergence study, checked on construction, which builds ``problem``.

    Frozen, with ``levels`` kept as a tuple, so ``problem`` and the checked
    levels always match the fields; a changed study is a new config, e.g.
    ``dataclasses.replace(cfg, lam=0.5)``.
    """

    scheme: str
    degree: int
    mesh_family: str = "cartesian"
    levels: tuple = (4, 8, 16, 32)
    preset: str = ""
    lam: float | None = None
    bounds: tuple | None = None
    exact_y: str | None = None
    exact_phi: str | None = None
    pgd: PgdConfig = field(default_factory=PgdConfig)
    output_dir: str = "out"
    rng_seed: int = 42
    lloyd_iters: int = 10
    problem: ControlProblem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.mesh_family not in MESH_FAMILIES:
            raise ConfigError(f"unknown mesh family {self.mesh_family!r}")
        try:
            levels = tuple(self.levels)
        except TypeError:
            levels = ()
        if not levels or not all(is_count(n) for n in levels) or any(
                b <= a for a, b in zip((0, *levels), levels)):
            raise ConfigError("levels must be strictly increasing positive integers")
        object.__setattr__(self, "levels", levels)
        for name in ("degree", "rng_seed", "lloyd_iters"):
            value = getattr(self, name)
            if not is_count(value):
                raise ConfigError(
                    f"{name} must be >= 0 and an integer, got {value!r}")
        try:
            object.__setattr__(self, "problem", self._make_problem())
            check_scheme(self.scheme, self.degree, self.problem.bounds)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def _make_problem(self):
        if self.exact_y or self.exact_phi:
            if not (self.exact_y and self.exact_phi):
                raise ConfigError("inline problems need both exact_y and exact_phi")
            y = presets_mod.parse_expression(self.exact_y)
            phi = presets_mod.parse_expression(self.exact_phi)
            lam = 1e-2 if self.lam is None else self.lam
            return presets_mod.make_problem(y, phi, lam, bounds=self.bounds)
        if not self.preset:
            raise ConfigError("a preset id or inline exact functions are required")
        return presets_mod.problem_from_preset(self.preset, lam=self.lam,
                                               bounds=self.bounds)

    def build_problem(self):
        """The problem built and checked when the config was made."""
        return self.problem


def _parse_document(text):
    """Fields of a flat `key = value` document, values as written."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _split(convert):
    """Converter of comma-separated text into a tuple of converted items."""
    return lambda text: tuple(convert(tok) for tok in text.split(",") if tok.strip())


# document key -> (dataclass, field, converter); a `run` flag's dest is the
# key it sets, and a "pgd_" key sets a field of ExperimentConfig.pgd
_KEYS = {
    "scheme": (ExperimentConfig, "scheme", str),
    "degree": (ExperimentConfig, "degree", int),
    "mesh_family": (ExperimentConfig, "mesh_family", str),
    "levels": (ExperimentConfig, "levels", _split(int)),
    "preset": (ExperimentConfig, "preset", str),
    "lambda": (ExperimentConfig, "lam", float),
    "bounds": (ExperimentConfig, "bounds", _split(float)),
    "exact_y": (ExperimentConfig, "exact_y", str),
    "exact_phi": (ExperimentConfig, "exact_phi", str),
    "output_dir": (ExperimentConfig, "output_dir", str),
    "rng_seed": (ExperimentConfig, "rng_seed", int),
    "lloyd_iters": (ExperimentConfig, "lloyd_iters", int),
    "pgd_max_iters": (PgdConfig, "max_iters", int),
    "pgd_tol": (PgdConfig, "tol", float),
}


def _config_from_fields(raw):
    """Validate `key -> value` strings into an ExperimentConfig."""
    unknown = set(raw) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    if "scheme" not in raw or "degree" not in raw:
        raise ConfigError("config requires at least 'scheme' and 'degree'")
    values = {ExperimentConfig: {}, PgdConfig: {}}
    for key, text in raw.items():
        cls, name, convert = _KEYS[key]
        try:
            values[cls][name] = convert(text)
        except ValueError as exc:
            raise ConfigError(f"field {key!r}: {exc}") from None
    try:
        pgd = PgdConfig(**values[PgdConfig])
    except ValueError as exc:
        raise ConfigError(f"invalid pgd setting: {exc}") from None
    return ExperimentConfig(**values[ExperimentConfig], pgd=pgd)


def _build_mesh(family, n, rng_seed, lloyd_iters):
    if family == "cartesian":
        return make_cartesian(n)
    return make_voronoi(n, rng_seed=rng_seed, lloyd_iters=lloyd_iters)


def _level_mesh(cfg, level):
    return _build_mesh(cfg.mesh_family, level, cfg.rng_seed, cfg.lloyd_iters)


def _solve_level(cfg, prob, level, mesh):
    """Solve one level on its mesh and measure all reported errors."""
    _, mixed, bounded = SCHEMES[cfg.scheme]
    space = HhoSpace(mesh, cfg.degree, cell_degree=cfg.degree + mixed,
                     dirichlet=True)
    # looked up per call, so a wrapped module-level solver is the one called
    solve = {"uc1": solve_uc1, "uc2": solve_uc2, "uc31": solve_uc31,
             "uc32": solve_uc32, "wc1": solve_wc1, "wc2": solve_wc2}[cfg.scheme]
    sol = solve(space, prob, cfg.pgd) if bounded else solve(space, prob)
    # the exact triple at the space's nodes, sampled once by the solve with
    # its loads; every control is evaluated on this space
    exact, at = prob.exact, sol.exact_at_nodes
    return ErrorRecord(
        level=level, h=mesh.max_diameter(), n_cells=mesh.n_cells,
        err_u_l2=l2_error_control(sol, exact.u, at_nodes=at.u),
        err_y_energy=energy_error(space, sol.y, exact.y, at_nodes=at.y),
        err_phi_energy=energy_error(space, sol.phi, exact.phi, at_nodes=at.phi),
        err_y_l2_recon=l2_error_reconstruction(space, sol.y, exact.y,
                                               at_nodes=at.y),
        err_phi_l2_recon=l2_error_reconstruction(space, sol.phi, exact.phi,
                                                 at_nodes=at.phi),
        iters=getattr(sol, "iterations", None))


def run_level(cfg, prob, level):
    """Solve one refinement level and measure all reported errors."""
    return _solve_level(cfg, prob, level, _level_mesh(cfg, level))


def _fmt(x):
    return "" if x is None else format(x, ".16g")


def _table(records, rates):
    """Header and one row of cells per level, shared by every report format."""
    rows = [CSV_HEADER.split(",")]
    for i, r in enumerate(records):
        cells = [str(r.level), _fmt(r.h), str(r.n_cells)]
        for q in QUANTITIES:
            cells.append(_fmt(getattr(r, q)))
            cells.append(_fmt(rates[q][i - 1]) if i > 0 else "")
        cells.append("" if r.iters is None else str(r.iters))
        rows.append(cells)
    return rows


def _markdown_table(records, rates):
    head, *body = _table(records, rates)
    return (["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
            + ["| " + " | ".join(cells) + " |" for cells in body])


def write_report(report, out_dir, incomplete=False):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [",".join(cells) for cells in _table(report.records, report.rates)]
    if incomplete:
        rows.append("# INCOMPLETE")
    (out / "report.csv").write_text("\n".join(rows) + "\n")
    (out / "report.md").write_text(
        "\n".join(_markdown_table(report.records, report.rates)) + "\n")
    combined = ["h\t" + "\t".join(QUANTITIES)]
    for r in report.records:
        combined.append("\t".join([_fmt(r.h)] + [_fmt(getattr(r, q))
                                                 for q in QUANTITIES]))
    (out / "plotdata.tsv").write_text("\n".join(combined) + "\n")
    for q in QUANTITIES:
        series = ["h\t" + q]
        series += [f"{_fmt(r.h)}\t{_fmt(getattr(r, q))}" for r in report.records]
        (out / f"plotdata_{q}.tsv").write_text("\n".join(series) + "\n")


def run_experiment(cfg):
    """Run every level of a configured study and write the reports.

    A level whose mesh size h is not below the previous level's fails the
    study with ConfigError as soon as its mesh is built, before its solve.
    If a level fails (a non-finite error, say), the levels before it are
    written, marked ``# INCOMPLETE``, and the error is raised again.
    """
    records = []
    try:
        for level in cfg.levels:
            mesh = _level_mesh(cfg, level)
            h = mesh.max_diameter()
            if records and h >= records[-1].h:
                prev = records[-1]
                raise ConfigError(
                    f"mesh sizes must be strictly decreasing: level {level} "
                    f"has h = {h:.6g}, level {prev.level} has "
                    f"h = {prev.h:.6g}")
            records.append(_solve_level(cfg, cfg.problem, level, mesh))
        report = ConvergenceReport(records)
    except Exception:
        write_report(ConvergenceReport(records), cfg.output_dir, incomplete=True)
        raise
    write_report(report, cfg.output_dir)
    return report


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _add_run_parser(sub):
    # Each flag's dest is the document key it sets (see _KEYS) and its value
    # stays a string, so flags and a --config document share one validation.
    p = sub.add_parser("run", help="run a convergence study")
    p.add_argument("--config", help="path to a key = value config document; "
                   "flags given as well override its fields")
    p.add_argument("--scheme", choices=list(SCHEMES))
    p.add_argument("--degree")
    p.add_argument("--mesh", dest="mesh_family", choices=MESH_FAMILIES)
    p.add_argument("--levels", help="comma-separated resolutions, e.g. 4,8,16,32")
    p.add_argument("--preset")
    p.add_argument("--lambda")
    p.add_argument("--bounds", help="u_a,u_b for constrained schemes, "
                   "e.g. --bounds -250,-10")
    p.add_argument("--out", dest="output_dir", help="output directory")
    p.add_argument("--seed", dest="rng_seed")
    p.add_argument("--lloyd", dest="lloyd_iters")
    p.add_argument("--pgd-tol")
    p.add_argument("--pgd-max-iters")


def _config_from_args(args):
    raw = _parse_document(Path(args.config).read_text()) if args.config else {}
    raw.update((key, value) for key, value in vars(args).items()
               if value is not None and key not in ("command", "config"))
    return _config_from_fields(raw)


def _parser():
    parser = argparse.ArgumentParser(
        prog="hho-control",
        description="convergence studies for HHO optimal-control schemes")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    sub.add_parser("presets", help="list available problem presets")
    pm = sub.add_parser("mesh", help="generate a mesh file")
    pm.add_argument("--family", choices=MESH_FAMILIES, required=True)
    pm.add_argument("--cells", type=int, required=True,
                    help="grid resolution n (cartesian) or seed count (voronoi)")
    pm.add_argument("--seed", type=int, default=ExperimentConfig.rng_seed)
    pm.add_argument("--lloyd", type=int, default=ExperimentConfig.lloyd_iters)
    pm.add_argument("--out", required=True)
    return parser


def _parse_args(argv=None):
    """Parse the command line, reading a negative ``--bounds`` value too.

    argparse takes a separate value such as ``-250,-10`` for an unknown
    option, so it is attached to its flag (``--bounds=-250,-10``) first.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--bounds" and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = [f"--bounds={argv[i + 1]}"]
    return _parser().parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    try:
        if args.command == "presets":
            for pid in presets_mod.preset_ids():
                print(f"{pid}: {presets_mod.get_preset(pid).description}")
            for alias, target in presets_mod.ALIASES.items():
                print(f"{alias}: alias of {target}")
            return 0
        if args.command == "mesh":
            Path(args.out).write_text(write_mesh(_build_mesh(
                args.family, args.cells, args.seed, args.lloyd)))
            return 0
        cfg = _config_from_args(args)
        report = run_experiment(cfg)
        for line in _markdown_table(report.records, report.rates):
            print(line)
        return 0
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
