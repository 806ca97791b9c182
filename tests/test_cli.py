import argparse
import dataclasses
import itertools
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from hho_control import (PgdConfig, UnsupportedDegreeError, cli, hho_core,
                         make_cartesian)
from hho_control.control_unconstrained import SCHEMES
from hho_control.hho_core import HhoSpace
from hho_control.presets import problem_from_preset
from hho_control.cli import (CSV_HEADER, ConfigError, ExperimentConfig,
                             _config_from_fields, _parse_document, main,
                             run_experiment)
from hho_control.errors import QUANTITIES, ErrorRecord, NonFiniteError


def parse_config(text):
    """The ExperimentConfig of a flat `key = value` document."""
    return _config_from_fields(_parse_document(text))


def make_config(**overrides):
    base = dict(scheme="uc1", degree=0, mesh_family="cartesian",
                levels=[2, 4], preset="uc1-default")
    base.update(overrides)
    return ExperimentConfig(**base)


def test_minimal_config_defaults_filled():
    cfg = parse_config("scheme = uc1\ndegree = 1\npreset = uc1-default\n")
    assert cfg.levels == (4, 8, 16, 32)
    assert cfg.rng_seed == 42
    assert cfg.pgd.tol == 1e-10


def test_config_comments_and_lists():
    text = ("# study\nscheme = wc1\ndegree = 0\nlevels = 4, 8\n"
            "preset = wc-default\nbounds = -250, -10\n")
    cfg = parse_config(text)
    assert cfg.levels == (4, 8)
    assert cfg.bounds == (-250.0, -10.0)


# the face degrees k of each scheme in the paper, and its box-constrained ones
PAPER_DEGREES = {"uc1": {0, 1, 2, 3}, "uc2": {0, 1, 2, 3}, "uc31": {0, 1},
                 "uc32": {2, 3}, "wc1": {0}, "wc2": {1}}
PAPER_BOUNDED = {"wc1", "wc2"}


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_config_accepts_exactly_what_the_solver_accepts(scheme):
    # the solver runs on the space built from the scheme table, as a level
    # does; a rejection names the same rule in the config and the solver
    solve = getattr(cli, f"solve_{scheme}")
    _, mixed, _ = SCHEMES[scheme]
    mesh = make_cartesian(2)
    for k, bounds in itertools.product(range(4), (None, (-250.0, -10.0))):
        space = HhoSpace(mesh, k, cell_degree=k + mixed, dirichlet=True)
        try:
            solve(space, problem_from_preset("uc1-default", bounds=bounds))
            rejected = None
        except ValueError as exc:
            rejected = exc
        admissible = (k in PAPER_DEGREES[scheme]
                      and (bounds is not None) == (scheme in PAPER_BOUNDED))
        assert (rejected is None) == admissible, (k, bounds, rejected)
        if k not in PAPER_DEGREES[scheme]:
            assert isinstance(rejected, UnsupportedDegreeError), (k, bounds)
        if rejected is None:
            make_config(scheme=scheme, degree=k, bounds=bounds)
        else:
            with pytest.raises(ConfigError) as err:
                make_config(scheme=scheme, degree=k, bounds=bounds)
            assert str(err.value) == str(rejected)


def test_uc31_degree_rule_named():
    with pytest.raises(ConfigError, match="uc31.*k in \\{0, 1\\}"):
        parse_config("scheme = uc31\ndegree = 2\npreset = uc31-default\n")


def test_wc1_requires_bounds():
    with pytest.raises(ConfigError, match="bounds required"):
        parse_config("scheme = wc1\ndegree = 0\npreset = uc1-default\n")


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="unknown config field"):
        parse_config("scheme = uc1\ndegree = 0\ncolour = red\n")


def test_unknown_scheme_rejected():
    with pytest.raises(ConfigError, match="unknown scheme"):
        parse_config("scheme = uc9\ndegree = 0\n")


def test_bounds_on_unconstrained_rejected():
    with pytest.raises(ConfigError, match="not admissible"):
        parse_config("scheme = uc1\ndegree = 0\npreset = uc1-default\n"
                        "bounds = -1, 1\n")


def test_run_experiment_structure(tmp_path):
    cfg = make_config(levels=[4, 8, 16], output_dir=str(tmp_path))
    report = run_experiment(cfg)
    csv = (tmp_path / "report.csv").read_text().splitlines()
    assert csv[0] == CSV_HEADER
    assert len(csv) == 1 + 3  # header + one row per level
    first = csv[1].split(",")
    assert first[0] == "4"
    assert first[4] == ""  # no rate on the first level
    assert (tmp_path / "report.md").exists()
    assert (tmp_path / "plotdata.tsv").exists()
    assert (tmp_path / "plotdata_err_u_l2.tsv").exists()
    assert len(report.rates["err_u_l2"]) == 2


def test_reports_are_byte_deterministic(tmp_path):
    cfg1 = make_config(output_dir=str(tmp_path / "a"), mesh_family="voronoi",
                       levels=[16, 64])
    cfg2 = make_config(output_dir=str(tmp_path / "b"), mesh_family="voronoi",
                       levels=[16, 64])
    run_experiment(cfg1)
    run_experiment(cfg2)
    assert (tmp_path / "a" / "report.csv").read_bytes() \
        == (tmp_path / "b" / "report.csv").read_bytes()
    assert (tmp_path / "a" / "plotdata.tsv").read_bytes() \
        == (tmp_path / "b" / "plotdata.tsv").read_bytes()


def test_incomplete_run_preserves_partial_csv(tmp_path):
    out = tmp_path / "out"
    # two Newton steps force an iteration failure on the first level
    cfg = make_config(scheme="wc1", degree=0, preset="wc-default",
                      levels=[4, 8], output_dir=str(out),
                      pgd=PgdConfig(max_iters=2))
    with pytest.raises(Exception):
        run_experiment(cfg)
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[-1] == "# INCOMPLETE"


def test_cli_main_run_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["run", "--scheme", "uc1", "--degree", "0", "--mesh",
               "cartesian", "--levels", "4,8", "--preset", "uc1-default",
               "--out", str(out)])
    assert rc == 0
    assert (out / "report.csv").exists()

    rc = main(["run", "--scheme", "uc31", "--degree", "3", "--preset",
               "uc31-default", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err


def test_cli_presets_lists_ids(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "uc1-default" in out and "wc-default" in out
    assert out.endswith("uc2-default: alias of uc1-default\n"
                        "wc1-default: alias of wc-default\n"
                        "wc2-default: alias of wc-default\n")


def test_cli_mesh_subcommand(tmp_path):
    from hho_control import read_mesh

    path = tmp_path / "mesh.txt"
    rc = main(["mesh", "--family", "voronoi", "--cells", "16", "--seed", "42",
               "--out", str(path)])
    assert rc == 0
    mesh = read_mesh(path.read_text())
    assert mesh.n_cells == 16


def test_cli_mesh_subcommand_rejects_a_negative_seed(tmp_path, capsys):
    path = tmp_path / "mesh.txt"
    rc = main(["mesh", "--family", "voronoi", "--cells", "16", "--seed", "-3",
               "--out", str(path)])
    assert rc == 1
    assert "rng_seed" in capsys.readouterr().err
    assert not path.exists()


def test_cli_config_file_run(tmp_path):
    out = tmp_path / "cfgout"
    config = tmp_path / "study.cfg"
    config.write_text("scheme = uc1\ndegree = 0\nlevels = 4,8\n"
                      f"preset = uc1-default\noutput_dir = {out}\n")
    rc = main(["run", "--config", str(config)])
    assert rc == 0
    assert (out / "report.csv").exists()


def test_inline_exact_functions(tmp_path):
    cfg = parse_config(
        "scheme = uc1\ndegree = 0\nlevels = 2,4\n"
        "exact_y = sin(2*pi*x1)*sin(2*pi*x2)\n"
        "exact_phi = exp(x1+x2)*sin(pi*x1)*sin(pi*x2)\n"
        "lambda = 0.1\n")
    report = run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path)))
    assert len(report.records) == 2


def test_csv_real_formatting(tmp_path):
    cfg = make_config(levels=[2], output_dir=str(tmp_path))
    run_experiment(cfg)
    row = (tmp_path / "report.csv").read_text().splitlines()[1].split(",")
    h = row[1]
    assert h == format(np.sqrt(2.0) / 2.0, ".16g")
    assert "," not in h and "e" not in h.replace("e-", "").replace("e+", "")


def run_flags(*argv):
    return cli._config_from_args(cli._parser().parse_args(["run", *argv]))


def test_cli_flags_override_config_document(tmp_path):
    config = tmp_path / "study.cfg"
    config.write_text("scheme = uc1\ndegree = 1\nlevels = 4,8\n"
                      "preset = uc1-default\noutput_dir = doc-out\n")
    cfg = run_flags("--config", str(config), "--degree", "0",
                    "--levels", "2,4", "--seed", "7")
    assert (cfg.scheme, cfg.degree, cfg.levels, cfg.preset, cfg.output_dir,
            cfg.rng_seed) == ("uc1", 0, (2, 4), "uc1-default", "doc-out", 7)


@pytest.mark.parametrize("flag", ["--pgd-tol", "--pgd-max-iters"])
def test_cli_zero_pgd_setting_rejected(flag):
    for value in ("0", "inf", "nan"):
        with pytest.raises(ConfigError, match="pgd"):
            run_flags("--scheme", "wc1", "--degree", "0", "--preset",
                      "wc-default", flag, value)


@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
def test_cli_nonpositive_or_nonfinite_lambda_rejected(value):
    with pytest.raises(ConfigError, match="lambda"):
        run_flags("--scheme", "uc1", "--degree", "0", "--preset", "uc1-default",
                  "--lambda", value)


@pytest.mark.parametrize("form", [["--bounds", "-250,-10"],
                                  ["--bounds=-250,-10"]])
def test_cli_negative_bounds(form):
    args = cli._parse_args(["run", "--scheme", "wc1", "--degree", "0",
                            "--preset", "wc-default", *form])
    assert cli._config_from_args(args).bounds == (-250.0, -10.0)


@pytest.mark.parametrize("mesh", ["voronoi", "cartesian"])
@pytest.mark.parametrize("flag, field", [("--lloyd", "lloyd_iters"),
                                         ("--seed", "rng_seed")])
def test_cli_negative_seed_or_lloyd_count_rejected(tmp_path, capsys, mesh,
                                                   flag, field):
    rc = main(["run", "--scheme", "uc1", "--degree", "1", "--mesh", mesh,
               "--levels", "4", "--preset", "uc1-default", flag, "-3",
               "--out", str(tmp_path)])
    assert rc == 1
    assert f"error: {field} must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("mesh", ["voronoi", "cartesian"])
@pytest.mark.parametrize("field", ["rng_seed", "lloyd_iters"])
@pytest.mark.parametrize("value", [1.5, True])
def test_config_seed_or_lloyd_count_must_be_an_integer(mesh, field, value):
    # the CLI parses both as integers; the library API takes any value
    with pytest.raises(ConfigError, match=f"{field} must be >= 0 and an integer"):
        make_config(mesh_family=mesh, **{field: value})
    assert make_config(mesh_family=mesh, **{field: np.int64(3)})


@pytest.mark.parametrize("degree", [1.5, True, -1])
def test_config_degree_must_be_a_count(degree):
    # through the library API a bad degree used to pass the config and fail
    # mid-study, after an INCOMPLETE report was written
    with pytest.raises(ConfigError, match="degree must be >= 0 and an integer"):
        make_config(degree=degree)
    assert make_config(degree=np.int64(1))


@pytest.mark.parametrize("levels", [[2.5], [True, 2], [2, 4.0], [0, 2], 4])
def test_config_levels_must_be_positive_counts(levels):
    with pytest.raises(ConfigError, match="levels must be strictly increasing "
                                          "positive integers"):
        make_config(levels=levels)
    assert make_config(levels=[np.int64(2), 4]).levels == (2, 4)


@pytest.mark.parametrize("bounds", [(5, 1), (1, 1), (float("nan"), 1)])
def test_config_bounds_must_be_ordered(bounds):
    with pytest.raises(ConfigError, match="u_a < u_b"):
        make_config(scheme="wc1", preset="wc-default", bounds=bounds)
    with pytest.raises(ConfigError, match="u_a < u_b"):
        parse_config("scheme = wc1\ndegree = 0\npreset = wc-default\n"
                     f"bounds = {bounds[0]}, {bounds[1]}\n")


@pytest.mark.parametrize("field, value", [
    ("bounds", (1,)), ("bounds", 5.0), ("bounds", ("a", "b")), ("lam", "0.1"),
    ("lam", True)])
def test_config_malformed_lambda_or_bounds_rejected_at_construction(field, value):
    # these once escaped as IndexError or TypeError, or passed the config
    with pytest.raises(ConfigError, match="bounds|lambda"):
        make_config(scheme="wc1", preset="wc-default", **{field: value})


def test_cli_uc_scheme_with_bounded_preset_writes_no_report(tmp_path, capsys):
    # the preset's box, not only an explicit one, rules out a uc scheme
    rc = main(["run", "--scheme", "uc1", "--degree", "1", "--levels", "4",
               "--preset", "wc-default", "--out", str(tmp_path)])
    assert rc == 1
    assert "not admissible" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_run_flags_keys_and_readme_name_the_same_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (?:`(--[\w-]+)`)? *\| `([\w.]+)` \|$",
                      readme, re.M)
    assert rows, "README.md lists no config keys"
    documented = {key: (flag or None, name) for key, flag, name in rows}
    assert documented.keys() == cli._KEYS.keys()

    run = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices["run"]
    flags = {a.dest: a.option_strings[0] for a in run._actions
             if a.dest not in ("help", "config")}
    assert flags == {key: flag for key, (flag, _) in documented.items() if flag}

    reached = []
    for key, (cls, name, _) in cli._KEYS.items():
        owner = "" if cls is ExperimentConfig else "pgd."
        assert documented[key][1] == owner + name
        reached.append((cls, name))
    fields = {(ExperimentConfig, f.name) for f in dataclasses.fields(ExperimentConfig)
              if f.init and f.name != "pgd"}
    fields |= {(PgdConfig, f.name) for f in dataclasses.fields(PgdConfig)}
    assert sorted(reached, key=str) == sorted(fields, key=str)


def test_cli_bad_levels_is_config_error():
    for levels in ("4,x", "8,4", "4,4"):
        with pytest.raises(ConfigError, match="levels"):
            run_flags("--scheme", "uc1", "--degree", "0", "--levels", levels)


@pytest.mark.parametrize("scheme, degree, preset", [
    ("uc1", 1, "uc1-default"), ("uc2", 1, "uc1-default"),
    ("uc31", 1, "uc31-default"), ("uc32", 2, "uc32-default"),
    ("wc1", 0, "wc-default"), ("wc2", 1, "wc-default")])
def test_run_level_builds_no_per_cell_operators(monkeypatch, scheme, degree,
                                                preset):
    def per_cell(*args, **kwargs):
        raise AssertionError("per-cell local operators built")

    monkeypatch.setattr(HhoSpace, "local_ops", per_cell)
    monkeypatch.setattr(hho_core, "_views", per_cell)
    cfg = make_config(scheme=scheme, degree=degree, preset=preset, levels=[4])
    record = cli.run_level(cfg, cfg.build_problem(), 4)
    assert np.isfinite(record.err_u_l2) and np.isfinite(record.err_y_energy)
    space = HhoSpace(make_cartesian(1), 0)  # the patches do take hold
    for build in (space.local_ops, lambda: hho_core._views([], [])):
        with pytest.raises(AssertionError, match="per-cell"):
            build()


def test_nan_error_is_rejected_not_reported():
    # a NaN or infinite error or mesh size fails its level instead of being
    # written as a result
    values = dict(level=2, h=0.5, n_cells=4, err_u_l2=0.5, err_y_energy=0.5,
                  err_phi_energy=0.5, err_y_l2_recon=0.5, err_phi_l2_recon=0.5)
    ErrorRecord(**values)
    for q in ("h",) + QUANTITIES:
        for bad in (float("nan"), float("inf")):
            with pytest.raises(NonFiniteError,
                               match=f"level 2: {q} must be finite"):
                ErrorRecord(**{**values, q: bad})


def test_infinite_error_leaves_an_incomplete_report(tmp_path, capsys):
    # y = sin(pi x2) / x1 is infinite at the face nodes on x1 = 0
    config = tmp_path / "study.cfg"
    config.write_text("scheme = uc1\ndegree = 0\nlevels = 2,4\nlambda = 0.01\n"
                      "exact_y = x1**(-1)*sin(pi*x2)\n"
                      "exact_phi = sin(pi*x1)*sin(pi*x2)\n")
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        rc = main(["run", "--config", str(config), "--out", str(out)])
    assert rc == 1
    assert "Dirichlet data must be finite" in capsys.readouterr().err
    lines = (out / "report.csv").read_text().splitlines()
    assert lines == [CSV_HEADER, "# INCOMPLETE"]
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteError):
        run_experiment(dataclasses.replace(parse_config(config.read_text()),
                                           output_dir=str(out)))


def test_report_failure_still_leaves_an_incomplete_report(tmp_path,
                                                          monkeypatch):
    # mesh sizes that grow make no rates: the study fails at the level whose
    # h grows, and the levels solved before it are kept
    def growing_h(family, n, rng_seed, lloyd_iters):
        return make_cartesian([4, 8, 2][n - 1])

    monkeypatch.setattr(cli, "_build_mesh", growing_h)
    cfg = make_config(levels=[1, 2, 3], output_dir=str(tmp_path))
    with pytest.raises(ValueError, match="strictly decreasing"):
        run_experiment(cfg)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == [
        "level", "1", "2", "# INCOMPLETE"]


def test_a_ladder_that_does_not_refine_fails_at_once(tmp_path, monkeypatch,
                                                     capsys):
    # with no Lloyd steps, Voronoi 5 has a larger cell than Voronoi 4: the
    # study stops once the mesh of level 5 is built, keeps level 4 and
    # solves no further level
    solved = []
    solve_uc31 = cli.solve_uc31

    def counted(space, prob):
        solved.append(space.mesh.n_cells)
        return solve_uc31(space, prob)

    monkeypatch.setattr(cli, "solve_uc31", counted)
    rc = main(["run", "--scheme", "uc31", "--degree", "0", "--mesh", "voronoi",
               "--levels", "4,5,64", "--lloyd", "0", "--preset",
               "uc31-default", "--out", str(tmp_path)])
    assert rc == 1
    assert solved == [4]
    assert ("mesh sizes must be strictly decreasing: level 5 has h = 1.01472, "
            "level 4 has h = 0.783656") in capsys.readouterr().err
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == [
        "level", "4", "# INCOMPLETE"]
    cfg = make_config(scheme="uc31", mesh_family="voronoi", levels=[4, 5],
                      lloyd_iters=0, preset="uc31-default",
                      output_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="level 5 has h"):
        run_experiment(cfg)


def test_configs_are_frozen():
    cfg = make_config()
    for name, value in (("lam", 0.5), ("scheme", "wc1"), ("problem", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.pgd.max_iters = 2
    with pytest.raises(AttributeError):     # levels are kept as a tuple
        cfg.levels.append(8)
    # a changed study is a new config, checked and built again
    assert dataclasses.replace(cfg, lam=0.5).build_problem().lam == 0.5
    assert cfg.build_problem().lam == 0.01
    with pytest.raises(ConfigError, match="bounds required"):
        dataclasses.replace(cfg, scheme="wc1")


def test_preset_runs_load_neither_sympy_nor_qhull():
    script = textwrap.dedent("""
        import sys
        from hho_control import cli
        cfg = cli.ExperimentConfig(scheme="uc1", degree=1, levels=[4],
                                   mesh_family="voronoi", preset="uc1-default")
        cfg.build_problem()
        print(sorted(m for m in sys.modules if m.split(".")[0] == "sympy"
                     or m.startswith("scipy.spatial")))
        cli.ExperimentConfig(scheme="uc1", degree=0, exact_y="x1*x2",
                             exact_phi="sin(pi*x1)*sin(pi*x2)")
        print("sympy" in sys.modules)
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["[]", "True"]
