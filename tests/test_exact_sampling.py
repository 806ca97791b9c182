"""A level samples its manufactured data once on the node table.

Each solver evaluates f, y_d and the exact y, phi and u once on the nodes
of its space (``ControlProblem.sample``), builds its loads from them and
keeps the exact triple on its solution, which ``cli.run_level`` hands to the
error functions.  The public calls that the benchmark's traced study makes,
the error functions with callables, sample for themselves; both routes must
give the same ``ErrorRecord`` bit for bit.
"""

import dataclasses
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hho_control import cli
from hho_control.control_unconstrained import (SCHEMES, ControlProblem,
                                               ExactTriple)
from hho_control.errors import (ErrorRecord, energy_error, l2_error_control,
                                l2_error_reconstruction)
from hho_control.hho_core import HhoSpace
from hho_control.mesh import make_cartesian, make_voronoi
from hho_control.presets import (SmoothFunction, get_preset, make_problem,
                                 parse_expression, preset_ids,
                                 problem_from_preset)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    # plain data (no package import), loaded from its file: bench/ is no package
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def _space(cfg, mesh):
    _, mixed, _ = SCHEMES[cfg.scheme]
    return HhoSpace(mesh, cfg.degree, cell_degree=cfg.degree + mixed,
                    dirichlet=True)


def test_problem_and_exact_triple_are_frozen():
    cfg = cli.ExperimentConfig(scheme="uc1", degree=1, preset="uc1-default",
                               levels=[8])
    before = cli.run_level(cfg, cfg.problem, 8)
    prob = cfg.problem
    for name, value in (("lam", 0.5), ("lam", 0.0), ("bounds", (-1.0, 1.0)),
                        ("f", None), ("sampler", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(prob, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.exact.u = None
    assert prob.lam == 1e-2
    assert cli.run_level(cfg, prob, 8) == before


@pytest.mark.parametrize("pid", preset_ids())
def test_sample_has_the_bits_of_the_callables(pid):
    prob = problem_from_preset(pid)
    pts = HhoSpace(make_cartesian(4), 1, dirichlet=True).nodes().points
    got = prob.sample(pts)
    assert np.array_equal(got.f, prob.f(pts))
    assert np.array_equal(got.y_d, prob.y_d(pts))
    for name in ("y", "phi", "u"):
        assert np.array_equal(getattr(got.exact, name),
                              getattr(prob.exact, name)(pts)), name
    preset = get_preset(pid)
    for field in (preset.y, preset.phi):
        value, lap = field.with_laplacian(pts)
        assert np.array_equal(value, field.value(pts))
        assert np.array_equal(lap, field.laplacian(pts))


def test_sample_of_bare_callables_calls_each_once():
    calls = Counter()

    def counted(name, value):
        def fn(p):
            calls[name] += 1
            return np.full(len(p), value)
        return fn

    pts = np.array([[0.25, 0.5], [0.5, 0.75]])
    bare = ControlProblem(f=counted("f", 1.0), y_d=counted("y_d", 2.0), lam=1.0)
    sample = bare.sample(pts)
    assert calls == {"f": 1, "y_d": 1}
    assert sample.exact is None
    exact = ExactTriple(*(counted(n, 3.0) for n in ("y", "phi", "u")))
    dataclasses.replace(bare, exact=exact).sample(pts)
    assert calls == {"f": 2, "y_d": 2, "y": 1, "phi": 1, "u": 1}


def test_inline_fields_evaluate_value_and_laplacian_together():
    field = parse_expression("sin(2*pi*x1)*exp(x2)")
    pts = np.array([[0.3, 0.6], [0.1, 0.9]])
    value, lap = field.with_laplacian(pts)
    assert np.array_equal(value, field.value(pts))
    assert np.array_equal(lap, field.laplacian(pts))


def _counted_field(field, name, log, nodes):
    """``field`` whose calls on ``nodes`` log the quantities they evaluate."""
    def wrap(fn, quantities):
        def call(p):
            if np.shape(p) == nodes.shape and np.array_equal(p, nodes):
                log.update(quantities)
            return fn(p)
        return call

    return SmoothFunction(wrap(field.value, [name]),
                          wrap(field.laplacian, ["d" + name]),
                          wrap(field.with_laplacian, [name, "d" + name]))


@pytest.mark.parametrize("scheme, degree, preset", [
    ("uc1", 1, "uc1-default"), ("wc2", 1, "wc-default")])
def test_each_field_is_evaluated_once_on_the_node_table(scheme, degree,
                                                        preset):
    cfg = cli.ExperimentConfig(scheme=scheme, degree=degree, preset=preset,
                               levels=[8])
    nodes = _space(cfg, make_cartesian(8)).nodes().points
    log = Counter()
    p = get_preset(preset)
    prob = make_problem(_counted_field(p.y, "y", log, nodes),
                        _counted_field(p.phi, "phi", log, nodes),
                        p.lam, bounds=p.bounds)
    record = cli.run_level(cfg, prob, 8)
    assert record == cli.run_level(cfg, cfg.problem, 8)
    assert log == {"y": 1, "phi": 1, "dy": 1, "dphi": 1}


def _public_record(cfg, prob, level):
    """The record of ``cli.run_level`` from the public callable calls."""
    if cfg.mesh_family == "cartesian":
        mesh = make_cartesian(level)
    else:
        mesh = make_voronoi(level, rng_seed=cfg.rng_seed,
                            lloyd_iters=cfg.lloyd_iters)
    space = _space(cfg, mesh)
    solve = getattr(cli, f"solve_{cfg.scheme}")
    sol = (solve(space, prob, cfg.pgd) if SCHEMES[cfg.scheme][2]
           else solve(space, prob))
    exact = prob.exact
    return ErrorRecord(
        level=level, h=mesh.max_diameter(), n_cells=mesh.n_cells,
        err_u_l2=l2_error_control(sol, exact.u),
        err_y_energy=energy_error(space, sol.y, exact.y),
        err_phi_energy=energy_error(space, sol.phi, exact.phi),
        err_y_l2_recon=l2_error_reconstruction(space, sol.y, exact.y),
        err_phi_l2_recon=l2_error_reconstruction(space, sol.phi, exact.phi),
        iters=getattr(sol, "iterations", None))


SCHEME_CASES = {
    "uc1": (1, "uc1-default"), "uc2": (1, "uc1-default"),
    "uc31": (1, "uc31-default"), "uc32": (2, "uc32-default"),
    "wc1": (0, "wc-default"), "wc2": (1, "wc-default"),
}


def _cases():
    for scheme, (degree, preset) in SCHEME_CASES.items():
        yield pytest.param(dict(scheme=scheme, degree=degree, preset=preset,
                                levels=[8]), id=f"{scheme}-cartesian-8")
    for name in sorted(WORKLOADS.WORKLOADS):
        kwargs = WORKLOADS.config_kwargs(name, 42)
        kwargs["levels"] = kwargs["levels"][:1]
        yield pytest.param(kwargs, id=f"{name}-first-level")


@pytest.mark.parametrize("kwargs", _cases())
def test_run_level_equals_the_public_calls(kwargs, tmp_path):
    # the traced benchmark study rebuilds each level from these calls and
    # fails on any difference from the untraced one
    cfg = cli.ExperimentConfig(**dict(kwargs, output_dir=str(tmp_path)))
    level = cfg.levels[0]
    got = cli.run_level(cfg, cfg.problem, level)
    want = _public_record(cfg, cfg.problem, level)
    assert repr(got) == repr(want)
    assert got == want


def test_uc32_control_space_shares_the_state_nodes():
    # uc32's control lives on a second space; run_level measures its error
    # with u sampled on the state space's nodes, which must be its nodes too
    mesh = make_cartesian(4)
    state = HhoSpace(mesh, 2, cell_degree=3, dirichlet=True)
    control = HhoSpace(mesh, 2, dirichlet=False)
    assert np.array_equal(state.nodes().points, control.nodes().points)
