import itertools
import re

import numpy as np
import pytest

from hho_control import (AdmissibleBox, HhoSpace, PgdConfig,
                         PgdIterationError, project_box, solve_uc1, solve_wc1,
                         solve_wc2)
from hho_control.control_unconstrained import ControlProblem, _solve_two_field
from hho_control.errors import eoc, l2_error_control
from hho_control.hho_core import cell_load_vector
from hho_control.presets import problem_from_preset
from helpers import (cached_cartesian, cached_voronoi, cell_dofs,
                     dense_cell_mass, dense_stiffness, reduced_cost,
                     vi_residual_wc1, wc1_cell_control)

ZERO = lambda p: np.zeros(len(np.atleast_2d(p)))
BOX = AdmissibleBox(-250.0, -10.0)


def test_project_box_identity_inside():
    w = 0.5 * (BOX.u_a + BOX.u_b)
    assert project_box(w, BOX) == w


def test_project_box_clamps():
    assert project_box(BOX.u_b + 1.0, BOX) == BOX.u_b
    assert project_box(-300.0, BOX) == -250.0  # lower bound of the study box


def test_box_requires_order():
    with pytest.raises(ValueError, match="u_a < u_b"):
        AdmissibleBox(1.0, 1.0)
    for u_a, u_b in (("a", "b"), (False, True), (0.0, "1")):
        with pytest.raises(ValueError, match="must be real"):
            AdmissibleBox(u_a, u_b)


def test_pgd_config_validation():
    for max_iters in (0, 2.5, True, float("inf"), 3.0):
        with pytest.raises(ValueError, match="max_iters"):
            PgdConfig(max_iters=max_iters)
    assert PgdConfig(max_iters=np.int64(500)).max_iters == 500
    for tol in (0.0, float("inf"), float("nan"), "1e-10", True):
        with pytest.raises(ValueError, match="tol"):
            PgdConfig(tol=tol)
    assert PgdConfig(tol=np.float32(1e-8)).tol > 0


def test_wc1_zero_data_feasible_zero():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 0, dirichlet=True)
    prob = ControlProblem(f=ZERO, y_d=ZERO, lam=1e-2, bounds=(-1.0, 1.0))
    sol = solve_wc1(space, prob)
    assert np.abs(wc1_cell_control(sol)).max() == 0.0
    assert np.abs(sol.y).max() == 0.0


def test_wc1_requires_bounds():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 0, dirichlet=True)
    with pytest.raises(ValueError, match="bounds"):
        solve_wc1(space, ControlProblem(f=ZERO, y_d=ZERO, lam=1e-2))


def test_wc1_nonconvergence_raises_with_increment():
    mesh = cached_cartesian(4)
    space = HhoSpace(mesh, 0, dirichlet=True)
    prob = problem_from_preset("wc-default")
    with pytest.raises(PgdIterationError) as err:
        solve_wc1(space, prob, PgdConfig(max_iters=2, tol=1e-14))
    assert err.value.final_increment > 0


def test_newton_and_cg_step_caps():
    mesh = cached_cartesian(4)
    space = HhoSpace(mesh, 0, dirichlet=True)
    prob = problem_from_preset("wc-default")
    with pytest.raises(PgdIterationError, match="conjugate gradients") as err:
        solve_wc1(space, prob, PgdConfig(max_iters=1))
    assert err.value.final_increment > 0
    with pytest.raises(PgdIterationError, match="Newton steps") as err:
        solve_wc1(space, prob, PgdConfig(max_iters=3, tol=1e-14))
    assert err.value.final_increment > 1e-14
    # the last step allowed meets tol while the residual still shrinks
    cfg = PgdConfig(max_iters=4)
    sol = solve_wc1(space, prob, cfg)
    assert sol.iterations == 4 and sol.final_increment <= cfg.tol
    assert solve_wc1(space, prob).iterations > 4


def test_wc1_feasible_at_every_iterate_and_cost_monotone():
    mesh = cached_cartesian(4)
    space = HhoSpace(mesh, 0, dirichlet=True)
    prob = problem_from_preset("wc-default")
    sol = solve_wc1(space, prob, keep_history=True)
    box = AdmissibleBox(*prob.bounds)
    costs = []
    ops = space.local_ops()
    areas = mesh.cell_areas
    nodes = space.nodes()
    # each cell's nodes, cell after cell, whatever the table's node order
    offsets = np.arange(nodes.counts.sum()) - np.repeat(
        np.cumsum(nodes.counts) - nodes.counts, nodes.counts)
    cell_nodes = np.repeat(nodes.starts, nodes.counts) + offsets
    for at_nodes in sol.history:
        # a k = 0 control carries one value per cell at all of its nodes
        u = at_nodes[nodes.starts]
        assert np.array_equal(at_nodes[cell_nodes], np.repeat(u, nodes.counts))
        assert (u >= box.u_a).all() and (u <= box.u_b).all()
        load = np.zeros(space.n_dofs)
        for op in ops:
            load[cell_dofs(space, op.cell_id)] = (u[op.cell_id]
                                                  * (op.qw @ op.Vl))
        costs.append(reduced_cost(space, prob, load, float(areas @ u ** 2)))
    slack = 1e-12 * (1.0 + abs(costs[0]))
    assert all(c2 <= c1 + slack for c1, c2 in zip(costs, costs[1:]))


def test_wc1_variational_inequality_at_convergence():
    mesh = cached_cartesian(4)
    space = HhoSpace(mesh, 0, dirichlet=True)
    prob = problem_from_preset("wc-default")
    cfg = PgdConfig()
    sol = solve_wc1(space, prob, cfg)
    worst = vi_residual_wc1(space, sol, prob)
    assert worst >= -10.0 * cfg.tol * 1e2
    assert sol.iterations <= cfg.max_iters
    assert sol.final_increment <= cfg.tol
    # the clamp of a cell constant: the box binds, yet no cell is kinked
    assert len(sol.control.kinked_cells()) == 0

    # the grouped evaluation repeats the cell-by-cell one bit for bit
    u, ref = wc1_cell_control(sol), np.inf
    for op in space.local_ops():
        i = op.cell_id
        grad = ((op.qw @ op.Vl) @ space.cell_blocks(sol.phi)[i]
                + prob.lam * u[i] * mesh.cell_areas[i])
        for v in prob.bounds:
            ref = min(ref, grad * (v - u[i]))
    assert worst == ref


def test_wc1_matches_active_set_enumeration_oracle():
    """Brute force over the 3^4 per-cell active-set patterns on 2 x 2."""
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 0, dirichlet=True)
    prob = problem_from_preset("wc-default")
    box = AdmissibleBox(*prob.bounds)
    sol = solve_wc1(space, prob)

    act = space.active_dofs
    A = dense_stiffness(space)[np.ix_(act, act)]
    M = dense_cell_mass(space)[np.ix_(act, act)]
    F_f = cell_load_vector(space, prob.f)[act]
    F_yd = cell_load_vector(space, prob.y_d)[act]
    ops = space.local_ops()
    n = len(act)
    nc = mesh.n_cells
    # control-to-load matrix: column T holds (1_T, w) on the cell block
    L = np.zeros((n, nc))
    lookup = {d: i for i, d in enumerate(act)}
    for op in ops:
        for d, v in zip(cell_dofs(space, op.cell_id), op.qw @ op.Vl):
            L[lookup[d], op.cell_id] = v
    areas = mesh.cell_areas

    best = None
    for pattern in itertools.product(("lo", "hi", "free"), repeat=nc):
        # unknowns: y (n), phi (n), u (nc)
        big = np.zeros((2 * n + nc, 2 * n + nc))
        rhs = np.zeros(2 * n + nc)
        big[:n, :n] = A
        big[:n, 2 * n:] = -L
        rhs[:n] = F_f
        big[n:2 * n, :n] = -M
        big[n:2 * n, n:2 * n] = A
        rhs[n:2 * n] = -F_yd
        for t, mode in enumerate(pattern):
            row = 2 * n + t
            if mode == "free":
                # stationarity: lam |T| u_T + (phi_T, 1)_T = 0
                big[row, 2 * n + t] = prob.lam * areas[t]
                big[row, n:2 * n] = L[:, t]
            else:
                big[row, 2 * n + t] = 1.0
                rhs[row] = box.u_a if mode == "lo" else box.u_b
        try:
            candidate = np.linalg.solve(big, rhs)
        except np.linalg.LinAlgError:
            continue
        u = candidate[2 * n:]
        phi = candidate[n:2 * n]
        grad = L.T @ phi + prob.lam * areas * u  # cellwise (phi + lam u, 1)_T
        ok = True
        for t, mode in enumerate(pattern):
            if mode == "free" and not (box.u_a - 1e-9 <= u[t] <= box.u_b + 1e-9):
                ok = False
            if mode == "lo" and grad[t] < -1e-9:
                ok = False
            if mode == "hi" and grad[t] > 1e-9:
                ok = False
        if ok:
            best = candidate
            break
    assert best is not None, "enumeration oracle found no admissible pattern"
    assert np.abs(wc1_cell_control(sol) - best[2 * n:]).max() < 1e-8
    assert np.abs(sol.y[act] - best[:n]).max() < 1e-8


def meshes():
    """A Cartesian mesh and a Voronoi one, whose cells differ in node count."""
    return cached_cartesian(4), cached_voronoi(16)


def test_wc1_inactive_bounds_match_unconstrained():
    wide = problem_from_preset("wc-default", bounds=(-1e9, 1e9))
    free = ControlProblem(f=wide.f, y_d=wide.y_d, lam=wide.lam)
    tol = 1e-8
    for mesh in meshes():
        space = HhoSpace(mesh, 0, dirichlet=True)
        a = solve_wc1(space, wide)
        b = solve_uc1(space, free)
        assert np.abs(a.y - b.y).max() < tol
        assert np.abs(a.phi - b.phi).max() < tol


@pytest.mark.parametrize("scheme", ["wc1", "wc2"])
@pytest.mark.parametrize("lam", [1e-2, 1e-3, 1e-4])
def test_inactive_bounds_lambda_sweep_matches_unconstrained(scheme, lam):
    # a smaller lambda stretches the spectrum of the preconditioned reduced
    # Hessian to [1, 1 + ||S*S|| / lambda], about [1, 27] at 1e-4
    wide = problem_from_preset("wc-default", lam=lam, bounds=(-1e6, 1e6))
    free = ControlProblem(f=wide.f, y_d=wide.y_d, lam=lam)
    mesh = cached_cartesian(16)
    cfg = PgdConfig()
    if scheme == "wc1":
        space = HhoSpace(mesh, 0, dirichlet=True)
        a, b = solve_wc1(space, wide, cfg), solve_uc1(space, free)
    else:
        space = HhoSpace(mesh, 1, cell_degree=2, dirichlet=True)
        a = solve_wc2(space, wide, cfg)
        b = _solve_two_field(space, free, "vd-mixed")
    assert a.final_increment <= cfg.tol
    assert np.abs(a.y - b.y).max() < 1e-8
    assert np.abs(a.phi - b.phi).max() < 1e-8


@pytest.mark.parametrize("scheme", ["wc1", "wc2"])
def test_round_off_floor_above_tol_raises_at_once(scheme):
    # at lambda = 1e-5 the fixed-point residual levels off above the
    # default tol 1e-10; the loop reports the floor instead of taking all
    # of its max_iters Newton steps
    prob = problem_from_preset("wc-default", lam=1e-5, bounds=(-1e6, 1e6))
    mesh = cached_cartesian(16)
    if scheme == "wc1":
        solve, space = solve_wc1, HhoSpace(mesh, 0, dirichlet=True)
    else:
        solve = solve_wc2
        space = HhoSpace(mesh, 1, cell_degree=2, dirichlet=True)
    cfg = PgdConfig()
    with pytest.raises(PgdIterationError, match="stopped shrinking") as err:
        solve(space, prob, cfg)
    steps = int(re.search(r"after (\d+) Newton steps", str(err.value))[1])
    assert steps <= 20
    assert err.value.final_increment > cfg.tol
    assert f"{err.value.final_increment:.3e}" in str(err.value)


def test_wc2_zero_data():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 1, cell_degree=2, dirichlet=True)
    prob = ControlProblem(f=ZERO, y_d=ZERO, lam=1e-2, bounds=(-1.0, 1.0))
    sol = solve_wc2(space, prob)
    assert np.abs(sol.y).max() == 0.0


def test_wc2_feasibility_every_iterate():
    prob = problem_from_preset("wc-default")
    box = AdmissibleBox(*prob.bounds)
    for mesh in meshes():
        space = HhoSpace(mesh, 1, cell_degree=2, dirichlet=True)
        sol = solve_wc2(space, prob, keep_history=True)
        n_nodes = sum(len(op.qw) for op in space.local_ops())
        for snapshot in sol.history:
            assert snapshot.shape == (n_nodes,)
            assert (snapshot >= box.u_a).all() and (snapshot <= box.u_b).all()


def test_wc2_inactive_bounds_match_variational_mixed():
    wide = problem_from_preset("wc-default", bounds=(-1e9, 1e9))
    free = ControlProblem(f=wide.f, y_d=wide.y_d, lam=wide.lam)
    for mesh in meshes():
        space = HhoSpace(mesh, 1, cell_degree=2, dirichlet=True)
        a = solve_wc2(space, wide)
        # the uc1/uc2 complex state-adjoint system on the mixed-order space
        b = _solve_two_field(space, free, "vd-mixed")
        assert np.abs(a.y - b.y).max() < 1e-8


def test_wc2_single_cell_matches_pointwise_clamp_oracle():
    mesh = cached_cartesian(1)
    space = HhoSpace(mesh, 1, cell_degree=2, dirichlet=True)
    prob = problem_from_preset("wc-default")
    sol = solve_wc2(space, prob)
    box = AdmissibleBox(*prob.bounds)

    # projection identity at every quadrature node of the returned adjoint
    op = space.local_ops()[0]
    phi_q = op.Vl @ space.cell_blocks(sol.phi)[0]
    clamp = np.clip(-phi_q / prob.lam, box.u_a, box.u_b)
    samples = sol.control.at_nodes()[:len(op.qw)]  # cell 0's nodes come first
    assert np.abs(samples - clamp).max() < 1e-8

    # independent minimizer of the sampled quadratic via a bound-constrained
    # quasi-Newton solve; confirms the fixed point is the global optimum
    from scipy.optimize import minimize

    act = space.active_dofs
    A = dense_stiffness(space)[np.ix_(act, act)]
    M = dense_cell_mass(space)[np.ix_(act, act)]
    F_f = cell_load_vector(space, prob.f)[act]
    F_yd = cell_load_vector(space, prob.y_d)[act]
    Vl, w = op.Vl, op.qw
    yd_vals = prob.y_d(op.qp + op.centroid)

    def cost_and_grad(u):
        y = np.linalg.solve(A, F_f + Vl.T @ (w * u))
        misfit = Vl @ y - yd_vals
        phi = np.linalg.solve(A, Vl.T @ (w * misfit))
        j = 0.5 * w @ misfit ** 2 + 0.5 * prob.lam * w @ u ** 2
        g = w * (Vl @ phi + prob.lam * u)
        return j, g

    start = np.clip(np.zeros(len(w)), box.u_a, box.u_b)
    res = minimize(cost_and_grad, start, jac=True, method="L-BFGS-B",
                   bounds=[(box.u_a, box.u_b)] * len(w),
                   options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-12})
    assert res.success
    # the fixed point must be at least as optimal as the quasi-Newton result
    j_solver = cost_and_grad(samples)[0]
    assert j_solver <= res.fun + 1e-9 * (1.0 + abs(res.fun))


def test_wc1_rate_coarse():
    prob = problem_from_preset("wc-default")
    errs, hs = [], []
    for n in (4, 8, 16):
        mesh = cached_cartesian(n)
        space = HhoSpace(mesh, 0, dirichlet=True)
        sol = solve_wc1(space, prob)
        errs.append(l2_error_control(sol, prob.exact.u))
        hs.append(mesh.max_diameter())
    assert 0.8 <= eoc(errs, hs)[-1] <= 1.3


def test_wc2_rate_coarse():
    prob = problem_from_preset("wc-default")
    errs, hs = [], []
    for n in (4, 8, 16):
        mesh = cached_cartesian(n)
        space = HhoSpace(mesh, 1, cell_degree=2, dirichlet=True)
        sol = solve_wc2(space, prob)
        errs.append(l2_error_control(sol, prob.exact.u))
        hs.append(mesh.max_diameter())
    assert 2.6 <= eoc(errs, hs)[-1] <= 3.4
