import numpy as np
import pytest

from hho_control import (HhoSpace, OptimalitySystem, UnsupportedDegreeError,
                         solve_uc1, solve_uc2, solve_uc31, solve_uc32)
from hho_control.control_unconstrained import ControlProblem
from hho_control.errors import (energy_error, eoc, l2_error_control,
                                l2_error_reconstruction)
from hho_control.hho_core import cell_load_vector, reconstruct_all
from hho_control.presets import problem_from_preset
from helpers import (cached_cartesian, cached_voronoi, cell_dofs,
                     dense_cell_mass, dense_cross_coupling, dense_recon_mass,
                     dense_stiffness, voronoi_with_l_cell)

ZERO = lambda p: np.zeros(len(np.atleast_2d(p)))


def zero_problem(lam=1e-2):
    return ControlProblem(f=ZERO, y_d=ZERO, lam=lam)


# ---------------------------------------------------------------------------
# zero data and scheme identities
# ---------------------------------------------------------------------------

def test_all_schemes_zero_for_zero_data():
    mesh = cached_cartesian(2)
    prob = zero_problem()
    for solver, space in (
            (solve_uc1, HhoSpace(mesh, 0, dirichlet=True)),
            (solve_uc2, HhoSpace(mesh, 1, dirichlet=True)),
            (solve_uc31, HhoSpace(mesh, 1, dirichlet=True)),
            (solve_uc32, HhoSpace(mesh, 2, cell_degree=3, dirichlet=True))):
        sol = solver(space, prob)
        assert np.abs(sol.y).max() == 0.0
        assert np.abs(sol.phi).max() == 0.0


@pytest.mark.parametrize("k", [0, 1])
def test_uc1_equals_uc2(k):
    mesh = cached_cartesian(4)
    space = HhoSpace(mesh, k, dirichlet=True)
    prob = problem_from_preset("uc1-default")
    a = solve_uc1(space, prob)
    b = solve_uc2(space, prob)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.control.coeffs, b.control.coeffs)


def test_adjoint_uses_the_same_matrix_object():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 1, dirichlet=True)
    assert space.stiffness_matrix() is space.stiffness_matrix()


def test_degree_guards():
    mesh = cached_cartesian(2)
    prob = zero_problem()
    with pytest.raises(UnsupportedDegreeError):
        solve_uc31(HhoSpace(mesh, 2, dirichlet=True), prob)
    with pytest.raises(UnsupportedDegreeError):
        solve_uc32(HhoSpace(mesh, 1, cell_degree=2, dirichlet=True), prob)


def test_space_of_the_wrong_layout_rejected():
    # uc1 needs the zero-trace equal-order space, uc32 the mixed-order one
    mesh = cached_cartesian(2)
    prob = zero_problem()
    for solve, space in [
            (solve_uc1, HhoSpace(mesh, 1, cell_degree=2, dirichlet=True)),
            (solve_uc1, HhoSpace(mesh, 1)),
            (solve_uc32, HhoSpace(mesh, 2, dirichlet=True))]:
        with pytest.raises(ValueError, match="requires the zero-trace space"):
            solve(space, prob)


def test_bounds_rejected():
    mesh = cached_cartesian(2)
    prob = ControlProblem(f=ZERO, y_d=ZERO, lam=1e-2, bounds=(-1.0, 1.0))
    with pytest.raises(ValueError, match="bounds"):
        solve_uc1(HhoSpace(mesh, 0, dirichlet=True), prob)


# ---------------------------------------------------------------------------
# dense KKT oracles
# ---------------------------------------------------------------------------

def test_uc1_matches_dense_kkt_oracle():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 0, dirichlet=True)
    prob = problem_from_preset("uc1-default")
    sol = solve_uc1(space, prob)

    act = space.active_dofs
    fix = space.fixed_dofs
    A = dense_stiffness(space)
    M = dense_cell_mass(space)
    F_f = cell_load_vector(space, prob.f)
    F_yd = cell_load_vector(space, prob.y_d)
    g = space.boundary_values(prob.state_boundary)
    n = len(act)
    K = np.zeros((2 * n, 2 * n))
    K[:n, :n] = A[np.ix_(act, act)]
    K[:n, n:] = M[np.ix_(act, act)] / prob.lam
    K[n:, :n] = -M[np.ix_(act, act)]
    K[n:, n:] = A[np.ix_(act, act)]
    rhs = np.concatenate([F_f[act] - A[np.ix_(act, fix)] @ g, -F_yd[act]])
    dense = np.linalg.solve(K, rhs)

    got = np.concatenate([sol.y[act], sol.phi[act]])
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(got - dense).max() < 1e-10 * scale
    resid = K @ got - rhs
    assert np.linalg.norm(resid) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def test_uc31_matches_dense_kkt_oracle():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 0, dirichlet=True)
    prob = problem_from_preset("uc31-default")
    sol = solve_uc31(space, prob)

    act = space.active_dofs
    A = dense_stiffness(space)
    B = dense_recon_mass(space)
    from hho_control.hho_core import recon_load_vector

    points = space.nodes().points
    F_f = recon_load_vector(space, prob.f(points))
    F_yd = recon_load_vector(space, prob.y_d(points))
    n = len(act)
    K = np.zeros((2 * n, 2 * n))
    K[:n, :n] = A[np.ix_(act, act)]
    K[:n, n:] = B[np.ix_(act, act)] / prob.lam
    K[n:, :n] = -B[np.ix_(act, act)]
    K[n:, n:] = A[np.ix_(act, act)]
    rhs = np.concatenate([F_f[act], -F_yd[act]])
    dense = np.linalg.solve(K, rhs)
    got = np.concatenate([sol.y[act], sol.phi[act]])
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(got - dense).max() < 1e-10 * scale


def test_uc32_matches_dense_kkt_oracle():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 2, cell_degree=3, dirichlet=True)
    prob = problem_from_preset("uc32-default")
    sol = solve_uc32(space, prob)
    control_space = HhoSpace(mesh, 2, dirichlet=False)

    from hho_control.control_unconstrained import _cross_coupling

    act = space.active_dofs
    A = dense_stiffness(space)[np.ix_(act, act)]
    M = dense_cell_mass(space)[np.ix_(act, act)]
    Kc = _cross_coupling(space, control_space).toarray()[act]
    B = dense_recon_mass(control_space)
    F_f = cell_load_vector(space, prob.f)[act]
    F_yd = cell_load_vector(space, prob.y_d)[act]
    n, nu = len(act), control_space.n_dofs

    # dense reference assembly matches the sparse blocks entrywise
    sparse_B = control_space.recon_mass_matrix().toarray()
    assert np.abs(sparse_B - B).max() <= 1e-12 * max(1.0, np.abs(B).max())
    sparse_A = space.stiffness_matrix().toarray()[np.ix_(act, act)]
    assert np.abs(sparse_A - A).max() <= 1e-12 * np.abs(A).max()

    # identical pinned system solved densely; only the pinning regularizes
    # the kernel of the global reconstruction, so the paths must agree
    eps = 1e-12 * prob.lam * B.diagonal().max()
    big = np.zeros((2 * n + nu, 2 * n + nu))
    big[:n, :n] = A
    big[:n, 2 * n:] = -Kc
    big[n:2 * n, :n] = -M
    big[n:2 * n, n:2 * n] = A
    big[2 * n:, n:2 * n] = Kc.T
    big[2 * n:, 2 * n:] = prob.lam * B + eps * np.eye(nu)
    rhs = np.concatenate([F_f, -F_yd, np.zeros(nu)])
    dense = np.linalg.solve(big, rhs)

    got = np.concatenate([sol.y[act], sol.phi[act]])
    ref = dense[:2 * n]
    scale = max(1.0, np.abs(ref).max())
    assert np.abs(got - ref).max() < 1e-10 * scale

    # the reconstruction of the control is unique even though u_hat is not
    ru_got = reconstruct_all(control_space, sol.control_hat)
    ru_ref = reconstruct_all(control_space, dense[2 * n:])
    assert np.abs(ru_got - ru_ref).max() < 1e-9 * max(1.0, np.abs(ru_ref).max())

    # variational optimality residual of the unperturbed equation
    r = prob.lam * B @ sol.control_hat + Kc.T @ sol.phi[act]
    assert np.linalg.norm(r) <= 1e-10 * max(
        1.0, prob.lam * np.linalg.norm(B @ sol.control_hat))


def test_reported_residuals_below_contract():
    mesh = cached_cartesian(4)
    for solver, space, preset in (
            (solve_uc1, HhoSpace(mesh, 1, dirichlet=True), "uc1-default"),
            (solve_uc31, HhoSpace(mesh, 1, dirichlet=True), "uc31-default"),
            (solve_uc32, HhoSpace(mesh, 2, cell_degree=3, dirichlet=True),
             "uc32-default")):
        sol = solver(space, problem_from_preset(preset))
        assert max(sol.residuals.values()) <= 1e-9


def test_uc32_errors_stable_under_last_bit_load_changes(monkeypatch):
    # The pinned three-field system amplifies round-off: without extended-
    # precision refinement a 1e-15 relative change of the cell loads moved
    # the reported errors by up to 1e-4.
    from hho_control import cli, control_unconstrained
    from hho_control.errors import QUANTITIES

    cfg = cli.ExperimentConfig(scheme="uc32", degree=2, mesh_family="cartesian",
                               preset="uc32-default", levels=[16])
    prob = cfg.build_problem()
    base = cli.run_level(cfg, prob, 16)
    rng = np.random.default_rng(3)
    loads = control_unconstrained.load_vectors
    calls = []

    def perturbed(*args, **kwargs):
        calls.append(1)
        *vectors, exact = loads(*args, **kwargs)
        return (*(v * (1.0 + 1e-15 * rng.standard_normal(v.shape))
                  for v in vectors), exact)

    monkeypatch.setattr(control_unconstrained, "load_vectors", perturbed)
    got = cli.run_level(cfg, prob, 16)
    assert calls == [1]
    for q in QUANTITIES:
        assert abs(getattr(got, q) - getattr(base, q)) <= 1e-10 * getattr(base, q)


UC_SWEEP = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10)


@pytest.mark.parametrize("scheme, lam", [
    pytest.param("uc1", lam, id=str(lam)) for lam in UC_SWEEP] + [
    pytest.param("uc31", lam, id=f"uc31-{lam}") for lam in UC_SWEEP])
def test_uc1_lambda_sweep_passes_residual_gate(scheme, lam):
    # The complex matrix A - i C/sqrt(lam), Hermitian part A, is factored
    # without pivoting; small lam must not cost accuracy.
    solver, preset = {"uc1": (solve_uc1, "uc1-default"),
                      "uc31": (solve_uc31, "uc31-default")}[scheme]
    space = HhoSpace(cached_cartesian(8), 1, dirichlet=True)
    prob = problem_from_preset(preset)
    sol = solver(space, ControlProblem(prob.f, prob.y_d, lam,
                                       state_boundary=prob.state_boundary))
    assert max(sol.residuals.values()) <= 1e-10
    assert 1 <= sol.refinement["steps"] <= OptimalitySystem.MAX_REFINEMENT_STEPS
    assert sol.refinement["residual"] <= 1e-14


def test_uc1_factors_one_matrix_over_the_active_face_dofs(monkeypatch):
    # state and adjoint are one complex unknown, and the cells are
    # eliminated: one complex factorization over the n_F active face DOFs,
    # not of the 2 n_F rows of a real two-field face system
    from hho_control import hho_core

    shapes, splu = [], hho_core.spla.splu

    def recording(matrix, **kwargs):
        shapes.append((matrix.shape, matrix.dtype.kind))
        return splu(matrix, **kwargs)

    monkeypatch.setattr(hho_core.spla, "splu", recording)
    space = HhoSpace(cached_cartesian(4), 1, dirichlet=True)
    solve_uc1(space, problem_from_preset("uc1-default"))
    n = len(space.active_dofs) - space.n_cell_dofs
    assert shapes == [((n, n), "c")]


@pytest.mark.parametrize("lam", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_uc32_lambda_sweep_passes_residual_gate(lam):
    # C^{-1} times the reduced Hessian has its spectrum in
    # [1, 1 + ||S||^2 / lam]: a small lam costs CG steps, not accuracy
    space = HhoSpace(cached_cartesian(8), 2, cell_degree=3, dirichlet=True)
    prob = problem_from_preset("uc32-default")
    sol = solve_uc32(space, ControlProblem(prob.f, prob.y_d, lam,
                                           state_boundary=prob.state_boundary))
    assert max(sol.residuals.values()) <= 1e-10
    assert 1 <= sol.refinement["cg_steps"] <= space.n_dofs


def test_cross_coupling_matches_cell_by_cell_reference():
    # Voronoi cells plus the ear-clipped L cell: the grouped coupling must
    # equal the one assembled cell by cell from each cell's own bases.
    from hho_control.control_unconstrained import _cross_coupling

    mesh = voronoi_with_l_cell()
    space = HhoSpace(mesh, 2, cell_degree=3, dirichlet=True)
    control_space = HhoSpace(mesh, 2)
    K = _cross_coupling(space, control_space).toarray()
    ref = dense_cross_coupling(space, control_space)
    assert np.abs(K - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


# ---------------------------------------------------------------------------
# convexity of the reduced cost around the discrete minimizer
# ---------------------------------------------------------------------------

def _reduced_cost(space, prob, u_coeffs):
    import scipy.sparse.linalg as spla

    act = space.active_dofs
    A = space.stiffness_matrix()[act][:, act].tocsc()
    load = np.zeros(space.n_dofs)
    norm_u_sq = 0.0
    for op in space.local_ops():
        c = u_coeffs[op.cell_id]
        load[cell_dofs(space, op.cell_id)] = op.M_cell @ c
        norm_u_sq += c @ op.M_cell @ c
    rhs = (cell_load_vector(space, prob.f) + load)[act]
    g = space.boundary_values(prob.state_boundary)
    if len(space.fixed_dofs):
        rhs = rhs - space.stiffness_matrix()[act][:, space.fixed_dofs] @ g
    ya = spla.splu(A).solve(rhs)
    y = np.zeros(space.n_dofs)
    y[act] = ya
    y[space.fixed_dofs] = g
    misfit = 0.0
    for op in space.local_ops():
        vals = (op.Vl @ y[cell_dofs(space, op.cell_id)]
                - prob.y_d(op.qp + op.centroid))
        misfit += op.qw @ vals ** 2
    return 0.5 * misfit + 0.5 * prob.lam * norm_u_sq


def test_uc1_second_order_optimality():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 0, dirichlet=True)
    prob = problem_from_preset("uc1-default")
    sol = solve_uc1(space, prob)
    base = _reduced_cost(space, prob, sol.control.coeffs)
    rng = np.random.default_rng(17)
    for _ in range(3):
        direction = rng.standard_normal(sol.control.coeffs.shape)
        direction /= np.abs(direction).max()
        for t in (1e-3, -1e-3):
            perturbed = _reduced_cost(space, prob,
                                      sol.control.coeffs + t * direction)
            assert perturbed >= base - 1e-8 * max(1.0, abs(base))


# ---------------------------------------------------------------------------
# manufactured-solution convergence (coarse smoke level; the acceptance
# suite runs the full tables)
# ---------------------------------------------------------------------------

def test_uc1_preset_rates_coarse():
    prob = problem_from_preset("uc1-default")
    errs, hs = [], []
    for n in (4, 8, 16):
        mesh = cached_cartesian(n)
        space = HhoSpace(mesh, 1, dirichlet=True)
        sol = solve_uc1(space, prob)
        errs.append(l2_error_control(sol, prob.exact.u))
        hs.append(mesh.max_diameter())
    assert 1.8 <= eoc(errs, hs)[-1] <= 2.3


def test_uc31_control_rate_coarse():
    prob = problem_from_preset("uc31-default")
    errs, hs = [], []
    for n in (8, 16, 32):
        mesh = cached_cartesian(n)
        space = HhoSpace(mesh, 0, dirichlet=True)
        sol = solve_uc31(space, prob)
        errs.append(l2_error_control(sol, prob.exact.u))
        hs.append(mesh.max_diameter())
    assert 1.7 <= eoc(errs, hs)[-1] <= 2.3


def test_uc32_control_rate_coarse():
    prob = problem_from_preset("uc32-default")
    errs, hs = [], []
    for n in (4, 8):
        mesh = cached_cartesian(n)
        space = HhoSpace(mesh, 2, cell_degree=3, dirichlet=True)
        sol = solve_uc32(space, prob)
        errs.append(l2_error_control(sol, prob.exact.u))
        hs.append(mesh.max_diameter())
    assert 3.4 <= eoc(errs, hs)[-1] <= 4.4


def test_voronoi_uc1_runs_and_converges():
    prob = problem_from_preset("uc1-default")
    errs, hs = [], []
    for seeds in (16, 64, 256):
        mesh = cached_voronoi(seeds)
        space = HhoSpace(mesh, 0, dirichlet=True)
        sol = solve_uc1(space, prob)
        errs.append(energy_error(space, sol.y, prob.exact.y))
        hs.append(mesh.max_diameter())
    assert 0.7 <= eoc(errs, hs)[-1] <= 1.4
