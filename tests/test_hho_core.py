import numpy as np
import pytest
import scipy.sparse as sp

from hho_control import (HhoSpace, make_cartesian, solve_poisson, solve_uc1,
                         solve_wc2)
from hho_control.control_unconstrained import _pinned_mass
from hho_control.errors import energy_error, eoc, l2_error_reconstruction
from hho_control.hho_core import (NonFiniteError, OptimalitySystem, _build,
                                  _grad_grams, _norm, _views, cell_load_vector,
                                  h1h_seminorm_sq, local_stiffness,
                                  reconstruct_all, reduce_function,
                                  scatter_blocks)
from hho_control.poly import monomial_table, space_dimension
from hho_control.presets import problem_from_preset
from helpers import (cached_cartesian, cached_voronoi, cell_basis, cell_dofs,
                     cell_face_ids, cell_normals, count_calls,
                     dense_face_schur, dense_recon_mass, dense_stiffness,
                     face_gauss, global_monomials, recon_basis,
                     reduce_reconstruct_stabilize, segment_monomial_integral,
                     stabilization, voronoi_with_l_cell)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("mesh_name", ["cartesian", "voronoi", "l-cell"])
def test_reconstruction_and_stabilization_polynomial_exactness(k, mesh_name):
    mesh = {"cartesian": cached_cartesian(4), "voronoi": cached_voronoi(16),
            "l-cell": voronoi_with_l_cell()}[mesh_name]
    space = HhoSpace(mesh, k, dirichlet=False)
    for p in global_monomials(k + 1):
        for op, red, err, (polys, value) in reduce_reconstruct_stabilize(space, p):
            scale = max(1.0, np.abs(red).max())
            assert err < 1e-11 * scale
            assert value < 1e-22 * scale ** 2
            for sf in polys:
                assert np.abs(sf).max() < 1e-11 * scale


def test_reconstruct_constant_mean_constraint():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 1, dirichlet=False)
    rec = reconstruct_all(space, reduce_function(space,
                                                 lambda p: np.full(len(p), 3.25)))
    vals = space.nodes().values("Vr", rec)
    assert np.abs(vals - 3.25).max() < 1e-12


def test_reconstruction_against_constrained_least_squares_oracle():
    # k = 0 on a unit cell, zero cell value, face values = face midpoint x.
    mesh = cached_cartesian(1)
    space = HhoSpace(mesh, 0, dirichlet=False)
    op = space.local_ops()[0]
    local = np.zeros(1 + 4)
    for j, fid in enumerate(op.face_ids):
        local[1 + j] = mesh.face_points[fid, :, 0].mean()
    vec = np.zeros(space.n_dofs)
    vec[op.dofs] = local
    (got,) = reconstruct_all(space, vec)

    # Oracle: stack the gradient relations against every recon basis function
    # plus the mean constraint, solve the consistent system densely.
    rb = recon_basis(op)
    w, pts = op.qw, op.qp + op.centroid
    grads = rb.grad(pts)
    K = np.einsum("nid,n,njd->ij", grads, w, grads)
    rhs = np.zeros(rb.dimension)
    for j, fid in enumerate(op.face_ids):
        fp, fw, _ = face_gauss(mesh, fid, len(op.fqw[j]), 1)
        dgn = rb.grad(fp) @ cell_normals(mesh, 0)[j]
        # (v_F - v_T, grad q . n): the cell value is zero here
        rhs += dgn.T @ (fw * local[1 + j])
    rows = np.vstack([K, w @ rb.eval(pts)])
    rhs_full = np.concatenate([rhs, [local[0] * mesh.cell_areas[op.cell_id]]])
    oracle, *_ = np.linalg.lstsq(rows, rhs_full, rcond=None)
    assert np.abs(got - oracle).max() < 1e-10


def test_stabilization_constant_vanishes():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 1, dirichlet=False)
    vec = reduce_function(space, lambda p: np.full(len(p), -2.0))
    op = space.local_ops()[0]
    polys, value = stabilization(op, vec[op.dofs])
    assert value < 1e-24
    assert all(np.abs(sf).max() < 1e-12 for sf in polys)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_stabilization_against_direct_formula_oracle(k):
    # Brute-force evaluation of the projected trace residual on a coarse cell.
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, k, dirichlet=False)
    op = space.local_ops()[0]
    target = lambda p: np.sin(np.pi * p[:, 0])
    vec = reduce_function(space, target)
    red = vec[op.dofs]
    _, value = stabilization(op, red)

    cb, rb = cell_basis(op), recon_basis(op)
    rec = reconstruct_all(space, vec)[op.cell_id]
    dl = space.cell_dim
    total = 0.0
    for j in range(len(op.face_ids)):
        fp, fw, Vf = face_gauss(mesh, op.face_ids[j], len(op.fqw[j]),
                                space.face_dim)
        # Pi_T^l of the reconstruction, evaluated on the face
        w, pts = op.qw, op.qp + op.centroid
        M = cb.eval(pts).T @ (w[:, None] * cb.eval(pts))
        rhs = cb.eval(pts).T @ (w * (rb.eval(pts) @ rec))
        proj_cell = np.linalg.solve(M, rhs)
        resid_vals = (cb.eval(fp) @ red[:dl]
                      - Vf @ red[dl + j * space.face_dim:
                                       dl + (j + 1) * space.face_dim]
                      + rb.eval(fp) @ rec - cb.eval(fp) @ proj_cell)
        Mf = Vf.T @ (fw[:, None] * Vf)
        coeff = np.linalg.solve(Mf, Vf.T @ (fw * resid_vals))
        vals = Vf @ coeff
        total += fw @ vals ** 2
    total /= op.h
    assert abs(value - total) < 1e-10 * max(1.0, total)


@pytest.mark.parametrize("degree", [0, 1])
def test_l2_projection_idempotent(degree):
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, degree, dirichlet=False)
    op = space.local_ops()[0]
    cb = cell_basis(op)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(cb.dimension)
    proj = space.cell_blocks(reduce_function(space, lambda p: cb.eval(p) @ coeffs))[0]
    assert np.abs(proj - coeffs).max() < 1e-12


def test_l2_projection_onto_constants():
    mesh = cached_cartesian(1)
    space = HhoSpace(mesh, 0, dirichlet=False)
    op = space.local_ops()[0]
    proj = space.cell_blocks(reduce_function(space, lambda p: p[:, 0] ** 2))[0]
    vals = op.Vl @ proj
    assert np.abs(vals - 1.0 / 3.0).max() < 1e-13  # mean of x^2 on (0,1)^2


def test_projection_error_decreases_with_degree():
    mesh = cached_cartesian(1)
    errs = []
    for degree in (0, 1, 2, 3):
        space = HhoSpace(mesh, degree, dirichlet=False)
        op = space.local_ops()[0]
        f = lambda p: np.sin(np.pi * p[:, 0])
        proj = space.cell_blocks(reduce_function(space, f))[0]
        d = f(op.qp + op.centroid) - op.Vl @ proj
        errs.append(np.sqrt(op.qw @ d ** 2))
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def test_non_finite_dirichlet_data_are_rejected():
    space = HhoSpace(cached_cartesian(2), 1, dirichlet=True)
    for bad in (np.nan, np.inf):
        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteError, match="Dirichlet data"):
            space.boundary_values(lambda p: np.where(p[:, 0] == 0.0, bad, 1.0))


def test_reduce_of_constant():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 1, dirichlet=False)
    vec = reduce_function(space, lambda p: np.full(len(p), 7.0))
    for op in space.local_ops():
        cell_vals = op.Vl @ vec[cell_dofs(space, op.cell_id)]
        assert np.abs(cell_vals - 7.0).max() < 1e-12
        for j, fid in enumerate(op.face_ids):
            dofs = space.face_dof_start[fid] + np.arange(space.face_dim)
            _, _, Vf = face_gauss(mesh, fid, len(op.fqw[j]), space.face_dim)
            face_vals = Vf @ vec[dofs]
            assert np.abs(face_vals - 7.0).max() < 1e-12


def test_reduce_reproduces_global_polynomial():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 2, dirichlet=False)
    poly = lambda p: 1.0 + 2.0 * p[:, 0] - p[:, 1] + 0.5 * p[:, 0] * p[:, 1]
    vec = reduce_function(space, poly)
    for op in space.local_ops():
        pts = op.qp + op.centroid
        assert np.abs(op.Vl @ vec[cell_dofs(space, op.cell_id)]
                      - poly(pts)).max() < 1e-12


def test_elliptic_projection_identity_and_gradient_optimality():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 1, dirichlet=False)
    op = space.local_ops()[0]
    rb = recon_basis(op)

    def elliptic_project(f):
        """R_T of the reduction of f on cell 0: identity on P_{k+1}(T)."""
        return reconstruct_all(space, reduce_function(space, f))[op.cell_id]

    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(rb.dimension)
    got = elliptic_project(lambda p: rb.eval(p) @ coeffs)
    assert np.abs(got - coeffs).max() < 1e-11

    got_c = elliptic_project(lambda p: np.full(len(p), 4.5))
    vals = op.Vr @ got_c
    assert np.abs(vals - 4.5).max() < 1e-12

    # gradient optimality: || grad(v - E v) || <= || grad(v - Pi v) ||
    v = lambda p: np.exp(p[:, 0] + p[:, 1])
    w, pts = op.qw, op.qp + op.centroid
    grads = rb.grad(pts)
    ev = elliptic_project(v)
    # L2 projection of v onto the recon space
    piv = np.linalg.solve(op.M_recon, op.Vr.T @ (w * v(pts)))
    gv_exact = np.column_stack([v(pts), v(pts)])  # grad e^{x+y} = (e, e)
    err_e = gv_exact - np.einsum("nid,i->nd", grads, ev)
    err_p = gv_exact - np.einsum("nid,i->nd", grads, piv)
    assert w @ (err_e ** 2).sum(1) <= w @ (err_p ** 2).sum(1) + 1e-14


@pytest.mark.parametrize("k", [0, 1, 2])
def test_local_stiffness_kernel_and_symmetry(k):
    mesh = cached_voronoi(16)
    space = HhoSpace(mesh, k, dirichlet=False)
    interp = reduce_function(space, lambda p: np.ones(len(p)))
    for op in space.local_ops():
        A = op.A
        assert np.abs(A - A.T).max() <= 1e-13 * max(1.0, np.abs(A).max())
        ones = interp[op.dofs]
        assert np.abs(A @ ones).max() < 1e-11 * max(1.0, np.abs(A).max())
        eigs = np.linalg.eigvalsh(A)
        assert eigs[0] > -1e-12 * abs(eigs[-1])
        assert eigs[1] > 1e-8 * abs(eigs[-1])  # kernel is exactly constants


def test_local_energy_matches_dense_formula_oracle():
    # Energy of the interpolate of x on the unit cell, k = 0: the
    # reconstruction of I(x) is x itself, so a_T = |grad x|^2 |T| = 1 and the
    # stabilization vanishes.
    mesh = cached_cartesian(1)
    space = HhoSpace(mesh, 0, dirichlet=False)
    op = space.local_ops()[0]
    red = reduce_function(space, lambda p: p[:, 0])[op.dofs]
    assert abs(red @ op.A @ red - 1.0) < 1e-12


def test_dense_assembly_matches_sparse():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 0, dirichlet=False)
    A_sparse = space.stiffness_matrix().toarray()
    A_dense = dense_stiffness(space)
    scale = np.abs(A_dense).max()
    assert np.abs(A_sparse - A_dense).max() <= 1e-12 * scale


def test_zero_load_gives_zero_solution():
    mesh = cached_cartesian(4)
    space = HhoSpace(mesh, 1, dirichlet=True)
    sol = solve_poisson(space, lambda p: np.zeros(len(p)))
    assert np.abs(sol).max() == 0.0


def test_poisson_manufactured_rates():
    y = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    f = lambda p: 2 * np.pi ** 2 * y(p)
    for k in (0, 1):
        errs_energy, errs_recon, hs = [], [], []
        for n in (4, 8, 16):
            mesh = cached_cartesian(n)
            space = HhoSpace(mesh, k, dirichlet=True)
            sol = solve_poisson(space, f)
            errs_energy.append(energy_error(space, sol, y))
            errs_recon.append(l2_error_reconstruction(space, sol, y))
            hs.append(mesh.max_diameter())
        assert k + 0.8 <= eoc(errs_energy, hs)[-1] <= k + 1.3
        assert k + 1.7 <= eoc(errs_recon, hs)[-1] <= k + 2.3


def test_reduce_of_smooth_state_has_finite_energy():
    from hho_control.presets import problem_from_preset

    mesh = cached_cartesian(4)
    space = HhoSpace(mesh, 1, dirichlet=True)
    prob = problem_from_preset("uc1-default")
    vec = reduce_function(space, prob.exact.y)
    value = h1h_seminorm_sq(space, vec)
    assert np.isfinite(value) and value > 0


def test_norm_consistency():
    mesh = cached_cartesian(3)
    free = HhoSpace(mesh, 1, dirichlet=False)
    ones = reduce_function(free, lambda p: np.ones(len(p)))
    assert h1h_seminorm_sq(free, ones) < 1e-24

    fixed = HhoSpace(mesh, 1, dirichlet=True)
    rng = np.random.default_rng(8)
    vec = np.zeros(fixed.n_dofs)
    vec[fixed.active_dofs] = rng.standard_normal(len(fixed.active_dofs))
    assert h1h_seminorm_sq(fixed, vec) > 0


def test_condensed_schur_spd():
    mesh = cached_cartesian(4)
    space = HhoSpace(mesh, 1, dirichlet=True)
    # raises if not SPD
    np.linalg.cholesky(dense_face_schur(space, space.stiffness_matrix()))


def _local_and_matrix(space, case, rng=None):
    """``OptimalitySystem`` local blocks of a test matrix, and its assembly.

    ``stiffness`` is A; ``complex`` the uc1 matrix A - i M / sqrt(1e-2) and
    ``free`` A + M, with M the cell mass on the cell block; ``pinned`` uc32's
    control mass lam B + eps I (lam = 1e-2), one block per cell; and
    ``nonsymmetric`` A plus a random skew-symmetric block per cell (its
    Hermitian part stays A).
    """
    dl = space.cell_dim
    if case == "pinned":
        B = dense_recon_mass(space)
        eps = 1e-12 * 1e-2 * B.diagonal().max()
        return (_pinned_mass(space, 1e-2),
                sp.csr_matrix(1e-2 * B + eps * np.eye(space.n_dofs)))
    if case == "nonsymmetric":
        skew = {g: rng.standard_normal(g.dofs.shape + g.dofs.shape[-1:])
                for g in space.kernel_groups()}
        skew = {g: r - np.swapaxes(r, 1, 2) for g, r in skew.items()}
        local = lambda g: (g.kernels["A"][g.rows] + skew[g],
                           np.arange(len(g.cells)))
        return local, space.stiffness_matrix() + scatter_blocks(
            (space.n_dofs,) * 2, [(g.dofs, g.dofs, r) for g, r in skew.items()])
    scale = {"stiffness": 0.0, "complex": -1j / np.sqrt(1e-2), "free": 1.0}[case]

    def local(g):
        blocks = g.kernels["A"] + 0 * scale  # complex for a complex scale
        if scale:
            blocks[:, :dl, :dl] += scale * g.kernels["M_cell"]
        return blocks, g.rows

    return local, space.stiffness_matrix() + scale * space.cell_mass_matrix()


@pytest.mark.parametrize("k, cell_degree, case", [
    pytest.param(0, 0, "stiffness", id="0-0"),
    pytest.param(1, 1, "stiffness", id="1-1"),
    pytest.param(1, 2, "stiffness", id="1-2"),
    pytest.param(0, 0, "complex", id="0-0-complex"),
    pytest.param(1, 1, "complex", id="1-1-complex"),
    pytest.param(1, 1, "free", id="1-1-free"),
    pytest.param(1, 2, "free", id="1-2-free"),
    pytest.param(1, 1, "pinned", id="1-1-pinned")])
@pytest.mark.parametrize("mesh_name", ["cartesian", "voronoi"])
def test_factored_matrix_is_the_dense_face_schur_complement(
        k, cell_degree, case, mesh_name, monkeypatch):
    # the one matrix handed to SuperLU is the face Schur complement of the
    # active matrix, eliminated densely, taken in the face order: for the
    # Dirichlet stiffness, the complex uc1 matrix A - iC/sqrt(lam), the
    # non-Dirichlet A + M and uc32's pinned control mass, whose local
    # blocks are one per cell (on Voronoi 16 every cell is its own class)
    from hho_control import hho_core

    factored, splu = [], hho_core.spla.splu
    monkeypatch.setattr(hho_core.spla, "splu",
                        lambda m, **kw: factored.append(m) or splu(m, **kw))
    mesh = {"cartesian": cached_cartesian(4),
            "voronoi": cached_voronoi(16)}[mesh_name]
    space = HhoSpace(mesh, k, cell_degree=cell_degree,
                     dirichlet=case != "free")
    local, K = _local_and_matrix(space, case)
    OptimalitySystem(space, local)
    order = hho_core.nested_dissection(space)
    want = dense_face_schur(space, K)[np.ix_(order, order)]
    got, = factored
    assert got.shape == want.shape
    assert np.abs(got.toarray() - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("case", ["dirichlet-stiffness", "complex", "free",
                                  "nonsymmetric"])
def test_lu_solve_matches_the_dense_solve(case):
    # cell elimination, face solve and cell recovery give K^{-1} b over the
    # active DOFs, for a real, a complex, a non-Dirichlet and a
    # nonsymmetric matrix (whose S differs from S^T)
    space = HhoSpace(cached_voronoi(16), 1, dirichlet=case != "free")
    rng = np.random.default_rng(3)
    local, K = _local_and_matrix(
        space, "stiffness" if case == "dirichlet-stiffness" else case, rng)
    act = space.active_dofs
    dense = K.toarray()[np.ix_(act, act)]
    b = rng.standard_normal(len(act))
    if case == "complex":
        b = b + 1j * rng.standard_normal(len(act))
    want = np.linalg.solve(dense, b)
    got = OptimalitySystem(space, local).lu_solve(b)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_set_up_condenses_once_per_kernel_row(monkeypatch):
    # congruent cells share one local block: the set-up inverts one batch
    # per kernel group, as long as the group's kernel rows (not its cells),
    # and builds its matrices from the local blocks, with no row or column
    # permutation of an assembled matrix
    space = HhoSpace(cached_cartesian(16), 1, dirichlet=True)
    groups = space.kernel_groups()
    inverses = count_calls(monkeypatch, np.linalg, "inv")
    gathers = [count_calls(monkeypatch, cls, "__getitem__")
               for cls in (sp.csr_matrix, sp.csc_matrix)]
    solve_uc1(space, problem_from_preset("uc1-default"))
    assert [len(c["a"]) for c in inverses] == [len(g.kernels["A"])
                                               for g in groups]
    assert all(len(g.kernels["A"]) < len(g.cells) for g in groups)
    keys = [c["key"] if isinstance(c["key"], tuple) else (c["key"],)
            for calls in gathers for c in calls]
    assert not [key for key in keys
                if any(isinstance(k, np.ndarray) for k in key)]


@pytest.mark.parametrize("case", ["shape", "rows", "index-length",
                                  "index-range", "negative-index"])
def test_local_blocks_of_the_wrong_shape_rejected(case):
    # a stack that does not match the group's local DOFs, or an index that
    # is not one stack row per cell, fails before any scipy call with the
    # shape it expected
    space = HhoSpace(cached_cartesian(2), 1, dirichlet=True)

    def local(g):
        A, rows = g.kernels["A"], g.rows
        return {"shape": (A[:, 1:, 1:], rows),
                "rows": (A[0], rows),
                "index-length": (A, rows[1:]),
                "index-range": (A, rows + len(A)),
                "negative-index": (A, rows - len(A))}[case]

    n = space.kernel_groups()[0].dofs.shape[1]
    expected = (rf"expected \(rows, {n}, {n}\)" if case in ("shape", "rows")
                else r"expected shape \(4,\)")
    with pytest.raises(ValueError, match=expected):
        OptimalitySystem(space, local)


def test_singular_cell_block_raises_solver_error():
    # a matrix whose cell-cell blocks are zero cannot eliminate its cells:
    # the failure is a SolverError with an infinite residual
    from hho_control import SolverError

    space = HhoSpace(cached_cartesian(2), 1, dirichlet=True)
    dl = space.cell_dim

    def local(g):
        blocks = g.kernels["A"].copy()
        blocks[:, :dl, :dl] = 0.0
        return blocks, g.rows

    with pytest.raises(SolverError) as err:
        OptimalitySystem(space, local)
    assert err.value.residual == np.inf


def test_solver_failure_reports_residual():
    from hho_control import SolverError

    # Without Dirichlet DOFs the stiffness is singular (constants span its
    # kernel) and a unit load is not orthogonal to that kernel.
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 0, dirichlet=False)
    load = cell_load_vector(space, lambda p: np.ones(len(p)))
    with pytest.raises(SolverError) as err:
        OptimalitySystem(space, local_stiffness).solve(load)
    assert err.value.residual > OptimalitySystem.RESIDUAL_TOL


@pytest.mark.parametrize("case", ["exactly-singular", "singular-blocks",
                                  "overflow"])
def test_two_field_solver_failure_reports_residual(case):
    from hho_control import SolverError

    # Without pivoting a singular or badly scaled complex system (the form
    # of the uc state-adjoint system) may leave a zero pivot or non-finite
    # values: the error carries a residual above the tolerance (inf when
    # nothing finite is left), never nan.  The cell mass alone has empty
    # face rows; without Dirichlet DOFs constants span the kernel of A.
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 1, dirichlet=case != "singular-blocks")
    dl = space.cell_dim

    def local(g):
        A, C = g.kernels["A"], np.zeros_like(g.kernels["A"])
        C[:, :dl, :dl] = g.kernels["M_cell"]
        blocks = {"exactly-singular": -1j * C,
                  "singular-blocks": (1 + 1j) * A,
                  "overflow": 1e-300 * (A - 1j * C)}[case]
        return blocks, g.rows

    load = cell_load_vector(space, lambda p: np.ones(len(p))) * (1 - 1j)
    scale = 1e10 if case == "overflow" else 1.0  # the solution overflows
    with pytest.raises(SolverError) as err:
        OptimalitySystem(space, local).solve(scale * load)
    assert err.value.residual > OptimalitySystem.RESIDUAL_TOL


EXP = lambda p: np.exp(p[:, 0] + p[:, 1])


def _solve_cold(case, mesh, k=1, lam=None):
    """A cold refined solve: uc1 (``uc1-default``) or the Poisson problem."""
    space = HhoSpace(mesh, k, dirichlet=True)
    if case == "uc1":
        solve_uc1(space, problem_from_preset("uc1-default", lam=lam))
    else:
        solve_poisson(space, EXP, EXP)


@pytest.mark.parametrize("case, n", [("uc1", 16), ("poisson", 8)])
def test_a_cold_solve_makes_two_lu_solves_and_one_extended_product(
        case, n, monkeypatch):
    # the second correction predicts the third below eps ||x||, so the loop
    # stops, and the residual that only checks x is summed in double
    lu = count_calls(monkeypatch, OptimalitySystem, "lu_solve")
    residuals = count_calls(monkeypatch, OptimalitySystem, "_residual")
    _solve_cold(case, cached_cartesian(n))
    assert len(lu) == 2
    assert [c["extended"] for c in residuals] == [True, False]


def test_a_warm_solve_sums_only_the_residual_it_solves_with_in_extended(
        monkeypatch):
    # every solve of the wc2 loop is one refinement step from its start: a
    # nonzero start's residual is solved with (extended), a zero start's is
    # b itself (no product), and the new iterate's only checks (double)
    solves = count_calls(monkeypatch, OptimalitySystem, "solve")
    residuals = count_calls(monkeypatch, OptimalitySystem, "_residual")
    space = HhoSpace(cached_cartesian(16), 1, cell_degree=2, dirichlet=True)
    solve_wc2(space, problem_from_preset("wc-default"))
    assert all(c["start"] is not None for c in solves)
    extended = [c["extended"] for c in residuals]
    assert extended.count(True) == sum(c["start"].any() for c in solves)
    assert extended.count(False) == len(solves)


@pytest.mark.parametrize("case, k, mesh, lam", [
    ("uc1", 1, cached_cartesian(16), None),
    ("uc1", 1, cached_voronoi(64), None),
    ("uc1", 3, cached_cartesian(8), None),
    ("uc1", 1, cached_cartesian(16), 1e-6),
    ("poisson", 1, cached_cartesian(16), None),
], ids=["uc1-cartesian-16", "uc1-voronoi-64", "uc1-k3-cartesian-8",
        "uc1-lam-1e-6", "poisson-cartesian-16"])
def test_the_skipped_correction_is_below_the_resolution_of_x(
        case, k, mesh, lam, monkeypatch):
    # one more extended residual and LU solve from the returned x would not
    # change it; the check residual, summed in double, stays near eps
    solves = count_calls(monkeypatch, OptimalitySystem, "solve")
    _solve_cold(case, mesh, k, lam)
    call, = solves
    system, fixed = call["self"], call["fixed"]
    act = system.space.active_dofs
    x = system.solve(call["load"], fixed)[act]
    b = call["load"][act] - system._lift @ fixed
    correction = system.lu_solve(system._residual(b, x))
    assert _norm(correction) <= np.finfo(float).eps * _norm(x)
    assert system.refinement["residual"] <= 1e-13


@pytest.mark.parametrize("length", ["short", "long", "one"])
def test_vector_of_another_length_rejected(length):
    # numpy alone would broadcast a length-1 vector in vec - ref, and
    # indexing by the cells' or active DOFs would ignore extra entries (a
    # load one entry too long solved as if the entry were not there)
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 1, dirichlet=True)
    n = {"short": space.n_dofs - 1, "long": space.n_dofs + 1, "one": 1}[length]
    vec, v = np.ones(n), lambda p: p[:, 0]
    system = OptimalitySystem(space, local_stiffness)
    load = cell_load_vector(space, v)
    # a complex load must fail on its length, not lose its imaginary part
    complex_system = OptimalitySystem(space, _local_and_matrix(space, "complex")[0])
    for call in (lambda: energy_error(space, vec, v),
                 lambda: l2_error_reconstruction(space, vec, v),
                 lambda: reconstruct_all(space, vec),
                 lambda: space.cell_blocks(vec),
                 lambda: system.solve(load, start=vec),
                 lambda: system.solve(vec),
                 lambda: complex_system.solve(1j * vec)):
        with pytest.raises(ValueError, match="does not match"):
            call()


@pytest.mark.parametrize("dirichlet", [True, False])
def test_solve_results_do_not_alias_the_restart_cache(dirichlet):
    # A returned array changed in place and passed back as the start must
    # be refined to the solution, not taken for the one it was returned as.
    # Without Dirichlet DOFs every DOF is active, so a solution could be a
    # view of the system's own copy; the cell mass makes A + M invertible.
    mesh = cached_cartesian(4)
    space = HhoSpace(mesh, 1, dirichlet=dirichlet)
    system = OptimalitySystem(space, _local_and_matrix(
        space, "stiffness" if dirichlet else "free")[0])
    f = lambda p: np.sin(np.pi * p[:, 0]) * (1.0 + p[:, 1])
    load = cell_load_vector(space, f)
    y = system.solve(load)
    cold = y.copy()
    rng = np.random.default_rng(5)
    y[space.active_dofs] += 1e-3 * rng.standard_normal(len(space.active_dofs))
    warm = system.solve(load, start=y)
    assert np.abs(warm - cold).max() <= 1e-12 * np.abs(cold).max()


def test_face_trace_energy_term_oracle():
    # One-cell sanity check of the face part of the discrete H1 norm.
    mesh = cached_cartesian(1)
    space = HhoSpace(mesh, 0, dirichlet=False)
    vec = np.zeros(space.n_dofs)
    vec[cell_dofs(space, 0)] = 1.0  # v_T = 1, v_F = 0
    expected = sum(
        segment_monomial_integral(*mesh.face_points[f],
                                  lambda p: np.ones(len(p)), 0)
        for f in cell_face_ids(mesh, 0)) / mesh.cell_diameters[0]
    assert abs(h1h_seminorm_sq(space, vec) - expected) < 1e-13


FACE_TABLES = ("fqw", "Vl_f")


def _kernel_entries(op):
    """Every entry of a cell's record, by name; face tables face by face."""
    entries = dict(vars(op))
    for name in FACE_TABLES:
        table = entries.pop(name)
        entries.update({f"{name}[{j}]": t for j, t in enumerate(table)})
    return entries


@pytest.mark.parametrize("k, cell_degree", [(0, 0), (1, 1), (1, 2), (2, 2)])
def test_batched_build_matches_one_cell_builds(k, cell_degree):
    # Voronoi cells plus one ear-clipped L-shaped cell: the space's grouped
    # build must agree, entry by entry, with building each cell on its own.
    mesh = voronoi_with_l_cell()
    space = HhoSpace(mesh, k, cell_degree=cell_degree, dirichlet=True)
    ops = space.local_ops()
    assert [op.cell_id for op in ops] == list(range(mesh.n_cells))
    for i, op in enumerate(ops):
        (single,) = _views(_build(space, [i]), [i])
        want = _kernel_entries(single)
        got = _kernel_entries(op)
        assert got.keys() == want.keys()
        for name, value in got.items():
            if not isinstance(want[name], np.ndarray):  # None, ids, scalars
                assert type(value) is type(want[name]), (i, name)
                assert value == want[name], (i, name)
                continue
            assert value.shape == want[name].shape, (i, name)
            scale = max(1.0, np.abs(want[name]).max())
            assert np.abs(value - want[name]).max() <= 1e-13 * scale, (i, name)


def test_l_shaped_cell_is_ear_clipped_and_exact():
    mesh = voronoi_with_l_cell()
    space = HhoSpace(mesh, 1)
    op = space.local_ops()[-1]
    # ear clipping gives m - 2 triangles where the centroid fan has m
    (tri,) = _build(space, [0])
    per_triangle = tri.n_nodes // len(cell_face_ids(mesh, 0))
    assert len(op.qw) == (len(op.face_ids) - 2) * per_triangle
    assert abs(op.qw.sum() - 0.36) < 1e-14
    for p in global_monomials(2):
        rec = reconstruct_all(space, reduce_function(space, p))[op.cell_id]
        assert np.abs(op.Vr @ rec - p(op.qp + op.centroid)).max() < 1e-11


def test_congruent_cells_share_one_kernel():
    # A Cartesian grid has four congruence classes (which of the left and
    # bottom faces the cell created); every cell of a class holds the same
    # array objects.  The benchmark counts kernels this way.
    space = HhoSpace(cached_cartesian(8), 1, dirichlet=True)
    ops = space.local_ops()
    assert len({id(op.G) for op in ops}) == 4
    by_kernel = {}
    for op in ops:
        first = by_kernel.setdefault(id(op.G), op)
        for name, value in vars(first).items():
            if isinstance(value, np.ndarray) and name not in ("centroid", "dofs"):
                assert getattr(op, name) is value, name


def test_negative_or_non_integer_degree_rejected():
    mesh = cached_cartesian(2)
    for args in [(-1,), (1.5,), (1, 2.0), (True,)]:
        with pytest.raises(ValueError, match="non-negative integers"):
            HhoSpace(mesh, *args, dirichlet=True)
    assert HhoSpace(mesh, np.int64(1), dirichlet=True).face_degree == 1


def test_cell_degree_must_be_the_face_degree_or_one_above():
    mesh = cached_cartesian(2)
    for k, cell_degree in [(1, 0), (1, 3), (0, 2)]:
        with pytest.raises(ValueError, match="face_degree or face_degree"):
            HhoSpace(mesh, k, cell_degree=cell_degree)


def test_solve_poisson_requires_a_dirichlet_space():
    with pytest.raises(ValueError, match="requires a Dirichlet space"):
        solve_poisson(HhoSpace(cached_cartesian(2), 1),
                      lambda p: np.zeros(len(p)))


def _einsum_grad_grams(Gl, Gr, w):
    """The three-operand einsum products the batched matmuls replaced."""
    return (np.einsum("bnid,bn,bnjd->bij", Gl, w, Gl),
            np.einsum("bnid,bn,bnjd->bij", Gr, w, Gr),
            np.einsum("bnid,bn,bnjd->bji", Gl, w, Gr))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("mixed", [False, True])
def test_batched_gradient_products_match_the_einsum_oracle(k, mixed):
    # random gradient stacks of the shapes of the (k, k) and (k, k + 1)
    # spaces: cell degree l, reconstruction degree k + 1, positive weights
    rng = np.random.default_rng(10 * k + mixed)
    dim_l, dim_r = space_dimension(k + mixed), space_dimension(k + 1)
    B, n = 7, 6 * (k + 3) ** 2
    Gl = rng.standard_normal((B, n, dim_l, 2))
    Gr = rng.standard_normal((B, n, dim_r, 2))
    w = rng.uniform(0.1, 1.0, (B, n))
    # the layout of the kernel build: function by function, each node's x
    # and y adjacent
    got = _grad_grams(*(np.swapaxes(G, 1, 2).reshape(B, G.shape[2], 2 * n)
                        for G in (Gl, Gr)), w)
    want = _einsum_grad_grams(Gl, Gr, w)
    bounds = _einsum_grad_grams(np.abs(Gl), np.abs(Gr), w)
    for g, e, b in zip(got, want, bounds):
        assert g.shape == e.shape
        assert (np.abs(g - e) <= 1e-14 * b).all()


@pytest.mark.parametrize("k", range(7))
@pytest.mark.parametrize("mixed", [False, True])
def test_kernel_gradient_gram_matches_the_einsum_oracle(k, mixed):
    # K_cell of every Voronoi kernel against the einsum of the transformed
    # monomial gradients at the kernel's own nodes
    space = HhoSpace(cached_voronoi(16), k, cell_degree=k + mixed)
    for g in space.kernel_groups():
        kern = g.kernels
        h, T = kern["h"], kern["Ql"]
        G = np.moveaxis(monomial_table(kern["qp"] / h[:, None, None],
                                       kern["cell_degree"])[1](h), 1, 2)
        if T is not None:
            G = np.einsum("bij,bnjd->bnid", T, G)
        want = np.einsum("bnid,bn,bnjd->bij", G, kern["qw"], G)
        bound = np.einsum("bnid,bn,bnjd->bij", np.abs(G), kern["qw"], np.abs(G))
        assert (np.abs(kern["K_cell"] - want) <= 1e-14 * bound).all()
