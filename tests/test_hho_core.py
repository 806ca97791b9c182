import numpy as np
import pytest

from hho_control import HhoSpace, make_cartesian, solve_poisson
from hho_control.errors import energy_error, eoc, l2_error_reconstruction
from hho_control.hho_core import (OptimalitySystem, build_local_operators,
                                  cell_load_vector, h1h_seminorm_sq,
                                  reconstruct_all, reduce_function)
from helpers import (cached_cartesian, cached_voronoi, dense_face_schur,
                     dense_stiffness, global_monomials,
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
        local[1 + j] = mesh.faces[fid].midpoint[0]
    vec = space.zero_vector()
    vec.values[op.dofs] = local
    (got,) = reconstruct_all(space, vec)

    # Oracle: stack the gradient relations against every recon basis function
    # plus the mean constraint, solve the consistent system densely.
    rb = op.recon_basis()
    w, pts = op.qweights, op.qpoints()
    grads = rb.grad(pts)
    K = np.einsum("nid,n,njd->ij", grads, w, grads)
    rhs = np.zeros(rb.dimension)
    for j, fid in enumerate(op.face_ids):
        face = mesh.faces[fid]
        fw = op.face_qweights(j)
        fp = op.face_qpoints(j)
        dgn = rb.grad(fp) @ (mesh.cell_faces[0][j][1] * face.normal)
        # (v_F - v_T, grad q . n): the cell value is zero here
        rhs += dgn.T @ (fw * local[1 + j])
    rows = np.vstack([K, w @ rb.eval(pts)])
    rhs_full = np.concatenate([rhs, [local[0] * op.measure]])
    oracle, *_ = np.linalg.lstsq(rows, rhs_full, rcond=None)
    assert np.abs(got - oracle).max() < 1e-10


def test_stabilization_constant_vanishes():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 1, dirichlet=False)
    vec = reduce_function(space, lambda p: np.full(len(p), -2.0))
    op = space.local_ops()[0]
    polys, value = stabilization(op, vec.values[op.dofs])
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
    red = vec.values[op.dofs]
    _, value = stabilization(op, red)

    cb, rb = op.cell_basis(), op.recon_basis()
    rec = reconstruct_all(space, vec)[op.cell_id]
    dl = space.cell_dim
    total = 0.0
    for j in range(op.n_faces):
        fw, fp = op.face_qweights(j), op.face_qpoints(j)
        # Pi_T^l of the reconstruction, evaluated on the face
        w, pts = op.qweights, op.qpoints()
        M = cb.eval(pts).T @ (w[:, None] * cb.eval(pts))
        rhs = cb.eval(pts).T @ (w * (rb.eval(pts) @ rec))
        proj_cell = np.linalg.solve(M, rhs)
        resid_vals = (cb.eval(fp) @ red[:dl]
                      - op.face_vals(j) @ red[dl + j * space.face_dim:
                                              dl + (j + 1) * space.face_dim]
                      + rb.eval(fp) @ rec - cb.eval(fp) @ proj_cell)
        Mf = op.face_vals(j).T @ (fw[:, None] * op.face_vals(j))
        coeff = np.linalg.solve(Mf, op.face_vals(j).T @ (fw * resid_vals))
        vals = op.face_vals(j) @ coeff
        total += fw @ vals ** 2
    total /= op.h
    assert abs(value - total) < 1e-10 * max(1.0, total)


@pytest.mark.parametrize("degree", [0, 1])
def test_l2_projection_idempotent(degree):
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, degree, dirichlet=False)
    op = space.local_ops()[0]
    cb = op.cell_basis()
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(cb.dimension)
    proj = reduce_function(space, lambda p: cb.eval(p) @ coeffs).cell_block(0)
    assert np.abs(proj - coeffs).max() < 1e-12


def test_l2_projection_onto_constants():
    mesh = cached_cartesian(1)
    space = HhoSpace(mesh, 0, dirichlet=False)
    op = space.local_ops()[0]
    proj = reduce_function(space, lambda p: p[:, 0] ** 2).cell_block(0)
    vals = op.cell_vals @ proj
    assert np.abs(vals - 1.0 / 3.0).max() < 1e-13  # mean of x^2 on (0,1)^2


def test_projection_error_decreases_with_degree():
    mesh = cached_cartesian(1)
    errs = []
    for degree in (0, 1, 2, 3):
        space = HhoSpace(mesh, degree, dirichlet=False)
        op = space.local_ops()[0]
        f = lambda p: np.sin(np.pi * p[:, 0])
        proj = reduce_function(space, f).cell_block(0)
        d = f(op.qpoints()) - op.cell_vals @ proj
        errs.append(np.sqrt(op.qweights @ d ** 2))
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def test_reduce_of_constant():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 1, dirichlet=False)
    vec = reduce_function(space, lambda p: np.full(len(p), 7.0))
    for op in space.local_ops():
        cell_vals = op.cell_vals @ vec.cell_block(op.cell_id)
        assert np.abs(cell_vals - 7.0).max() < 1e-12
        for j, fid in enumerate(op.face_ids):
            face_vals = op.face_vals(j) @ vec.face_block(fid)
            assert np.abs(face_vals - 7.0).max() < 1e-12


def test_reduce_reproduces_global_polynomial():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 2, dirichlet=False)
    poly = lambda p: 1.0 + 2.0 * p[:, 0] - p[:, 1] + 0.5 * p[:, 0] * p[:, 1]
    vec = reduce_function(space, poly)
    for op in space.local_ops():
        pts = op.qpoints()
        assert np.abs(op.cell_vals @ vec.cell_block(op.cell_id)
                      - poly(pts)).max() < 1e-12


def test_elliptic_projection_identity_and_gradient_optimality():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 1, dirichlet=False)
    op = space.local_ops()[0]
    rb = op.recon_basis()

    def elliptic_project(f):
        """R_T of the reduction of f on cell 0: identity on P_{k+1}(T)."""
        return reconstruct_all(space, reduce_function(space, f))[op.cell_id]

    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(rb.dimension)
    got = elliptic_project(lambda p: rb.eval(p) @ coeffs)
    assert np.abs(got - coeffs).max() < 1e-11

    got_c = elliptic_project(lambda p: np.full(len(p), 4.5))
    vals = op.recon_vals @ got_c
    assert np.abs(vals - 4.5).max() < 1e-12

    # gradient optimality: || grad(v - E v) || <= || grad(v - Pi v) ||
    v = lambda p: np.exp(p[:, 0] + p[:, 1])
    w, pts = op.qweights, op.qpoints()
    grads = rb.grad(pts)
    ev = elliptic_project(v)
    # L2 projection of v onto the recon space
    piv = np.linalg.solve(op.M_recon, op.recon_vals.T @ (w * v(pts)))
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
        ones = interp.values[op.dofs]
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
    red = reduce_function(space, lambda p: p[:, 0]).values[op.dofs]
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
    assert np.abs(sol.values).max() == 0.0


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
    vec = reduce_function(space, prob.exact.y, include_boundary=True)
    value = h1h_seminorm_sq(space, vec)
    assert np.isfinite(value) and value > 0


def test_norm_consistency():
    mesh = cached_cartesian(3)
    free = HhoSpace(mesh, 1, dirichlet=False)
    ones = reduce_function(free, lambda p: np.ones(len(p)))
    assert h1h_seminorm_sq(free, ones) < 1e-24

    fixed = HhoSpace(mesh, 1, dirichlet=True)
    rng = np.random.default_rng(8)
    vec = fixed.zero_vector()
    vec.values[fixed.active_dofs] = rng.standard_normal(len(fixed.active_dofs))
    assert h1h_seminorm_sq(fixed, vec) > 0


def test_condensed_schur_spd():
    mesh = cached_cartesian(4)
    space = HhoSpace(mesh, 1, dirichlet=True)
    np.linalg.cholesky(dense_face_schur(space))  # raises if not SPD


def test_matrix_coo_export(tmp_path):
    from hho_control.hho_core import write_coo

    mesh = cached_cartesian(1)
    space = HhoSpace(mesh, 0, dirichlet=False)
    path = tmp_path / "matrix.txt"
    write_coo(space.stiffness_matrix(), path)
    lines = path.read_text().strip().splitlines()
    r, c, v = lines[0].split()
    assert int(r) >= 0 and int(c) >= 0 and float(v) == float(v)


def test_solver_failure_reports_residual():
    from hho_control import SolverError

    # Without Dirichlet DOFs the stiffness is singular (constants span its
    # kernel) and a unit load is not orthogonal to that kernel.
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 0, dirichlet=False)
    load = cell_load_vector(space, lambda p: np.ones(len(p)))
    with pytest.raises(SolverError) as err:
        OptimalitySystem([space], [[space.stiffness_matrix()]]).solve([load])
    assert err.value.residual > OptimalitySystem.RESIDUAL_TOL


def test_face_trace_energy_term_oracle():
    # One-cell sanity check of the face part of the discrete H1 norm.
    mesh = cached_cartesian(1)
    space = HhoSpace(mesh, 0, dirichlet=False)
    vec = space.zero_vector()
    vec.values[space.cell_dofs(0)] = 1.0  # v_T = 1, v_F = 0
    cell = mesh.cells[0]
    expected = sum(
        segment_monomial_integral(mesh.faces[f].endpoints[0],
                                  mesh.faces[f].endpoints[1],
                                  lambda p: np.ones(len(p)), 0)
        for f in cell.face_ids) / cell.diameter
    assert abs(h1h_seminorm_sq(space, vec) - expected) < 1e-13


def _kernel_entries(op):
    """Every matrix and table of a cell's operators, by name."""
    entries = {name: getattr(op, name) for name in (
        "G", "A", "S_faces", "M_faces", "M_cell", "M_recon", "K_cell",
        "int_cell", "cell_vals", "recon_vals", "qweights")}
    entries.update(qpoints=op.qpoints(), h=op.h, measure=op.measure,
                   cell_transform=op.cell_basis().transform,
                   recon_transform=op.recon_basis().transform)
    for j in range(op.n_faces):
        entries.update({f"face{j}_{name}": value for name, value in (
            ("qweights", op.face_qweights(j)), ("qpoints", op.face_qpoints(j)),
            ("vals", op.face_vals(j)), ("cell_trace", op.face_cell_trace(j)))})
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
        (single,) = build_local_operators(space, [i])
        assert single.face_ids == op.face_ids
        assert np.array_equal(single.dofs, op.dofs)
        want = _kernel_entries(single)
        for name, got in _kernel_entries(op).items():
            if want[name] is None:
                assert got is None, name
                continue
            scale = max(1.0, np.abs(np.asarray(want[name])).max())
            assert np.abs(np.asarray(got) - want[name]).max() <= 1e-13 * scale, \
                (i, name)


def test_l_shaped_cell_is_ear_clipped_and_exact():
    mesh = voronoi_with_l_cell()
    cell = mesh.cells[-1]
    space = HhoSpace(mesh, 1)
    op = space.local_ops()[-1]
    # ear clipping gives m - 2 triangles where the centroid fan has m
    (tri,) = build_local_operators(space, [0])
    per_triangle = len(tri.qweights) // len(mesh.cells[0].vertex_ids)
    assert len(op.qweights) == (len(cell.vertex_ids) - 2) * per_triangle
    assert abs(op.qweights.sum() - 0.36) < 1e-14
    for p in global_monomials(2):
        rec = reconstruct_all(space, reduce_function(space, p))[op.cell_id]
        assert np.abs(op.recon_vals @ rec - p(op.qpoints())).max() < 1e-11


def test_congruent_cells_share_one_kernel():
    # A Cartesian grid has four congruence classes (which of the left and
    # bottom faces the cell created); every cell of a class holds the same
    # matrix objects.
    space = HhoSpace(cached_cartesian(8), 1, dirichlet=True)
    ops = space.local_ops()
    assert len({id(op.G) for op in ops}) == 4
    by_kernel = {}
    for op in ops:
        by_kernel.setdefault(id(op.G), op)
        first = by_kernel[id(op.G)]
        assert op.A is first.A and op.cell_vals is first.cell_vals
