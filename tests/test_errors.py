import math

import numpy as np
import pytest

from hho_control import HhoSpace, solve_wc2
from hho_control.errors import (ConvergenceReport, NonFiniteError,
                                energy_error, eoc, l2_error_control,
                                l2_error_reconstruction)
from hho_control.hho_core import reduce_function
from hho_control.presets import problem_from_preset
from helpers import (cached_cartesian, cached_voronoi, cell_basis, cell_dofs,
                     cell_face_ids, cell_polygon, l2_error_cells,
                     polygon_monomial_integral, segment_monomial_integral,
                     single_polygon_rule)


def test_energy_error_zero_for_interpolant():
    mesh = cached_cartesian(3)
    space = HhoSpace(mesh, 1, dirichlet=True)
    v = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    vec = reduce_function(space, v)
    assert energy_error(space, vec, v) < 1e-12


def test_energy_error_zero_data():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 0, dirichlet=True)
    zero = lambda p: np.zeros(len(p))
    assert energy_error(space, np.zeros(space.n_dofs), zero) == 0.0


def test_energy_error_matches_quadratic_form_oracle():
    # Perturb one cell DOF of the interpolant; the energy error must equal
    # the hand-assembled |.|_{1,T} value of that single basis function,
    # computed here from divergence-theorem moments and 1D Gauss rules.
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 1, dirichlet=False)  # raw monomial basis
    v = lambda p: p[:, 0] + 2.0 * p[:, 1]
    vec = reduce_function(space, v)
    cid, local_j = 1, 2  # perturb the y-monomial of cell 1
    vec[cell_dofs(space, cid)[local_j]] += 1.0

    op = space.local_ops()[cid]
    cb = cell_basis(op)
    assert cb.transform is None  # oracle below expands raw monomials
    # basis function: ((y - y_T)/h)^1 -> gradient (0, 1/h), so
    # |grad phi|^2 integrates to |T| / h^2
    h, y_T = mesh.cell_diameters[cid], mesh.cell_centroids[cid, 1]
    grad_sq = polygon_monomial_integral(cell_polygon(mesh, cid), 0, 0) / h ** 2
    face_sq = 0.0
    for fid in cell_face_ids(mesh, cid):
        p0, p1 = mesh.face_points[fid]
        phi = lambda p: ((p[:, 1] - y_T) / h) ** 2
        face_sq += segment_monomial_integral(p0, p1, phi, 2)
    expected = math.sqrt(grad_sq + face_sq / h)
    got = energy_error(space, vec, v)
    assert abs(got - expected) < 1e-12 * max(1.0, expected)


def test_l2_error_exact_representation_vanishes():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 1, dirichlet=False)
    v = lambda p: 1.0 - p[:, 0] + 0.5 * p[:, 1]
    vec = reduce_function(space, v)
    assert l2_error_cells(space, vec, v) < 1e-12
    assert l2_error_reconstruction(space, vec, v) < 1e-12


def test_l2_error_unit_mass():
    mesh = cached_cartesian(2)
    space = HhoSpace(mesh, 0, dirichlet=False)
    one = reduce_function(space, lambda p: np.ones(len(p)))
    zero = lambda p: np.zeros(len(p))
    assert abs(l2_error_cells(space, one, zero) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 8])
def test_k0_reconstruction_error_closed_form(n):
    # R(I x^2) on an axis-aligned square of side s reproduces the elliptic
    # projection x_bar^2 + s^2/12 + 2 x_bar (x - x_bar); the cellwise exact
    # integral of the defect (t^2 - s^2/12)^2 is s^6/180, so the total error
    # on an n x n grid is n^{-2}/sqrt(180).
    mesh = cached_cartesian(n)
    space = HhoSpace(mesh, 0, dirichlet=False)
    v = lambda p: p[:, 0] ** 2
    vec = reduce_function(space, v)
    got = l2_error_reconstruction(space, vec, v)
    expected = 1.0 / (n ** 2 * math.sqrt(180.0))
    assert abs(got - expected) < 1e-12


def test_error_invariant_under_cell_reordering():
    from hho_control.mesh import Mesh

    mesh = cached_cartesian(3)
    order = np.random.default_rng(4).permutation(mesh.n_cells)
    shuffled = Mesh(mesh.vertices.copy(),
                    [mesh.cell_vertex_ids[mesh.cell_ptr[i]:mesh.cell_ptr[i + 1]]
                     for i in order])
    v = lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1])
    vals = []
    for m in (mesh, shuffled):
        space = HhoSpace(m, 1, dirichlet=False)
        vec = reduce_function(space, lambda p: p[:, 0] ** 3)
        vals.append((l2_error_cells(space, vec, v),
                     l2_error_reconstruction(space, vec, v),
                     energy_error(space, vec, v)))
    for a, b in zip(*vals):
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


def test_error_bitwise_reproducible():
    mesh = cached_cartesian(3)
    v = lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1])
    results = []
    for _ in range(2):
        space = HhoSpace(mesh, 1, dirichlet=False)
        vec = reduce_function(space, lambda p: p[:, 0] ** 3)
        results.append((l2_error_cells(space, vec, v),
                        energy_error(space, vec, v)))
    assert results[0] == results[1]


def _wc2_control_error_cell_by_cell(solution, prob):
    """wc2 control error with each kinked cell's own ``single_polygon_rule``.

    The rule is built on the cell's own polygon and the basis is the cell's
    ``CellBasis``, one cell at a time: nothing is shared within a kernel
    class, as ``l2_error_control`` shares it.  The control is the clamp of
    -phi_T / lambda, lambda from the problem.
    """
    control = solution.control
    space = control.space
    kinked = set(control.kinked_cells().tolist())
    contribs = []
    for op in space.local_ops():
        pts, w = op.qp + op.centroid, op.qw
        if op.cell_id in kinked:
            pts, w = single_polygon_rule(cell_polygon(space.mesh, op.cell_id),
                                         op.centroid, 8 * (space.face_degree + 2))
        phi = cell_basis(op).eval(pts) @ space.cell_blocks(solution.phi)[op.cell_id]
        u = np.minimum(control.box.u_b,
                       np.maximum(control.box.u_a, -phi / prob.lam))
        contribs.append(w @ (prob.exact.u(pts) - u) ** 2)
    return math.sqrt(sum(sorted(contribs)))


@pytest.mark.parametrize("family, n", [("cartesian", 16), ("voronoi", 64)])
def test_wc2_control_error_matches_cell_by_cell_refinement(family, n):
    mesh = cached_cartesian(n) if family == "cartesian" else cached_voronoi(n)
    space = HhoSpace(mesh, 1, cell_degree=2, dirichlet=True)
    prob = problem_from_preset("wc-default")
    sol = solve_wc2(space, prob)
    assert len(sol.control.kinked_cells()) > 0
    got = l2_error_control(sol, prob.exact.u)
    ref = _wc2_control_error_cell_by_cell(sol, prob)
    assert abs(got - ref) <= 1e-13 * ref


@pytest.mark.parametrize("family, n", [("cartesian", 16), ("voronoi", 64)])
def test_wc2_kinked_cells_are_the_cells_whose_nodes_straddle_a_bound(family, n):
    mesh = cached_cartesian(n) if family == "cartesian" else cached_voronoi(n)
    space = HhoSpace(mesh, 1, cell_degree=2, dirichlet=True)
    prob = problem_from_preset("wc-default")
    sol = solve_wc2(space, prob)
    control, nodes = sol.control, space.nodes()
    z = -nodes.values("Vl", space.cell_blocks(sol.phi)) / prob.lam
    want = [c for c in range(mesh.n_cells)
            if any(z[nodes.starts[c]:nodes.starts[c] + nodes.counts[c]].min()
                   < bound <
                   z[nodes.starts[c]:nodes.starts[c] + nodes.counts[c]].max()
                   for bound in (control.box.u_a, control.box.u_b))]
    assert len(want) > 0
    assert control.kinked_cells().tolist() == want


def test_convergence_report_rates_are_not_a_setting():
    # the rates are computed from the records, never taken from the caller
    with pytest.raises(TypeError):
        ConvergenceReport([], rates={"err_u_l2": [1.0]})


def test_eoc_simple_ratios():
    assert eoc([1.0, 0.5], [1.0, 0.5]) == [1.0]
    assert eoc([1.0, 0.25], [1.0, 0.5]) == [2.0]


def test_eoc_recovers_synthetic_order():
    hs = [0.5 ** i for i in range(6)]
    for p in (0.5, 1.0, 3.25):
        errs = [4.2 * h ** p for h in hs]
        rates = eoc(errs, hs)
        assert all(abs(r - p) < 1e-10 for r in rates)


def test_eoc_zero_error_gives_infinity():
    rates = eoc([1.0, 0.0], [1.0, 0.5])
    assert rates == [math.inf]
    # an error that grows from exactly 0 has the opposite sign
    assert eoc([0.0, 1.0], [1.0, 0.5]) == [-math.inf]
    assert eoc([0.0, 0.0], [1.0, 0.5]) == [math.inf]


def test_eoc_validates_inputs():
    with pytest.raises(ValueError):
        eoc([1.0, 0.5], [0.5, 1.0])
    with pytest.raises(ValueError):
        eoc([1.0], [1.0, 0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        eoc([1.0, -0.5], [1.0, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eoc_rejects_non_finite_input(bad):
    # a NaN passes every comparison, so it needs a check of its own
    with pytest.raises(NonFiniteError, match="errors must be finite"):
        eoc([1.0, bad, 0.25], [1.0, 0.5, 0.25])
    with pytest.raises(NonFiniteError, match="mesh sizes must be finite"):
        eoc([1.0, 0.5], [bad, 0.5])
