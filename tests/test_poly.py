import numpy as np
import pytest

from hho_control import HhoSpace, make_cartesian
from hho_control.poly import (CellBasis, _gauss_legendre, monomial_exponents,
                              polygon_quadrature, segment_rule)
from helpers import (cached_voronoi, cell_quadrature, make_cell_basis,
                     polygon_monomial_integral, regular_polygon)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_weights_sum_to_area_constant_exactness():
    _, w = polygon_quadrature(UNIT_SQUARE, 0)
    assert abs(w.sum() - 1.0) < 1e-12
    assert (w > 0).all()


def test_unit_square_x_squared():
    pts, w = polygon_quadrature(UNIT_SQUARE, 2)
    val = w @ pts[:, 0] ** 2
    assert abs(val - 1.0 / 3.0) < 1e-13  # closed form


def test_regular_hexagon_area():
    radius = 0.37
    hexagon = regular_polygon(6, radius=radius)
    _, w = polygon_quadrature(hexagon, 0)
    exact = 3.0 * np.sqrt(3.0) / 2.0 * radius ** 2
    assert abs(w.sum() - exact) < 1e-13 * exact


@pytest.mark.parametrize("exactness", [0, 1, 2, 3, 4, 6, 8, 10])
def test_polygon_quadrature_against_moment_oracle(exactness):
    rng = np.random.default_rng(5)
    polys = [UNIT_SQUARE, regular_polygon(5, 0.4), regular_polygon(7, 0.3)]
    mesh = cached_voronoi(16)
    polys += [mesh.cells[i].polygon for i in rng.choice(16, 3, replace=False)]
    for poly in polys:
        pts, w = polygon_quadrature(np.asarray(poly), exactness)
        for a in range(exactness + 1):
            for b in range(exactness + 1 - a):
                exact = polygon_monomial_integral(poly, a, b)
                got = w @ (pts[:, 0] ** a * pts[:, 1] ** b)
                assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact))


def test_nonconvex_polygon_ear_clipping_fallback():
    # L-shaped polygon: the centroid fan folds, the rule must still be exact.
    poly = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)
    pts, w = polygon_quadrature(poly, 3)
    assert abs(w.sum() - 3.0) < 1e-12
    exact = polygon_monomial_integral(poly, 2, 1)
    assert abs(w @ (pts[:, 0] ** 2 * pts[:, 1]) - exact) < 1e-11


def test_returned_rules_do_not_leak_into_the_rule_cache():
    # Writing into a returned rule either raises or leaves the next call's
    # rule bit-identical; the shared Gauss rules themselves are read-only.
    def rules():
        return [*polygon_quadrature(regular_polygon(5, 0.4), 6),
                *segment_rule(np.array([0.2, 0.1]), np.array([0.5, 0.5]), 5)]

    original = [a.tobytes() for a in rules()]
    for a in rules():
        try:
            a[...] = 7.0
        except ValueError:
            pass
    assert [a.tobytes() for a in rules()] == original
    x, w = _gauss_legendre(3)
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_segment_constant_gives_length():
    _, w = segment_rule(np.array([0.2, 0.1]), np.array([0.5, 0.5]), 0)
    assert abs(w.sum() - 0.5) < 1e-14


def test_segment_cubic():
    pts, w = segment_rule(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 3)
    assert abs(w @ pts[:, 0] ** 3 - 0.25) < 1e-14  # closed form
    assert len(w) == 2  # two-point Gauss integrates degree 3


def test_two_point_gauss_degree_three_exact():
    pts, w = segment_rule(np.array([0.0, 0.0]), np.array([0.0, 1.0]), 3)
    for d in range(4):
        got = w @ pts[:, 1] ** d
        assert abs(got - 1.0 / (d + 1)) < 1e-14


def test_constant_basis_function():
    basis = CellBasis(2, center=[0.3, 0.4], scale=0.5)
    pts = np.random.default_rng(0).uniform(size=(7, 2))
    vals = basis.eval(pts)
    assert np.allclose(vals[:, 0], 1.0)
    grads = basis.grad(pts)
    assert np.abs(grads[:, 0, :]).max() == 0.0


def test_gradient_matches_finite_differences():
    mesh = make_cartesian(3)
    cell = mesh.cells[4]
    basis = make_cell_basis(cell, 3)
    h = 1e-5 * cell.diameter
    rng = np.random.default_rng(1)
    pts = cell.centroid + rng.uniform(-0.1, 0.1, size=(5, 2))
    grads = basis.grad(pts)
    for d, e in enumerate(np.eye(2)):
        fd = (basis.eval(pts + h * e) - basis.eval(pts - h * e)) / (2 * h)
        assert np.abs(fd - grads[:, :, d]).max() < 1e-6


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_orthonormalized_mass_matrix(degree):
    mesh = cached_voronoi(16)
    cell = mesh.cells[3]
    pts, w = quad = cell_quadrature(cell, 2 * degree)
    basis = make_cell_basis(cell, degree, quadrature=quad, orthonormal=True)
    vals = basis.eval(pts)
    gram = vals.T @ (w[:, None] * vals)
    assert np.abs(gram - np.eye(basis.dimension)).max() < 1e-10
    assert abs(np.linalg.cond(gram) - 1.0) < 1e-8
    assert basis.mode == "mass-orthonormalized"


def test_raw_mass_matrix_spd():
    mesh = cached_voronoi(16)
    cell = mesh.cells[7]
    pts, w = cell_quadrature(cell, 8)
    basis = make_cell_basis(cell, 4, orthonormal=False)
    vals = basis.eval(pts)
    gram = vals.T @ (w[:, None] * vals)
    assert np.abs(gram - gram.T).max() < 1e-14
    assert np.linalg.eigvalsh(gram).min() > 0


def test_monomial_exponent_order():
    assert monomial_exponents(2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                     (0, 2)]


def test_face_basis_exact_degree():
    # The kernel's face table Vf holds t^j at the face nodes, t the face's
    # arclength coordinate mapped to [-1, 1]: the Gauss-Legendre abscissae.
    mesh = cached_voronoi(16)
    space = HhoSpace(mesh, 2)
    for op in space.local_ops()[:4]:
        for j, fid in enumerate(op.face_ids):
            p0, p1 = mesh.face_points[fid]
            half = 0.5 * (p1 - p0)
            t = (op.fqp[j] + op.centroid - 0.5 * (p0 + p1)) @ half / (half @ half)
            x, _ = _gauss_legendre(len(t))
            assert np.abs(t - x).max() < 1e-12
            assert np.abs(op.Vf[j] - x[:, None] ** np.arange(3)).max() < 1e-12
            assert np.allclose(op.Vf[j], t[:, None] ** np.arange(3))
