import numpy as np
import pytest

from hho_control import make_cartesian
from hho_control.poly import (CellBasis, _gauss_legendre, cell_quadrature,
                              make_cell_basis, monomial_exponents,
                              polygon_quadrature, segment_quadrature)
from helpers import (cached_voronoi, polygon_monomial_integral,
                     regular_polygon)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_weights_sum_to_area_constant_exactness():
    q = polygon_quadrature(UNIT_SQUARE, 0)
    assert abs(q.weights.sum() - 1.0) < 1e-12
    assert (q.weights > 0).all()


def test_unit_square_x_squared():
    q = polygon_quadrature(UNIT_SQUARE, 2)
    val = q.weights @ q.points[:, 0] ** 2
    assert abs(val - 1.0 / 3.0) < 1e-13  # closed form


def test_regular_hexagon_area():
    radius = 0.37
    hexagon = regular_polygon(6, radius=radius)
    q = polygon_quadrature(hexagon, 0)
    exact = 3.0 * np.sqrt(3.0) / 2.0 * radius ** 2
    assert abs(q.weights.sum() - exact) < 1e-13 * exact


@pytest.mark.parametrize("exactness", [0, 1, 2, 3, 4, 6, 8, 10])
def test_polygon_quadrature_against_moment_oracle(exactness):
    rng = np.random.default_rng(5)
    polys = [UNIT_SQUARE, regular_polygon(5, 0.4), regular_polygon(7, 0.3)]
    mesh = cached_voronoi(16)
    polys += [mesh.cells[i].polygon for i in rng.choice(16, 3, replace=False)]
    for poly in polys:
        q = polygon_quadrature(np.asarray(poly), exactness)
        for a in range(exactness + 1):
            for b in range(exactness + 1 - a):
                exact = polygon_monomial_integral(poly, a, b)
                got = q.weights @ (q.points[:, 0] ** a * q.points[:, 1] ** b)
                assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact))


def test_nonconvex_polygon_ear_clipping_fallback():
    # L-shaped polygon: the centroid fan folds, the rule must still be exact.
    poly = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)
    q = polygon_quadrature(poly, 3)
    assert abs(q.weights.sum() - 3.0) < 1e-12
    exact = polygon_monomial_integral(poly, 2, 1)
    assert abs(q.weights @ (q.points[:, 0] ** 2 * q.points[:, 1]) - exact) < 1e-11


def test_returned_rules_do_not_leak_into_the_rule_cache():
    # Writing into a returned rule either raises or leaves the next call's
    # rule bit-identical; the shared Gauss rules themselves are read-only.
    def rules():
        q = polygon_quadrature(regular_polygon(5, 0.4), 6)
        s = segment_quadrature([0.2, 0.1], [0.5, 0.5], 5)
        return [q.points, q.weights, s.points, s.weights]

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
    q = segment_quadrature([0.2, 0.1], [0.5, 0.5], 0)
    assert abs(q.weights.sum() - 0.5) < 1e-14


def test_segment_cubic():
    q = segment_quadrature([0.0, 0.0], [1.0, 0.0], 3)
    assert abs(q.weights @ q.points[:, 0] ** 3 - 0.25) < 1e-14  # closed form
    assert len(q.weights) == 2  # two-point Gauss integrates degree 3


def test_two_point_gauss_degree_three_exact():
    q = segment_quadrature([0.0, 0.0], [0.0, 1.0], 3)
    for d in range(4):
        got = q.weights @ q.points[:, 1] ** d
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
    quad = cell_quadrature(cell, 2 * degree)
    basis = make_cell_basis(cell, degree, quadrature=quad, orthonormal=True)
    vals = basis.eval(quad.points)
    gram = vals.T @ (quad.weights[:, None] * vals)
    assert np.abs(gram - np.eye(basis.dimension)).max() < 1e-10
    assert abs(np.linalg.cond(gram) - 1.0) < 1e-8
    assert basis.mode == "mass-orthonormalized"


def test_raw_mass_matrix_spd():
    mesh = cached_voronoi(16)
    cell = mesh.cells[7]
    quad = cell_quadrature(cell, 8)
    basis = make_cell_basis(cell, 4, orthonormal=False)
    vals = basis.eval(quad.points)
    gram = vals.T @ (quad.weights[:, None] * vals)
    assert np.abs(gram - gram.T).max() < 1e-14
    assert np.linalg.eigvalsh(gram).min() > 0


def test_monomial_exponent_order():
    assert monomial_exponents(2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                     (0, 2)]


def test_face_basis_exact_degree():
    from hho_control.poly import FaceBasis

    fb = FaceBasis(2, [0.0, 0.0], [1.0, 1.0])
    t = np.linspace(-1, 1, 5)
    pts = fb.midpoint + 0.5 * t[:, None] * np.array([1.0, 1.0])
    vals = fb.eval(pts)
    assert np.allclose(vals[:, 0], 1.0)
    assert np.allclose(vals[:, 1], t)
    assert np.allclose(vals[:, 2], t ** 2)
