import numpy as np
import pytest

from hho_control import HhoSpace, make_cartesian
from hho_control.hho_core import _face_projections
from hho_control.mesh import loop_groups
from hho_control.poly import (CellBasis, _gauss_legendre, _power_tables,
                              face_rule, monomial_exponents, monomial_table,
                              polygon_rules, reference_face_table,
                              segment_rule, space_dimension)
from helpers import (cached_voronoi, cell_polygon, cell_quadrature,
                     make_cell_basis, polygon_centroid,
                     polygon_monomial_integral, polygon_quadrature,
                     regular_polygon, single_polygon_rule, voronoi_with_l_cell)

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
    polys += [cell_polygon(mesh, i) for i in rng.choice(16, 3, replace=False)]
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


def _loop_stacks(mesh):
    """The mesh's loops and centroids, one stack per vertex count."""
    for at, idx in loop_groups(mesh.cell_ptr):
        yield mesh.vertices[mesh.cell_vertex_ids[idx]], mesh.cell_centroids[at]


@pytest.mark.parametrize("exactness", [4, 6, 24])
@pytest.mark.parametrize("mesh_name", ["l-cell", "voronoi-64"])
def test_polygon_rules_match_each_polygons_own_rule(mesh_name, exactness):
    # Every loop of a stack gets the bits of its own single-polygon rule.
    mesh = voronoi_with_l_cell() if mesh_name == "l-cell" else cached_voronoi(64)
    stacks = list(_loop_stacks(mesh))
    if mesh_name == "l-cell":
        # the ear-clipped L stacked with a moved copy and two convex octagons
        l_cell = cell_polygon(mesh, mesh.n_cells - 1)
        polys = np.array([regular_polygon(8, 0.3), l_cell, l_cell + [-1.0, 0.25],
                          regular_polygon(8, 0.2, center=(0.6, 0.5))])
        stacks.append((polys, np.array([polygon_centroid(p) for p in polys])))
    for polys, centroids in stacks:
        seen = []
        for sel, pts, w in polygon_rules(polys, centroids, exactness):
            for i, p, wi in zip(sel, pts, w):
                want_p, want_w = single_polygon_rule(polys[i], centroids[i],
                                                     exactness)
                assert np.array_equal(p, want_p) and np.array_equal(wi, want_w)
            seen += sel.tolist()
        assert sorted(seen) == list(range(len(polys)))
    if mesh_name == "l-cell":
        # ear-clipped loops come first, with m - 2 triangles each
        (fold, fold_pts, _), (fan, fan_pts, _) = polygon_rules(polys, centroids,
                                                               exactness)
        assert (fold.tolist(), fan.tolist()) == ([1, 2], [0, 3])
        assert fold_pts.shape[1] * 8 == fan_pts.shape[1] * 6


def test_returned_rules_do_not_leak_into_the_rule_cache():
    # Writing into a returned rule either raises or leaves the next call's
    # rule bit-identical; the shared Gauss rules themselves are read-only.
    def rules():
        pentagon = regular_polygon(5, 0.4)
        ((_, pts, w),) = polygon_rules(pentagon[None], np.array([[0.3, 0.4]]), 6)
        return [pts, w,
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
    basis = make_cell_basis(mesh, 4, 3)
    h = 1e-5 * mesh.cell_diameters[4]
    rng = np.random.default_rng(1)
    pts = mesh.cell_centroids[4] + rng.uniform(-0.1, 0.1, size=(5, 2))
    grads = basis.grad(pts)
    for d, e in enumerate(np.eye(2)):
        fd = (basis.eval(pts + h * e) - basis.eval(pts - h * e)) / (2 * h)
        assert np.abs(fd - grads[:, :, d]).max() < 1e-6


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_orthonormalized_mass_matrix(degree):
    mesh = cached_voronoi(16)
    pts, w = quad = cell_quadrature(mesh, 3, 2 * degree)
    basis = make_cell_basis(mesh, 3, degree, quadrature=quad, orthonormal=True)
    vals = basis.eval(pts)
    gram = vals.T @ (w[:, None] * vals)
    assert np.abs(gram - np.eye(basis.dimension)).max() < 1e-10
    assert abs(np.linalg.cond(gram) - 1.0) < 1e-8
    assert basis.mode == "mass-orthonormalized"


def test_raw_mass_matrix_spd():
    mesh = cached_voronoi(16)
    pts, w = cell_quadrature(mesh, 7, 8)
    basis = make_cell_basis(mesh, 7, 4, orthonormal=False)
    vals = basis.eval(pts)
    gram = vals.T @ (w[:, None] * vals)
    assert np.abs(gram - gram.T).max() < 1e-14
    assert np.linalg.eigvalsh(gram).min() > 0


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_power_tables_are_sequential_products(degree):
    # signed zeros, negatives, tiny values whose powers underflow to
    # subnormals or zero, and ordinary coordinates
    special = [0.0, -0.0, 1.0, -1.0, -0.5, 1e-80, -1e-80, 1e-300, 5e-324, -3.7]
    xy = np.concatenate((special, np.random.default_rng(degree).uniform(
        -1.5, 1.5, 40)))
    loc = np.stack((xy, xy[::-1]), axis=-1).reshape(5, 10, 2)
    tables = _power_tables(loc, degree)
    for c, tab in zip((loc[..., 0], loc[..., 1]), tables):
        assert tab.shape == c.shape + (degree + 1,)
        ones = np.ones(c.shape + (1,))
        cumprod = np.cumprod(np.concatenate(
            (ones, np.repeat(c[..., None], degree, axis=-1)), axis=-1), axis=-1)
        assert tab.tobytes() == cumprod.tobytes()
        seq = np.ones_like(c)
        for p in range(degree + 1):
            assert tab[..., p].tobytes() == seq.tobytes()      # c * c * ... * c
            power = c ** p
            assert (np.abs(tab[..., p] - power)
                    <= 4 * np.spacing(np.abs(power))).all(), p
            seq = seq * c


def stacked_grads(loc, degree, scale):
    """The gradient table as two gathered components stacked and copied."""
    e = np.asarray(monomial_exponents(degree))
    a, b = e[:, 0], e[:, 1]
    px, py = _power_tables(loc, degree)
    scale = np.asarray(scale)[..., None, None]
    gx = a * px[..., np.maximum(a - 1, 0)] * py[..., b] / scale
    gy = b * px[..., a] * py[..., np.maximum(b - 1, 0)] / scale
    return np.ascontiguousarray(np.stack([gx, gy], axis=-1))


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("shape, scale", [
    ((9, 2), 0.37),                                   # flat points, one cell
    ((4, 9, 2), 0.37),                                # stacked, one size
    ((4, 9, 2), np.array([0.37, 1.0, 2e-3, 5.5])),    # stacked, per cell
])
def test_monomial_grads_table_has_the_bits_of_the_stacked_formula(
        degree, shape, scale):
    loc = np.random.default_rng(degree).uniform(-1.5, 1.5, shape)
    loc.reshape(-1)[:4] = [0.0, -0.0, 1e-300, -3.7]
    g = monomial_table(loc, degree)[1](scale)
    want = stacked_grads(loc, degree, scale)
    # function by function, each node's x and y adjacent
    dim = len(monomial_exponents(degree))
    assert g.shape == shape[:-2] + (dim,) + shape[-2:]
    assert g.flags.c_contiguous
    node_major = np.ascontiguousarray(np.moveaxis(g, -3, -2))
    assert node_major.tobytes() == want.tobytes()


@pytest.mark.parametrize("degree", range(9))
def test_lower_degree_tables_are_the_leading_columns(degree):
    # per-cell scales; signed zeros, an underflowing and a negative
    # coordinate among ordinary ones
    loc = np.random.default_rng(degree).uniform(-1.5, 1.5, (4, 9, 2))
    loc.reshape(-1)[:4] = [0.0, -0.0, 1e-300, -3.7]
    scale = np.array([0.37, 1.0, 2e-3, 5.5])
    values, grads = monomial_table(loc, degree)
    grads = grads(scale)
    dim = space_dimension(degree)
    assert values.shape == (4, 9, dim) and grads.shape == (4, dim, 9, 2)
    assert values.flags.c_contiguous and grads.flags.c_contiguous
    # the bits of the gathered power tables and of the stacked gradient
    # formula, which the separate value and gradient functions computed
    e = np.asarray(monomial_exponents(degree))
    px, py = _power_tables(loc, degree)
    assert values.tobytes() == (px[..., e[:, 0]] * py[..., e[:, 1]]).tobytes()
    node_major = np.ascontiguousarray(np.moveaxis(grads, 1, 2))
    assert node_major.tobytes() == stacked_grads(loc, degree, scale).tobytes()
    for low in range(degree + 1):
        v, g = monomial_table(loc, low)
        g = g(scale)
        d = space_dimension(low)
        assert np.ascontiguousarray(values[..., :d]).tobytes() == v.tobytes()
        assert np.ascontiguousarray(grads[:, :d]).tobytes() == g.tobytes()


def test_monomial_exponent_order():
    assert monomial_exponents(2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                     (0, 2)]


def test_face_basis_exact_degree():
    # Oracle: the per-face construction of the face basis, mass and
    # projection.  Each face's arclength coordinate t, mapped to [-1, 1],
    # sends its Gauss nodes to the reference nodes in either orientation, so
    # the shared table is every face's basis, and the per-face projection
    # (Gram matrix and solve) is the table's.
    mesh = cached_voronoi(16)
    for k in range(4):
        V, M_ref, P_ref = reference_face_table(k)
        for ends in (mesh.face_points, mesh.face_points[:, ::-1]):
            p0, p1 = ends[:, 0], ends[:, 1]
            pts, w = face_rule(ends, k)
            mid, half = 0.5 * (p0 + p1), 0.5 * (p1 - p0)
            inv_sq = 1.0 / (half[:, None, :] @ half[:, :, None])[..., 0]
            t = ((pts - mid[:, None, :]) @ half[:, :, None])[..., 0] * inv_sq
            Vt = t[..., None] ** np.arange(k + 1)
            assert np.abs(Vt - V).max() < 1e-12
            M_face = np.swapaxes(Vt, 1, 2) @ (w[..., None] * Vt)
            scale = 0.5 * mesh.face_lengths[:, None, None]
            assert np.abs(M_face - scale * M_ref).max() < 1e-12 * scale.max()
            proj = np.linalg.solve(M_face, np.swapaxes(w[..., None] * Vt, 1, 2))
            assert np.abs(proj - P_ref).max() < 1e-12 * np.abs(P_ref).max()

        # _face_projections of a degree-k polynomial is exact on every face:
        # its coefficients give back the polynomial at the face's own nodes
        space = HhoSpace(mesh, k)
        rng = np.random.default_rng(k)
        coeffs = rng.standard_normal(len(monomial_exponents(k)))
        f = lambda p: sum(c * p[:, 0] ** a * p[:, 1] ** b
                          for c, (a, b) in zip(coeffs, monomial_exponents(k)))
        faces = np.arange(mesh.n_faces)
        proj = _face_projections(space, f, faces)
        x, _ = np.polynomial.legendre.leggauss(k + 2)
        p0, p1 = mesh.face_points[:, 0], mesh.face_points[:, 1]
        at = 0.5 * (p0 + p1)[:, None] + x[:, None] * (0.5 * (p1 - p0))[:, None]
        want = f(at.reshape(-1, 2)).reshape(at.shape[:2])
        got = proj @ (x[:, None] ** np.arange(k + 1)).T
        assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())
