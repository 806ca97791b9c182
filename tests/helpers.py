"""Shared oracles and cached meshes for the test suite.

The oracles here deliberately avoid the library's quadrature and assembly
paths: polygon moments go through the divergence theorem with 1D Gauss rules,
dense reference systems are solved with numpy, and expected values are
computed from closed forms.  ``polygon_area``, ``polygon_centroid`` and
``polygon_diameter`` sum one polygon at a time, the reference for the mesh's
grouped geometry.  ``clipped_voronoi_oracle`` builds the clipped Voronoi
cells from ``scipy.spatial.Voronoi`` of the seeds and all their wall mirrors,
the reference of the mesh generator's Delaunay construction, and
``clipped_voronoi_mismatch`` compares the two.  ``cell_polygon``,
``cell_face_ids`` and ``cell_normals`` read one cell's rows of the mesh
arrays.  ``polygon_quadrature``,
``cell_quadrature`` and ``make_cell_basis`` are not oracles: they apply the
library's ``polygon_rules`` to one polygon or cell.  ``single_polygon_rule``
is the per-polygon reference of that builder: the triangulation and triangle
rule of one polygon on its own.  ``cell_basis`` and ``recon_basis`` rebuild
the bases of one cell's record from ``HhoSpace.local_ops()`` out of its
kernel entries.  ``face_gauss`` builds one face's Gauss rule and face
basis from its endpoints alone.  ``l2_error_cells``, ``vi_residual_wc1`` and
``reduced_cost`` are not oracles either: they evaluate the L2 error of the
cell polynomials, the wc1 variational inequality and the reduced cost of a
control load with the library's kernels and solve.  ``wc1_cell_control``
reads the per-cell value of a wc1 control off its node values.
``count_calls`` records the calls of a library function for the tests that
count work.
"""

import functools
import inspect
import math

import numpy as np

from hho_control import make_cartesian, make_voronoi
from hho_control.control_unconstrained import _pinned_mass
from hho_control.hho_core import (OptimalitySystem, cell_load_vector,
                                  local_stiffness, reconstruct_all,
                                  reduce_function, scatter_blocks, sorted_sum)
from hho_control.mesh import _clipped_voronoi, next_vertices
from hho_control.poly import (CellBasis, monomial_exponents,
                              orthonormal_transform, polygon_rules,
                              polygon_triangles, triangle_quadrature)


def count_calls(monkeypatch, owner, name):
    """Record every call of ``owner.name`` (a module or class attribute).

    ``monkeypatch`` replaces the attribute by a wrapper that calls the
    original, for the rest of the test.  Returns the list of the calls, one
    dict per call mapping each parameter name (``self`` of a method too) to
    its argument, defaults filled in.
    """
    func = getattr(owner, name)
    signature = inspect.signature(func)
    calls = []

    @functools.wraps(func)
    def counted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return func(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@functools.lru_cache(maxsize=None)
def cached_voronoi(seeds, rng_seed=42, lloyd_iters=10):
    return make_voronoi(seeds, rng_seed=rng_seed, lloyd_iters=lloyd_iters)


@functools.lru_cache(maxsize=None)
def cached_cartesian(n):
    return make_cartesian(n)


def polygon_area(poly):
    """Signed area of one vertex loop, summed on its own."""
    x, y = poly[:, 0], poly[:, 1]
    nxt = next_vertices(poly)
    xn, yn = nxt[:, 0], nxt[:, 1]
    return 0.5 * float((x * yn - xn * y).sum())


def polygon_centroid(poly):
    """Centroid of one vertex loop, summed on its own."""
    x, y = poly[:, 0], poly[:, 1]
    nxt = next_vertices(poly)
    xn, yn = nxt[:, 0], nxt[:, 1]
    cross = x * yn - xn * y
    area = 0.5 * float(cross.sum())
    cx = float(((x + xn) * cross).sum()) / (6.0 * area)
    cy = float(((y + yn) * cross).sum()) / (6.0 * area)
    return np.array([cx, cy])


def polygon_diameter(poly):
    """Largest distance between two vertices of one loop."""
    d = poly[:, None, :] - poly[None, :, :]
    return float(np.sqrt((d ** 2).sum(-1)).max())


def cell_polygon(mesh, c):
    """Vertex coordinates ``(m, 2)`` of the loop of cell c."""
    return mesh.vertices[
        mesh.cell_vertex_ids[mesh.cell_ptr[c]:mesh.cell_ptr[c + 1]]]


def cell_face_ids(mesh, c):
    """Faces of cell c in loop order."""
    return mesh.cell_face_ids[mesh.cell_ptr[c]:mesh.cell_ptr[c + 1]].tolist()


def cell_normals(mesh, c):
    """Outward unit normals ``(m, 2)`` of cell c's faces, in loop order."""
    at = slice(mesh.cell_ptr[c], mesh.cell_ptr[c + 1])
    signs, faces = mesh.cell_face_signs[at], mesh.cell_face_ids[at]
    return signs[:, None] * mesh.face_normals[faces]


def polygon_quadrature(poly, exactness, centroid=None):
    """Points ``(n, 2)`` and weights ``(n,)``: ``polygon_rules`` on one polygon."""
    poly = np.asarray(poly, dtype=float)
    centroid = polygon_centroid(poly) if centroid is None else centroid
    ((_, pts, w),) = polygon_rules(poly[None], np.asarray(centroid)[None],
                                   exactness)
    return pts[0], w[0]


def single_polygon_rule(poly, centroid, exactness):
    """One polygon's rule from its own triangles: ``polygon_triangles`` and
    ``triangle_quadrature`` on that polygon alone."""
    tris = polygon_triangles(poly, centroid)
    pts, w = triangle_quadrature(tris[:, 0], tris[:, 1], tris[:, 2], exactness)
    return pts.reshape(-1, 2), w.ravel()


def cell_quadrature(mesh, c, exactness):
    """Points and weights over mesh cell c (its polygon and centroid)."""
    return polygon_quadrature(cell_polygon(mesh, c), exactness,
                              centroid=mesh.cell_centroids[c])


def cell_dofs(space, i):
    """Global indices of cell i's DOFs, from the space's layout."""
    return space.cell_dof_start[i] + np.arange(space.cell_dim)


def cell_basis(op):
    return CellBasis(op.cell_degree, op.centroid, op.h, transform=op.Ql)


def recon_basis(op):
    return CellBasis(op.recon_degree, op.centroid, op.h, transform=op.Qr)


def make_cell_basis(mesh, c, degree, quadrature=None, orthonormal=None):
    """Basis on mesh cell c; orthonormalized by default for degree >= 2."""
    center, h = mesh.cell_centroids[c], mesh.cell_diameters[c]
    basis = CellBasis(degree, center, h)
    if orthonormal is None:
        orthonormal = degree >= 2
    if orthonormal:
        pts, w = quadrature or cell_quadrature(mesh, c, 2 * degree)
        basis = CellBasis(degree, center, h,
                          transform=orthonormal_transform(basis.eval(pts), w))
    return basis


def polygon_monomial_integral(poly, a, b):
    """Divergence-theorem moment: integral of x^a y^b over a CCW polygon.

    Uses int x^a y^b dA = boundary-int x^{a+1}/(a+1) y^b dy, integrating the
    degree-(a+b+1) edge integrand exactly with a 1D Gauss rule.
    """
    poly = np.asarray(poly, dtype=float)
    npts = math.ceil((a + b + 2) / 2)
    t, w = np.polynomial.legendre.leggauss(npts)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    total = 0.0
    m = len(poly)
    for i in range(m):
        p0, p1 = poly[i], poly[(i + 1) % m]
        x = p0[0] + t * (p1[0] - p0[0])
        y = p0[1] + t * (p1[1] - p0[1])
        dy = p1[1] - p0[1]
        total += dy * np.sum(w * x ** (a + 1) * y ** b / (a + 1))
    return float(total)


def segment_monomial_integral(p0, p1, f, degree):
    """Exact 1D Gauss integral of f along the segment p0-p1."""
    npts = math.ceil((degree + 1) / 2)
    t, w = np.polynomial.legendre.leggauss(max(npts, 1))
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    length = float(np.hypot(*(p1 - p0)))
    return length * float(np.sum(w * f(pts)))


def dense_stiffness(space):
    """Reference assembly: scatter each local matrix into a dense array."""
    A = np.zeros((space.n_dofs, space.n_dofs))
    for op in space.local_ops():
        d = op.dofs
        A[np.ix_(d, d)] += op.A
    return A


def dense_cell_mass(space):
    M = np.zeros((space.n_dofs, space.n_dofs))
    for op in space.local_ops():
        d = cell_dofs(space, op.cell_id)
        M[np.ix_(d, d)] += op.M_cell
    return M


def dense_recon_mass(space):
    B = np.zeros((space.n_dofs, space.n_dofs))
    for op in space.local_ops():
        d = op.dofs
        B[np.ix_(d, d)] += op.G.T @ op.M_recon @ op.G
    return B


def pinned_control_mass(control_space, lam):
    """uc32's C = lam B + eps I, assembled from its local blocks."""
    local = _pinned_mass(control_space, lam)
    triplets = []
    for g in control_space.kernel_groups():
        blocks, index = local(g)
        triplets.append((g.dofs, g.dofs, blocks[index]))
    return scatter_blocks((control_space.n_dofs,) * 2, triplets)


def dense_cross_coupling(space, control_space):
    """Reference (R_c u, w_T) coupling of uc32, assembled cell by cell.

    Each cell's control reconstruction basis is its ``CellBasis``, evaluated
    at the state cell's quadrature points.
    """
    K = np.zeros((space.n_dofs, control_space.n_dofs))
    c_ops = control_space.local_ops()
    for op in space.local_ops():
        cop = c_ops[op.cell_id]
        Vr_c = recon_basis(cop).eval(op.qp + op.centroid)
        K[np.ix_(cell_dofs(space, op.cell_id), cop.dofs)] += (
            op.Vl.T @ (op.qw[:, None] * Vr_c) @ cop.G)
    return K


def global_monomials(degree):
    """x^a y^b for every exponent pair of total degree <= ``degree``."""
    return [(lambda p, a=a, b=b: p[:, 0] ** a * p[:, 1] ** b)
            for a, b in monomial_exponents(degree)]


def face_gauss(mesh, fid, n, dim):
    """The n-point Gauss-Legendre rule of face ``fid`` and its face basis.

    Returns the points ``(n, 2)``, the weights ``(n,)`` and ``t ** p`` for
    p < ``dim`` at the points ``(n, dim)``, t the face's arclength
    coordinate mapped to [-1, 1] in the face's own orientation.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    p0, p1 = mesh.face_points[fid]
    pts = 0.5 * (p0 + p1) + x[:, None] * (0.5 * (p1 - p0))
    return pts, 0.5 * math.dist(p0, p1) * w, x[:, None] ** np.arange(dim)


def stabilization(op, local):
    """Per-face residual polynomials S_F v and S_T(v, v) of one cell's DOFs.

    Each face's squared residual is integrated with its kernel weights
    ``fqw``, at whose Gauss-Legendre nodes the face basis is ``t ** p``.
    """
    polys = op.S_faces @ local
    value = 0.0
    for p, fw in zip(polys, op.fqw):
        x, _ = np.polynomial.legendre.leggauss(len(fw))
        value += fw @ (x[:, None] ** np.arange(len(p)) @ p) ** 2
    return polys, value / op.h


def reduce_reconstruct_stabilize(space, f):
    """Per cell: its record, the local DOFs of I f, the largest |R I f - f| at
    its quadrature nodes, and the stabilization of I f.

    Applies the library's ``reduce_function`` and ``reconstruct_all`` to the
    whole space, then reads each cell's rows through its record.
    """
    vec = reduce_function(space, f)
    rec = reconstruct_all(space, vec)
    for op in space.local_ops():
        local = vec[op.dofs]
        err = np.abs(op.Vr @ rec[op.cell_id] - f(op.qp + op.centroid)).max()
        yield op, local, err, stabilization(op, local)


def dense_face_schur(space, matrix):
    """Face Schur complement of the active ``matrix``, eliminated densely.

    ``matrix`` is a full-size matrix over the DOFs of ``space``.  Cell DOFs
    come first in the layout and are never fixed, so the active matrix
    splits into its cell and face blocks at ``n_cell_dofs``.
    """
    act = space.active_dofs
    A = matrix.toarray()[np.ix_(act, act)]
    nc = space.n_cell_dofs
    return A[nc:, nc:] - A[nc:, :nc] @ np.linalg.solve(A[:nc, :nc], A[:nc, nc:])


def regular_polygon(n_sides, radius=1.0, center=(0.3, 0.4)):
    ang = 2 * np.pi * np.arange(n_sides) / n_sides
    return np.column_stack([center[0] + radius * np.cos(ang),
                            center[1] + radius * np.sin(ang)])


def clipped_voronoi_oracle(points):
    """Clipped Voronoi cells of points in (0, 1)^2 by the 5N construction.

    Every seed is mirrored across all four walls, so the diagram of the 5N
    points, from ``scipy.spatial.Voronoi``, tiles the square exactly.
    Returns one ``(m, 2)`` vertex loop per seed, sorted by angle about it.
    """
    from scipy.spatial import Voronoi

    sites = [points]
    for dim, wall in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)):
        r = points.copy()
        r[:, dim] = 2.0 * wall - r[:, dim]
        sites.append(r)
    vor = Voronoi(np.vstack(sites))
    loops = []
    for seed, region in zip(points, vor.point_region):
        verts = vor.vertices[vor.regions[region]]
        assert -1 not in vor.regions[region]
        ang = np.arctan2(verts[:, 1] - seed[1], verts[:, 0] - seed[0])
        loops.append(verts[np.argsort(ang)])
    return loops


def clipped_voronoi_mismatch(seeds):
    """Largest distance of a ``_clipped_voronoi`` cell from the oracle's.

    Each pair of loops is compared up to a cyclic rotation, after every
    vertex within 1e-12 of its cyclic predecessor is dropped; loops of
    different lengths are infinitely far apart.
    """
    def distinct(loop):
        step = np.abs(loop - np.roll(loop, 1, axis=0)).max(axis=1)
        return loop[step > 1e-12]

    vertices, ptr, ids = _clipped_voronoi(seeds)
    worst = 0.0
    for c, want in enumerate(clipped_voronoi_oracle(seeds)):
        a, b = distinct(vertices[ids[ptr[c]:ptr[c + 1]]]), distinct(want)
        if len(a) != len(b):
            return np.inf
        worst = max(worst, min(np.abs(np.roll(a, k, axis=0) - b).max()
                               for k in range(len(a))))
    return worst


@functools.lru_cache(maxsize=None)
def voronoi_with_l_cell(seeds=12):
    """Voronoi cells of the unit square plus one non-convex L-shaped cell.

    The L occupies [1, 2] x [0, 0.2] and [1, 1.2] x [0.2, 1] and closes along
    the square's right wall through the wall's vertices, so the mesh stays
    conforming.  Its centroid lies outside the L, so the centroid fan folds
    and the cell is ear-clipped.  The mesh is read back from text.
    """
    from hho_control import read_mesh, write_mesh

    mesh = make_voronoi(seeds)
    n = mesh.n_vertices
    wall = sorted((i for i in range(n) if mesh.vertices[i, 0] == 1.0),
                  key=lambda i: mesh.vertices[i, 1])
    corners = ["2 0", "2 0.2", "1.2 0.2", "1.2 1"]
    loop = [wall[0], n, n + 1, n + 2, n + 3] + wall[:0:-1]
    lines = write_mesh(mesh).splitlines()
    at_cells = lines.index(f"cells {mesh.n_cells}")
    lines = (["poly-mesh 1", f"vertices {n + len(corners)}"]
             + lines[2:at_cells] + corners + [f"cells {mesh.n_cells + 1}"]
             + lines[at_cells + 1:] + [" ".join(map(str, [len(loop), *loop]))])
    return read_mesh("\n".join(lines) + "\n")


def l2_error_cells(space, vec, v_exact):
    """L2 distance between the exact function and the cell polynomials."""
    t = space.nodes()
    approx = t.values("Vl", space.cell_blocks(vec))
    diff_sq = (v_exact(t.points) - approx) ** 2
    return math.sqrt(sorted_sum(t.cell_integrals(diff_sq)))


def wc1_cell_control(solution):
    """The wc1 control on each cell, checked to be one value at all its nodes."""
    control = solution.control
    nodes, u = control.space.nodes(), control.at_nodes()
    lo, hi = (nodes.reduce_cells(f, u) for f in (np.minimum, np.maximum))
    assert np.array_equal(lo, hi)
    return lo


def vi_residual_wc1(space, solution, prob):
    """Worst value of (phi_T + lambda u, v - u) over the extreme directions.

    For piecewise constant controls the admissible extreme directions per cell
    are v = u_a and v = u_b; the discrete variational inequality holds when
    the minimum is nonnegative (up to the fixed-point tolerance).
    """
    u = wc1_cell_control(solution)
    phi = space.cell_blocks(solution.phi)
    worst = np.inf
    for g in space.kernel_groups():
        k, rows, ug = g.kernels, g.rows, u[g.cells]
        int_cell = k["qw"][rows][:, None, :] @ k["Vl"][rows]
        grad = ((int_cell @ phi[g.cells][..., None])[:, 0, 0]
                + prob.lam * ug * space.mesh.cell_areas[g.cells])
        for v in prob.bounds:
            worst = min(worst, float(np.min(grad * (v - ug))))
    return worst


def reduced_cost(space, prob, control_load, control_norm_sq):
    """j_h(u) = 0.5 ||y_T(u) - y_d||^2 + (lam/2) ||u||^2 for a given load."""
    system = OptimalitySystem(space, local_stiffness)
    y = system.solve(cell_load_vector(space, prob.f) + control_load,
                     space.boundary_values(prob.state_boundary))
    t = space.nodes()
    misfit = t.cell_integrals(
        (t.values("Vl", space.cell_blocks(y)) - prob.y_d(t.points)) ** 2)
    return 0.5 * sorted_sum(misfit) + 0.5 * prob.lam * control_norm_sq
