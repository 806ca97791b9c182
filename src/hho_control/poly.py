"""Polynomial bases on cells, quadrature on polygons and segments.

Cell bases are monomials scaled by the cell diameter and centered at the
centroid, ((x - x_T)/h_T)^a ((y - y_T)/h_T)^b in graded order, optionally
mass-orthonormalized through a Cholesky factorization of the Gram matrix.
Face bases are monomials in the arclength coordinate mapped to [-1, 1]:
every face's Gauss nodes map to the same reference nodes, so one cached
``reference_face_table`` per degree holds the face basis at the nodes, the
reference face mass matrix and the L2 projection onto the face basis.
``polygon_rules`` builds the quadrature of stacked polygons in one place:
it triangulates from the centroid (ear clipping as fallback for non-convex
cells) and applies a collapsed-square Gauss rule per triangle.
The 1D Gauss-Legendre and reference triangle rules are computed once per
process, on first use, and shared read-only; the quadrature and monomial
functions work on stacked arrays so that local kernels of many cells are
built in one call.  ``monomial_table`` gathers monomials and gradients from
power tables filled once by repeated multiplication (the bits of a
cumulative product), not by a generic power; in graded order, a lower
degree's table is its leading columns.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .mesh import next_vertices, read_only, twice_area


class GeometryError(Exception):
    """Degenerate geometry encountered while building a quadrature."""


def monomial_exponents(degree):
    """Graded-lexicographic 2D exponents: (0,0), (1,0), (0,1), (2,0), ..."""
    return [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]


def space_dimension(degree):
    return (degree + 1) * (degree + 2) // 2


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """n-point Gauss-Legendre rule on [-1, 1], computed once per process."""
    x, w = np.polynomial.legendre.leggauss(n)
    return read_only(x), read_only(w)


@functools.lru_cache(maxsize=None)
def _duffy_rule(nu, nv):
    """Collapsed-square rule on the reference triangle, computed once.

    Returns read-only ``(U, V, W)``: a triangle abc gets the points
    a + U (b - a) + V (c - a) and the weights W * 2|abc|.  The (1 - u)
    Jacobian of the collapse is folded into V and W.
    """
    (x, wx), (y, wy) = _gauss_legendre(nu), _gauss_legendre(nv)
    u, wu = 0.5 * (x + 1.0), 0.5 * wx
    v, wv = 0.5 * (y + 1.0), 0.5 * wy
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ww = np.outer(wu, wv)
    return (read_only(uu.ravel()), read_only((vv * (1.0 - uu)).ravel()),
            read_only((ww * (1.0 - uu)).ravel()))


def triangle_quadrature(a, b, c, exactness):
    """Rule exact for total degree ``exactness`` on triangles abc.

    The vertices are ``(..., 2)`` arrays; the points come back as
    ``(..., n, 2)`` and the weights as ``(..., n)``, one rule per triangle.
    """
    # the u-direction degree carries the extra (1 - u) Jacobian factor
    nu = max(1, math.ceil((exactness + 2) / 2))
    nv = max(1, math.ceil((exactness + 1) / 2))
    U, V, W = _duffy_rule(nu, nv)
    pts = (a[..., None, :]
           + U[:, None] * (b - a)[..., None, :]
           + V[:, None] * (c - a)[..., None, :])
    return pts, W * twice_area(a, b, c)[..., None]


def fan_triangles(polys, centroids):
    """Centroid-fan triangles of polygons and whether each fan folds.

    ``polys`` is ``(..., m, 2)`` and ``centroids`` ``(..., 2)``; returns the
    ``(..., m, 3, 2)`` triangles (centroid, vertex i, vertex i+1) and a mask
    that is set where some triangle is not positively oriented, i.e. where
    the polygon is not star-shaped about its centroid.
    """
    nxt = next_vertices(polys)
    a = np.broadcast_to(centroids[..., None, :], polys.shape)
    folded = (twice_area(a, polys, nxt) <= 0.0).any(axis=-1)
    return np.stack((a, polys, nxt), axis=-2), folded


def _ear_clip(poly):
    """Triangulate a simple CCW polygon into vertex-index triples."""
    idx = list(range(len(poly)))
    triangles = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10000:
            raise GeometryError("ear clipping failed to terminate")
        n = len(idx)
        clipped = False
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = poly[i0], poly[i1], poly[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= 0:
                continue
            ear = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                p = poly[j]
                s1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                s2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
                s3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
                if s1 >= 0 and s2 >= 0 and s3 >= 0:
                    ear = False
                    break
            if ear:
                triangles.append((i0, i1, i2))
                idx.pop(k)
                clipped = True
                break
        if not clipped:
            raise GeometryError("polygon could not be ear-clipped")
    triangles.append(tuple(idx))
    return triangles


def polygon_triangles(poly, centroid):
    """Triangles ``(t, 3, 2)`` covering a simple CCW polygon.

    The centroid fan when the polygon is star-shaped about its centroid,
    otherwise an ear-clipping triangulation.
    """
    tris, folded = fan_triangles(poly, centroid)
    if folded:
        tris = poly[np.array(_ear_clip(poly))]
    return tris


def polygon_rules(polys, centroids, exactness):
    """Rules exact for total degree ``exactness`` on loops of one vertex count.

    ``polys`` is ``(B, m, 2)`` and ``centroids`` ``(B, 2)``.  Each loop gets
    the rule of its ``polygon_triangles``; the loops are grouped by triangle
    count (ear-clipped loops first) and each group is yielded as ``(sel,
    points, weights)``: the loops' rows ``sel`` of ``polys``, their points
    ``(len(sel), n, 2)`` and weights ``(len(sel), n)``.
    """
    tris, folded = fan_triangles(polys, centroids)
    for fold in (True, False):
        sel = np.flatnonzero(folded == fold)
        if not len(sel):
            continue
        t = (np.array([polygon_triangles(polys[i], centroids[i]) for i in sel])
             if fold else tris[sel])
        pts, w = triangle_quadrature(t[:, :, 0], t[:, :, 1], t[:, :, 2],
                                     exactness)
        yield sel, pts.reshape(len(sel), -1, 2), w.reshape(len(sel), -1)


def segment_rule(p0, p1, exactness):
    """Gauss-Legendre points ``(..., n, 2)`` and weights ``(..., n)`` on segments."""
    x, w = _gauss_legendre(max(1, math.ceil((exactness + 1) / 2)))
    mid, half = 0.5 * (p0 + p1), 0.5 * (p1 - p0)
    length = np.hypot(p1[..., 0] - p0[..., 0], p1[..., 1] - p0[..., 1])
    return (mid[..., None, :] + x[:, None] * half[..., None, :],
            (0.5 * length)[..., None] * w)


def face_rule(ends, degree):
    """Gauss rule of the faces ``ends`` ``(..., 2, 2)`` of face degree ``degree``.

    Exact for 2(degree + 2): every product of two cell or reconstruction
    traces, whose degrees are at most degree + 1.
    """
    return segment_rule(ends[..., 0, :], ends[..., 1, :], 2 * (degree + 2))


@functools.lru_cache(maxsize=None)
def reference_face_table(degree):
    """Face basis on the reference face [-1, 1] at its ``face_rule`` nodes.

    Returns read-only ``(V, M, P)``: ``V = x ** p`` ``(n, degree + 1)``, the
    mass matrix ``M = V^T W V`` and the L2 projection ``P = M^{-1} V^T W``.
    Every face's nodes map to these, so a face F has the mass (|F|/2) M, and
    P, where the weights cancel, is its projection of node values.
    """
    pts, w = face_rule(np.array([[-1.0, 0.0], [1.0, 0.0]]), degree)
    V = pts[:, :1] ** np.arange(degree + 1)
    M = V.T @ (w[:, None] * V)
    return read_only(V), read_only(M), read_only(np.linalg.solve(M, V.T * w))


def _power_tables(loc, degree):
    """``x ** p`` and ``y ** p`` for p = 0..degree, ``(..., n, degree + 1)``.

    Each power is the one below it times the coordinate, filled into one
    preallocated table: the bits of a cumulative product, at the cost of
    ``degree`` elementwise products instead of a generic ``x ** p``.
    """
    tab = np.empty((2,) + loc.shape[:-1] + (degree + 1,))
    tab[..., 0] = 1.0
    xy = np.moveaxis(loc, -1, 0)
    for p in range(1, degree + 1):
        tab[..., p] = tab[..., p - 1] * xy
    return tab[0], tab[1]


def monomial_table(loc, degree):
    """Scaled monomials and gradients at local coordinates ``(..., n, 2)``.

    One fill of the power tables gives the C-order values ``(..., n, dim)``
    and ``grads(scale)``: the C-order gradients ``(..., dim, n, 2)`` of cells
    of size ``scale`` (broadcast against the leading axes of ``loc``), made
    only if called, which flatten to ``(..., dim, 2n)`` without a copy.
    """
    a, b = np.asarray(monomial_exponents(degree)).T
    px, py = _power_tables(loc, degree)

    def grads(scale):
        # function-major views of the power tables: each function's nodes
        # come out contiguous
        qx, qy = np.swapaxes(px, -1, -2), np.swapaxes(py, -1, -2)
        scale = np.asarray(scale)[..., None, None]
        g = np.empty(loc.shape[:-2] + (len(a),) + loc.shape[-2:])
        g[..., 0] = (a[:, None] * qx[..., np.maximum(a - 1, 0), :]
                     * qy[..., b, :] / scale)
        g[..., 1] = (b[:, None] * qx[..., a, :]
                     * qy[..., np.maximum(b - 1, 0), :] / scale)
        return g

    return np.ascontiguousarray(px[..., a] * py[..., b]), grads


class CellBasis:
    """Scaled-monomial basis on a cell, optionally mass-orthonormalized.

    In orthonormalized mode basis function i is sum_j transform[i, j] * m_j
    with m_j the raw scaled monomials; the transform comes from a Cholesky
    factor, so the first function stays constant and the mass matrix is the
    identity.
    """

    def __init__(self, degree, center, scale, transform=None):
        self.degree = int(degree)
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.dimension = space_dimension(degree)
        self.transform = transform
        self.mode = "mass-orthonormalized" if transform is not None else "raw-scaled-monomial"

    def _local(self, points):
        return (np.atleast_2d(points) - self.center) / self.scale

    def eval(self, points):
        """Value table, shape (n_points, dimension)."""
        vals = monomial_table(self._local(points), self.degree)[0]
        if self.transform is not None:
            vals = vals @ self.transform.T
        return vals

    def grad(self, points):
        """Gradient table, shape (n_points, dimension, 2)."""
        g = monomial_table(self._local(points), self.degree)[1](self.scale)
        if self.transform is not None:
            g = np.einsum("ij,jnd->ind", self.transform, g)
        return np.moveaxis(g, 0, 1)


def orthonormal_transform(vals, weights):
    """Inverse Cholesky factor of the Gram matrix of basis values at nodes.

    ``vals`` is ``(..., n, dim)`` and ``weights`` ``(..., n)``.  The factor is
    lower triangular, so function 0 stays constant.
    """
    gram = np.swapaxes(vals, -1, -2) @ (weights[..., None] * vals)
    return np.linalg.inv(np.linalg.cholesky(gram))
