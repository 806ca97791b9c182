"""Polynomial bases on cells and faces, quadrature on polygons and segments.

Cell bases are monomials scaled by the cell diameter and centered at the
centroid, ((x - x_T)/h_T)^a ((y - y_T)/h_T)^b in graded order, optionally
mass-orthonormalized through a Cholesky factorization of the Gram matrix.
Face bases are monomials in the arclength coordinate mapped to [-1, 1].
Polygon quadrature triangulates from the centroid (ear clipping as fallback
for non-convex cells) and applies a collapsed-square Gauss rule per triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import polygon_area, polygon_centroid


class GeometryError(Exception):
    """Degenerate geometry encountered while building a quadrature."""


def monomial_exponents(degree):
    """Graded-lexicographic 2D exponents: (0,0), (1,0), (0,1), (2,0), ..."""
    return [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]


def space_dimension(degree):
    return (degree + 1) * (degree + 2) // 2


@dataclass(frozen=True)
class CellQuadrature:
    points: np.ndarray      # (n, 2)
    weights: np.ndarray     # (n,), positive
    exactness_degree: int


@dataclass(frozen=True)
class FaceQuadrature:
    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int


def _gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _triangle_rule(a, b, c, exactness):
    # Collapsed-square (Duffy) rule: exact for total degree `exactness` once
    # the (1-u) Jacobian factor is accounted for in the u-direction degree.
    nu = max(1, math.ceil((exactness + 2) / 2))
    nv = max(1, math.ceil((exactness + 1) / 2))
    u, wu = _gauss01(nu)
    v, wv = _gauss01(nv)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ww = np.outer(wu, wv)
    area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    pts = (a[None, :]
           + uu.ravel()[:, None] * (b - a)[None, :]
           + (vv * (1.0 - uu)).ravel()[:, None] * (c - a)[None, :])
    wts = (ww * (1.0 - uu)).ravel() * area2
    return pts, wts


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


def polygon_quadrature(poly, exactness, centroid=None):
    """Quadrature on a simple CCW polygon, exact for total degree `exactness`."""
    poly = np.asarray(poly, dtype=float)
    if centroid is None:
        centroid = polygon_centroid(poly)
    m = len(poly)
    fan = [(centroid, poly[i], poly[(i + 1) % m]) for i in range(m)]
    areas = [(b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
             for a, b, c in fan]
    if min(areas) <= 0.0:
        # Non-convex polygon: the centroid fan folds; ear-clip instead.
        fan = [(poly[i], poly[j], poly[k]) for i, j, k in _ear_clip(poly)]
    pts, wts = [], []
    for a, b, c in fan:
        p, w = _triangle_rule(np.asarray(a), np.asarray(b), np.asarray(c), exactness)
        pts.append(p)
        wts.append(w)
    return CellQuadrature(np.vstack(pts), np.concatenate(wts), exactness)


def cell_quadrature(cell, exactness):
    """Quadrature over a mesh cell (uses its polygon and centroid)."""
    return polygon_quadrature(cell.polygon, exactness, centroid=cell.centroid)


def segment_quadrature(p0, p1, exactness):
    n = max(1, math.ceil((exactness + 1) / 2))
    x, w = np.polynomial.legendre.leggauss(n)
    p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    mid, half = 0.5 * (p0 + p1), 0.5 * (p1 - p0)
    length = float(np.hypot(*(p1 - p0)))
    return FaceQuadrature(mid[None, :] + x[:, None] * half[None, :],
                          0.5 * length * w, exactness)


def face_quadrature(face, exactness):
    """Gauss-Legendre rule on a mesh face."""
    return segment_quadrature(face.endpoints[0], face.endpoints[1], exactness)


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
        self.exponents = np.asarray(monomial_exponents(degree))
        self.dimension = len(self.exponents)
        self.transform = transform
        self.mode = "mass-orthonormalized" if transform is not None else "raw-scaled-monomial"

    def _local(self, points):
        return (np.atleast_2d(points) - self.center) / self.scale

    def eval(self, points):
        """Value table, shape (n_points, dimension)."""
        loc = self._local(points)
        px = loc[:, 0][:, None] ** self.exponents[:, 0][None, :]
        py = loc[:, 1][:, None] ** self.exponents[:, 1][None, :]
        vals = px * py
        if self.transform is not None:
            vals = vals @ self.transform.T
        return vals

    def grad(self, points):
        """Gradient table, shape (n_points, dimension, 2)."""
        loc = self._local(points)
        a = self.exponents[:, 0][None, :]
        b = self.exponents[:, 1][None, :]
        x = loc[:, 0][:, None]
        y = loc[:, 1][:, None]
        xa = x ** np.maximum(a - 1, 0)
        yb = y ** np.maximum(b - 1, 0)
        gx = a * xa * (y ** b) / self.scale
        gy = b * (x ** a) * yb / self.scale
        g = np.stack([gx, gy], axis=-1)
        if self.transform is not None:
            g = np.einsum("ij,njd->nid", self.transform, g)
        return g


def orthonormalize(basis, quadrature):
    """Return a mass-orthonormalized copy of a raw CellBasis."""
    vals = basis.eval(quadrature.points)
    gram = vals.T @ (quadrature.weights[:, None] * vals)
    chol = np.linalg.cholesky(gram)
    transform = np.linalg.inv(chol)  # lower triangular: function 0 stays constant
    return CellBasis(basis.degree, basis.center, basis.scale, transform=transform)


def make_cell_basis(cell, degree, quadrature=None, orthonormal=None):
    """Basis on a mesh cell; orthonormalized by default for degree >= 2."""
    basis = CellBasis(degree, cell.centroid, cell.diameter)
    if orthonormal is None:
        orthonormal = degree >= 2
    if orthonormal:
        if quadrature is None:
            quadrature = cell_quadrature(cell, 2 * degree)
        basis = orthonormalize(basis, quadrature)
    return basis


class FaceBasis:
    """Monomial basis in the arclength coordinate of a face mapped to [-1, 1]."""

    def __init__(self, degree, p0, p1):
        self.degree = int(degree)
        self.dimension = self.degree + 1
        p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
        self.midpoint = 0.5 * (p0 + p1)
        half = 0.5 * (p1 - p0)
        self._half = half
        self._inv_sq = 1.0 / float(half @ half)
        self.measure = 2.0 * float(np.hypot(*half))

    def parameter(self, points):
        return (np.atleast_2d(points) - self.midpoint) @ self._half * self._inv_sq

    def eval(self, points):
        t = self.parameter(points)
        return t[:, None] ** np.arange(self.dimension)[None, :]
