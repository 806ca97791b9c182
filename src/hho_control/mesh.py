"""Polygonal meshes on the unit square: generators, geometry, text format.

A ``Mesh`` is a set of stacked arrays.  The counter-clockwise vertex loops of
the cells form one CSR table: cell c's loop is ``cell_vertex_ids[cell_ptr[c]:
cell_ptr[c + 1]]`` and its local face k is the edge from loop vertex k to
k + 1.  ``cell_face_ids`` and ``cell_face_signs`` run parallel to that table.
The face table holds, per face, the endpoint ids ``face_vertex_ids`` and
coordinates ``face_points``, ``face_lengths``, ``face_midpoints``,
``face_normals`` and ``face_cells`` (the second cell is -1 on the boundary,
listed in ``boundary_faces``); ``sign * face_normals[face]`` is a cell's own
outward normal.  ``cell_areas``, ``cell_centroids`` and ``cell_diameters``
hold the cell geometry, computed per group of equal vertex count with each
loop summed at its own length, so each cell gets the bits of its polygon
summed alone.  Faces are derived by matching vertex-id pairs, never by
floating-point comparison, and are numbered by first appearance in the (cell,
local edge) traversal, keeping the orientation of that first cell.
``Mesh.cells`` and ``Mesh.faces`` are read-only ``Cell``/``Face`` views built
on first access, for tests and inspection; the library reads the arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

import numpy as np
from scipy.spatial import Voronoi


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class MeshFormatError(MeshError):
    """Malformed mesh document; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MeshGenerationError(MeshError):
    """A generator produced a degenerate configuration."""


# read-only views of one row of the face table and of one cell
Face = namedtuple("Face", "endpoint_ids endpoints measure midpoint normal cells")
Cell = namedtuple("Cell", "vertex_ids polygon centroid diameter measure "
                  "face_ids outward_normals face_signs")


def next_vertices(polys):
    """Vertex loops ``(..., m, 2)`` shifted by one: row i holds vertex i + 1."""
    return np.concatenate((polys[..., 1:, :], polys[..., :1, :]), axis=-2)


def twice_area(a, b, c):
    """Signed double areas of triangles abc, vertices ``(..., 2)``."""
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _areas_centroids(polys):
    """Areas and centroids of loops ``(B, m, 2)``, each row summed alone."""
    x, y = polys[..., 0], polys[..., 1]
    nxt = next_vertices(polys)
    xn, yn = nxt[..., 0], nxt[..., 1]
    cross = x * yn - xn * y
    area = 0.5 * cross.sum(-1)
    moments = np.stack((((x + xn) * cross).sum(-1),
                        ((y + yn) * cross).sum(-1)), axis=-1)
    return area, moments / (6.0 * area)[:, None]


def polygon_centroid(poly):
    """Centroid of one CCW vertex loop ``(m, 2)``."""
    return _areas_centroids(poly[None])[1][0]


def _diameters(polys):
    d = polys[:, :, None, :] - polys[:, None, :, :]
    return np.sqrt((d ** 2).sum(-1)).max(axis=(1, 2))


def _touching(polys):
    """Mask of the loops ``(B, m, 2)`` that meet themselves.

    Non-adjacent edges may neither cross nor touch, not even at an endpoint.
    That also catches adjacent edges that fold back onto each other: the
    edge after the fold starts on the edge before it, or the edge before it
    ends on the edge after it (a folded triangle has no area).
    """
    m = polys.shape[1]
    i, j = np.triu_indices(m, 2)
    i, j = i[j - i < m - 1], j[j - i < m - 1]
    nxt = next_vertices(polys)
    p, q, r, s = polys[:, i], nxt[:, i], polys[:, j], nxt[:, j]
    triples = ((p, q, r), (p, q, s), (r, s, p), (r, s, q))
    o = [np.sign(twice_area(*t)) for t in triples]
    hit = (o[0] * o[1] < 0) & (o[2] * o[3] < 0)
    for oc, (a, b, c) in zip(o, triples):       # c on the closed segment ab
        hit |= ((oc == 0) & (np.minimum(a, b) <= c).all(-1)
                & (c <= np.maximum(a, b)).all(-1))
    return hit.any(-1)


def loop_groups(ptr, cells=None):
    """Cells grouped by vertex count m, ascending: ``(at, idx)`` per group.

    ``at`` indexes ``cells`` (every cell by default) and ``idx`` holds the
    ``(len(at), m)`` positions of their loops in CSR tables with offsets
    ``ptr``.
    """
    cells = np.arange(len(ptr) - 1) if cells is None else cells
    sizes = ptr[cells + 1] - ptr[cells]
    for m in np.unique(sizes):
        at = np.flatnonzero(sizes == m)
        yield at, ptr[cells[at], None] + np.arange(m)


def _successors(ptr):
    """Position of the next entry in each entry's loop."""
    nxt = np.arange(ptr[-1]) + 1
    nxt[ptr[1:] - 1] = ptr[:-1]
    return nxt


def _drop_repeats(ptr, ids):
    """CSR loops without the entries equal to their cyclic predecessor."""
    nxt = _successors(ptr)
    keep = np.empty(len(ids), dtype=bool)
    keep[nxt] = ids[nxt] != ids
    return np.concatenate(([0], np.cumsum(keep)))[ptr], ids[keep]


def _first(mask, message, labels=None):
    """Raise ``MeshError(message)`` naming the first set entry of ``mask``."""
    bad = np.flatnonzero(mask)
    if len(bad):
        raise MeshError(message.format(
            bad[0] if labels is None else labels[bad[0]]))


def read_only(a):
    """``a``, marked read-only."""
    a.flags.writeable = False
    return a


def _checked_vertices(vertices):
    vertices = np.array(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be an (n, 2) array")
    if not np.isfinite(vertices).all():
        raise MeshError("vertex coordinates must be finite")
    return vertices


class Mesh:
    """Immutable polygonal mesh of stacked arrays (see the module docstring)."""

    def __init__(self, vertices, cell_vertex_ids):
        """Mesh of vertex loops, each a sequence of integer vertex ids."""
        vertices = _checked_vertices(vertices)
        loops = [list(ids) for ids in cell_vertex_ids]
        for ci, ids in enumerate(loops):
            bad = [v for v in ids if isinstance(v, (bool, np.bool_))
                   or not isinstance(v, (int, np.integer))
                   or not 0 <= v < len(vertices)]
            if bad:
                raise MeshError(f"cell {ci} has the invalid vertex id {bad[0]!r}")
        ptr = np.cumsum([0] + [len(ids) for ids in loops])
        self._build(vertices, ptr, np.fromiter(
            itertools.chain.from_iterable(loops), np.intp, ptr[-1]))

    @classmethod
    def _from_csr(cls, vertices, ptr, ids):
        """Mesh of the generators' loops ``ids[ptr[c]:ptr[c + 1]]``."""
        mesh = cls.__new__(cls)
        mesh._build(_checked_vertices(vertices), ptr, ids)
        return mesh

    def _build(self, vertices, ptr, ids):
        sizes = np.diff(ptr)
        nc, nv = len(sizes), len(vertices)
        cell_of = np.repeat(np.arange(nc), sizes)
        _first(sizes < 3, "cell {} has fewer than 3 vertices")
        _first((ids < 0) | (ids >= nv), "cell {} references an unknown vertex",
               cell_of)
        area, diam = np.empty(nc), np.empty(nc)
        centroid = np.empty((nc, 2))
        repeats, touching = np.empty(nc, dtype=bool), np.empty(nc, dtype=bool)
        with np.errstate(all="ignore"):
            for at, idx in loop_groups(ptr):
                loops = np.sort(ids[idx], axis=1)
                repeats[at] = (loops[:, 1:] == loops[:, :-1]).any(axis=1)
                polys = vertices[ids[idx]]
                area[at], centroid[at] = _areas_centroids(polys)
                diam[at] = _diameters(polys)
                touching[at] = _touching(polys)
        _first(repeats, "cell {} repeats a vertex")
        _first(~np.isfinite(np.column_stack((area, diam, centroid))).all(1),
               "cell {} geometry overflows")
        _first(area <= 0.0, "cell {} vertex loop is not counter-clockwise")
        _first(touching, "cell {} vertex loop self-intersects")

        nxt = ids[_successors(ptr)]
        edge = vertices[nxt] - vertices[ids]
        length = np.hypot(edge[:, 0], edge[:, 1])
        _first(length <= 0.0, "cell {} has a zero-length edge", cell_of)
        outward = np.stack((edge[:, 1], -edge[:, 0]), axis=1) / length[:, None]
        resid = np.add.reduceat(length[:, None] * outward, ptr[:-1]) \
            if nc else np.zeros((0, 2))
        _first(np.abs(resid).max(axis=1) > 1e-9 * np.maximum(1.0, diam),
               "cell {} violates the closed-polygon identity")
        # one face per vertex-id pair, numbered by first traversal
        _, first, inverse, counts = np.unique(
            np.minimum(ids, nxt) * nv + np.maximum(ids, nxt),
            return_index=True, return_inverse=True, return_counts=True)
        _first(counts[inverse] > 2, "cell {} shares a face with two others",
               cell_of)
        order = np.argsort(first)
        face = np.argsort(order)[inverse]
        creator = first[order]               # the loop edge that makes each face
        sign = np.where(creator[face] == np.arange(len(ids)), 1.0, -1.0)
        # the second cell of a face must run it opposite to the first
        _first((sign < 0) & (ids != nxt[creator[face]]),
               "cell {} runs a shared face the same way as its neighbour",
               cell_of)

        self.vertices = vertices
        self.cell_ptr, self.cell_vertex_ids = ptr, ids
        self.cell_face_ids, self.cell_face_signs = face, sign
        self.cell_areas, self.cell_centroids = area, centroid
        self.cell_diameters = diam
        self.face_vertex_ids = np.stack((ids[creator], nxt[creator]), axis=1)
        self.face_points = vertices[self.face_vertex_ids]
        self.face_lengths = length[creator]
        self.face_midpoints = 0.5 * (self.face_points[:, 0]
                                     + self.face_points[:, 1])
        self.face_normals = outward[creator]
        self.face_cells = np.full((len(creator), 2), -1, dtype=np.intp)
        self.face_cells[:, 0] = cell_of[creator]
        self.face_cells[face[sign < 0], 1] = cell_of[sign < 0]
        self.boundary_faces = np.flatnonzero(self.face_cells[:, 1] < 0)
        for a in vars(self).values():
            read_only(a)

    @property
    def n_cells(self):
        return len(self.cell_ptr) - 1

    @property
    def n_faces(self):
        return len(self.face_lengths)

    @property
    def n_vertices(self):
        return len(self.vertices)

    def polygon(self, c):
        """Vertex coordinates ``(m, 2)`` of the loop of cell c."""
        return self.vertices[
            self.cell_vertex_ids[self.cell_ptr[c]:self.cell_ptr[c + 1]]]

    @functools.cached_property
    def faces(self):
        return [Face(tuple(v), p, float(h), mid, n, tuple(c for c in cc if c >= 0))
                for v, p, h, mid, n, cc in zip(
                    self.face_vertex_ids.tolist(), self.face_points,
                    self.face_lengths, self.face_midpoints, self.face_normals,
                    self.face_cells.tolist())]

    @functools.cached_property
    def cells(self):
        ptr, ids = self.cell_ptr.tolist(), self.cell_face_ids
        normals = read_only(self.cell_face_signs[:, None] * self.face_normals[ids])
        return [Cell(tuple(self.cell_vertex_ids[a:b].tolist()),
                     read_only(self.polygon(c)), self.cell_centroids[c],
                     float(self.cell_diameters[c]), float(self.cell_areas[c]),
                     tuple(ids[a:b].tolist()), tuple(normals[a:b]),
                     tuple(self.cell_face_signs[a:b].tolist()))
                for c, (a, b) in enumerate(zip(ptr, ptr[1:]))]

    def max_diameter(self):
        """Mesh size h = max over cells of h_T."""
        return float(self.cell_diameters.max())

    def total_measure(self):
        return float(sum(self.cell_areas.tolist()))


def make_cartesian(n):
    """Uniform n-by-n grid of axis-aligned square cells covering (0, 1)^2."""
    if n < 1:
        raise MeshGenerationError("n must be >= 1")
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    v0 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    cells = np.stack((v0, v0 + 1, v0 + n + 2, v0 + n + 1), axis=1)
    return Mesh._from_csr(vertices, np.arange(n * n + 1) * 4, cells.ravel())


def _clipped_voronoi(points):
    """Voronoi cells of points in (0,1)^2, clipped exactly to the square.

    Reflecting the seeds across all four walls makes each original cell's
    clipping boundary a genuine Voronoi bisector, so the diagram of the 5N
    points tiles the square exactly.  Returns the diagram's vertices and the
    CSR table ``(ptr, ids)`` of the seeds' regions, each sorted by angle
    about its seed.
    """
    refl = []
    for dim, wall in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)):
        r = points.copy()
        r[:, dim] = 2.0 * wall - r[:, dim]
        refl.append(r)
    vor = Voronoi(np.vstack([points] + refl))
    regions = [vor.regions[r] for r in vor.point_region[:len(points)]]
    ptr = np.cumsum([0] + [len(r) for r in regions])
    ids = np.fromiter(itertools.chain.from_iterable(regions), np.intp, ptr[-1])
    bad = np.diff(ptr) < 3
    bad[np.repeat(np.arange(len(points)), np.diff(ptr))[ids < 0]] = True
    if bad.any():
        raise MeshGenerationError(
            f"degenerate Voronoi cell for seed {np.argmax(bad)}")
    for at, idx in loop_groups(ptr):
        verts = vor.vertices[ids[idx]]
        ang = np.arctan2(verts[..., 1] - points[at, 1, None],
                         verts[..., 0] - points[at, 0, None])
        ids[idx] = np.take_along_axis(ids[idx], np.argsort(ang, axis=1), axis=1)
    return vor.vertices, ptr, ids


def _snap_to_walls(vertices, tol=1e-9):
    v = vertices.copy()
    for wall in (0.0, 1.0):
        v[np.abs(v[:, 0] - wall) < tol, 0] = wall
        v[np.abs(v[:, 1] - wall) < tol, 1] = wall
    return v


def _merge_endpoint(pa, pb):
    # Collapse target: midpoint, snapped back onto any wall either end touches.
    p = 0.5 * (pa + pb)
    for d in (0, 1):
        for wall in (0.0, 1.0):
            if pa[d] == wall or pb[d] == wall:
                p[d] = wall
    return p


def _collapse_short_edges(vertices, ptr, ids, rel_tol=0.02, max_rounds=20):
    """Merge edge endpoints wherever h_F < rel_tol * h_T of an adjacent cell.

    Near-cocircular seeds produce arbitrarily short Voronoi edges; collapsing
    them globally (every loop sees the merged vertex) keeps the cells a
    conforming partition while enforcing the shape-regularity surrogate.
    Each round visits the short edges in order of first traversal and skips
    those at a vertex merged before, so all its lengths are taken at its start.
    """
    for _ in range(max_rounds):
        diam = np.empty(len(ptr) - 1)
        for at, idx in loop_groups(ptr):
            diam[at] = _diameters(vertices[ids[idx]])
        nxt = ids[_successors(ptr)]
        lo, hi = np.minimum(ids, nxt), np.maximum(ids, nxt)
        _, first, inverse = np.unique(lo * len(vertices) + hi,
                                      return_index=True, return_inverse=True)
        scale = np.zeros(len(first))
        np.maximum.at(scale, inverse, np.repeat(diam, np.diff(ptr)))
        a, b = lo[first], hi[first]
        d = vertices[a] - vertices[b]
        short = np.flatnonzero(np.hypot(d[:, 0], d[:, 1]) < rel_tol * scale)
        remap = np.arange(len(vertices))
        touched = np.zeros(len(vertices), dtype=bool)
        for k in short[np.argsort(first[short])]:
            if not (touched[a[k]] or touched[b[k]]):
                remap[b[k]] = a[k]
                vertices[a[k]] = _merge_endpoint(vertices[a[k]], vertices[b[k]])
                touched[[a[k], b[k]]] = True
        if not touched.any():
            break
        ptr, ids = _drop_repeats(ptr, remap[ids])
        if (np.diff(ptr) < 3).any():
            raise MeshGenerationError("short-edge collapse degenerated a cell")
    return vertices, ptr, ids


def make_voronoi(n_seeds, rng_seed=42, lloyd_iters=10):
    """Voronoi-like polygonal mesh of (0,1)^2 from Lloyd-relaxed jittered seeds.

    Deterministic for fixed (n_seeds, rng_seed, lloyd_iters): the jitter uses
    a seeded generator and the diagram construction has no randomness.
    """
    if n_seeds < 1:
        raise MeshGenerationError("n_seeds must be >= 1")
    if lloyd_iters < 0:
        raise MeshGenerationError("lloyd_iters must be >= 0")
    rng = np.random.default_rng(rng_seed)
    m = math.ceil(math.sqrt(n_seeds))
    centers = (np.arange(m) + 0.5) / m
    gx, gy = np.meshgrid(centers, centers, indexing="xy")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    jitter = rng.uniform(-0.25 / m, 0.25 / m, size=grid.shape)
    seeds = grid + jitter
    if len(seeds) > n_seeds:
        keep = np.sort(rng.choice(len(seeds), size=n_seeds, replace=False))
        seeds = seeds[keep]

    if n_seeds == 1:
        return make_cartesian(1)

    for _ in range(lloyd_iters):
        vor_vertices, ptr, regions = _clipped_voronoi(seeds)
        seeds = np.empty((n_seeds, 2))
        for at, idx in loop_groups(ptr):
            seeds[at] = _areas_centroids(vor_vertices[regions[idx]])[1]

    vor_vertices, ptr, regions = _clipped_voronoi(seeds)
    used, loops = np.unique(regions, return_inverse=True)
    coords = _snap_to_walls(vor_vertices[used])
    # Merge vertices that coincide after snapping (corner duplicates),
    # numbered by first occurrence: unique(return_index) sorts stably.
    _, first, inverse = np.unique(np.round(coords, 10) + 0.0, axis=0,
                                  return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    ptr, loops = _drop_repeats(ptr, rank[inverse][loops])
    if (np.diff(ptr) < 3).any():
        raise MeshGenerationError(
            f"degenerate Voronoi cell for seed {np.argmax(np.diff(ptr) < 3)}")
    mesh = Mesh._from_csr(*_collapse_short_edges(coords[np.sort(first)], ptr, loops))
    if (mesh.cell_areas <= 1e-12).any():
        raise MeshGenerationError(
            f"zero-area Voronoi cell for seed {np.argmax(mesh.cell_areas <= 1e-12)}")
    return mesh


# ---------------------------------------------------------------------------
# Text format:  header line `poly-mesh 1`, a vertex table, a cell table.
# `#`-prefixed comment lines may appear anywhere; no trailing data.
# ---------------------------------------------------------------------------

def write_mesh(mesh):
    """Serialize a mesh to the line-oriented text format."""
    lines = ["poly-mesh 1", f"vertices {mesh.n_vertices}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.vertices.tolist()]
    lines.append(f"cells {mesh.n_cells}")
    ids, ptr = mesh.cell_vertex_ids.tolist(), mesh.cell_ptr.tolist()
    lines += [" ".join(map(str, [b - a, *ids[a:b]])) for a, b in zip(ptr, ptr[1:])]
    return "\n".join(lines) + "\n"


def read_mesh(text):
    """Parse the text format; raises MeshFormatError with a line number."""
    numbered = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
    rows = [(n, line) for n, line in numbered if line and not line.startswith("#")]
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(rows):
            last = rows[-1][0] if rows else 0
            raise MeshFormatError(f"unexpected end of document, expected {what}", last)
        n, line = rows[pos]
        pos += 1
        return n, line

    n, line = take("header")
    if line != "poly-mesh 1":
        raise MeshFormatError("expected header 'poly-mesh 1'", n)

    n, line = take("vertex count")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "vertices" or not parts[1].isdecimal():
        raise MeshFormatError("expected 'vertices <count>'", n)
    n_vertices = int(parts[1])
    vertices = []  # not preallocated: the count is not yet backed by lines
    for i in range(n_vertices):
        n, line = take("vertex coordinates")
        parts = line.split()
        if len(parts) != 2:
            raise MeshFormatError("expected '<x> <y>'", n)
        try:
            xy = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise MeshFormatError(f"invalid coordinate {parts!r}", n) from None
        if not np.isfinite(xy).all():
            raise MeshFormatError(f"non-finite coordinate {parts!r}", n)
        vertices.append(xy)

    n, line = take("cell count")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "cells" or not parts[1].isdecimal():
        raise MeshFormatError("expected 'cells <count>'", n)
    n_cells = int(parts[1])
    cells = []
    for i in range(n_cells):
        n, line = take("cell vertex list")
        parts = line.split()
        try:
            ids = [int(p) for p in parts]
        except ValueError:
            raise MeshFormatError(f"invalid cell entry {line!r}", n) from None
        if len(ids) < 4 or ids[0] != len(ids) - 1:
            raise MeshFormatError("expected '<n_vertices> <id_1> ... <id_n>'", n)
        for v in ids[1:]:
            if not (0 <= v < n_vertices):
                raise MeshFormatError(f"unknown vertex id {v}", n)
        cells.append(ids[1:])
    if pos != len(rows):
        raise MeshFormatError("trailing data after cell table", rows[pos][0])
    return Mesh(np.reshape(vertices, (n_vertices, 2)), cells)
