"""Polygonal meshes on the unit square: generators, geometry, text format.

A ``Mesh`` is a set of stacked arrays.  The counter-clockwise vertex loops of
the cells form one CSR table: cell c's loop is ``cell_vertex_ids[cell_ptr[c]:
cell_ptr[c + 1]]`` and its local face k is the edge from loop vertex k to
k + 1.  ``cell_face_ids`` and ``cell_face_signs`` run parallel to that table.
The face table holds, per face, the endpoint ids ``face_vertex_ids`` and
coordinates ``face_points``, ``face_lengths``, ``face_normals`` and
``face_cells`` (the second cell is -1 on the boundary, listed in
``boundary_faces``); ``sign * face_normals[face]`` is a cell's own outward
normal.  ``cell_areas``, ``cell_centroids`` and ``cell_diameters``
hold the cell geometry, computed per group of equal vertex count with each
loop summed at its own length, so each cell gets the bits of its polygon
summed alone.  Faces are derived by matching vertex-id pairs, never by
floating-point comparison, and are numbered by first appearance in the (cell,
local edge) traversal, keeping the orientation of that first cell.
There are no per-cell or per-face objects: every reader slices the arrays.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np


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

    def max_diameter(self):
        """Mesh size h = max over cells of h_T."""
        return float(self.cell_diameters.max())


def make_cartesian(n):
    """Uniform n-by-n grid of axis-aligned square cells covering (0, 1)^2."""
    if not (is_count(n) and n >= 1):
        raise MeshGenerationError(f"n must be a positive integer, got {n!r}")
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    v0 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    cells = np.stack((v0, v0 + 1, v0 + n + 2, v0 + n + 1), axis=1)
    return Mesh._from_csr(vertices, np.arange(n * n + 1) * 4, cells.ravel())


def _circumcenters(tri):
    """Circumcenters of triangles ``(T, 3, 2)``; a flat one's are not finite."""
    a = tri[:, 0]
    b, c = tri[:, 1] - a, tri[:, 2] - a
    bb, cc = (b * b).sum(1), (c * c).sum(1)
    d = 2.0 * twice_area(a, tri[:, 1], tri[:, 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        return a + np.stack((c[:, 1] * bb - b[:, 1] * cc,
                             b[:, 0] * cc - c[:, 0] * bb), axis=1) / d[:, None]


def _delaunay_stars(points):
    """Delaunay triangles at each seed of points in (0,1)^2 and their mirrors.

    The seeds within delta of a wall are mirrored across it, and the sites
    (seeds, then mirrors) are triangulated by Qhull with joggled input
    (``QJ``): every facet comes out a triangle and no cocircular facets are
    merged.  A cocircular quadruple (for instance two seeds and their
    mirrors) then gets one of its two diagonals, and both of its triangles
    have the same circumcenter to round-off, so the choice moves no cell.
    The circumcenters are computed from the sites themselves, not the
    joggled points.  No mirror is nearer to a point of the square than its
    own seed, so a seed's Voronoi region, cut to the square, is always its
    clipped cell; when every seed's region is bounded and its circumcenters
    lie in the square (to 1e-9), the regions are the clipped cells.
    Otherwise delta is doubled, from 2/sqrt(N), and the sites are
    triangulated again; once delta >= 1 every seed is mirrored across every
    wall and the 5N points tile the square exactly.

    Returns the circumcenters and, per (seed, triangle at that seed) pair,
    the arrays ``seed``, ``simplex`` and ``following``: the triangle across
    the triangle's next edge at the seed in counter-clockwise order, so the
    circumcenters of ``simplex`` then ``following`` run counter-clockwise
    along the seed's cell.  Raises ``MeshGenerationError`` for a seed whose
    region stays unbounded, has fewer than three triangles or a non-finite
    circumcenter (a flat triangle).
    """
    from scipy.spatial import Delaunay, QhullError

    n = len(points)
    delta = 2.0 / math.sqrt(n)
    while True:
        mirrors = []
        for dim, wall in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)):
            r = points[np.abs(points[:, dim] - wall) < delta]
            r[:, dim] = 2.0 * wall - r[:, dim]
            mirrors.append(r)
        sites = np.vstack([points] + mirrors)
        try:
            tri = Delaunay(sites, qhull_options="QJ")
        except QhullError:      # the seeds and their mirrors are collinear
            if delta >= 1.0:
                raise
            delta *= 2.0
            continue
        corners = sites[tri.simplices]
        centers = _circumcenters(corners)
        simplex, corner = np.nonzero(tri.simplices < n)
        seed = tri.simplices[simplex, corner]
        on_hull = np.zeros(len(sites), dtype=bool)
        on_hull[tri.convex_hull] = True
        unbounded = on_hull[:n]
        outside = ~((centers[simplex] >= -1e-9)
                    & (centers[simplex] <= 1.0 + 1e-9)).all(1)
        if delta >= 1.0 or not (unbounded.any() or outside.any()):
            break
        delta *= 2.0
    bad = (np.bincount(seed, minlength=n) < 3) | unbounded
    bad[seed[~np.isfinite(centers[simplex]).all(1)]] = True
    if bad.any():
        raise MeshGenerationError(
            f"degenerate Voronoi cell for seed {np.argmax(bad)}")
    # the next edge at corner i is the one to corner i + 2 on a
    # counter-clockwise triangle, to corner i + 1 on a clockwise one; the
    # neighbour across it is opposite the remaining corner
    ccw = twice_area(corners[:, 0], corners[:, 1], corners[:, 2]) > 0.0
    side = (corner + np.where(ccw[simplex], 1, 2)) % 3
    following = tri.neighbors[simplex, side]
    return centers, seed, simplex, following


def _clipped_voronoi(points):
    """Voronoi cells of points in (0,1)^2, clipped exactly to the square.

    Returns the circumcenters of ``_delaunay_stars`` and the CSR table
    ``(ptr, ids)`` of the seeds' cells, each sorted by angle about its seed.
    A cell whose seed meets a cocircular quadruple lists the circumcenters
    of the quadruple's triangles at the seed; whichever diagonal the joggle
    picked, they coincide to round-off, and ``make_voronoi`` merges them.
    """
    centers, seed, simplex, _ = _delaunay_stars(points)
    ang = np.arctan2(centers[simplex, 1] - points[seed, 1],
                     centers[simplex, 0] - points[seed, 0])
    order = np.lexsort((ang, seed))
    counts = np.bincount(seed, minlength=len(points))
    ptr = np.concatenate(([0], np.cumsum(counts)))
    return centers, ptr, simplex[order]


def _lloyd_round(points):
    """Centroids of the clipped Voronoi cells of points in (0,1)^2.

    Each cell is the fan of the triangles (p, c_T, c_N) about its seed p,
    one per Delaunay triangle T at p, where N follows T counter-clockwise
    about p (``_delaunay_stars``) and c are circumcenters.  The signed areas
    and first moments are summed per seed by ``np.bincount``, so no cell is
    sorted by angle; the fan triangles of coincident circumcenters have no
    area.
    """
    centers, seed, simplex, following = _delaunay_stars(points)
    p = points[seed]
    a, b = centers[simplex] - p, centers[following] - p
    w = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]       # twice the fan area
    n = len(points)
    moments = np.column_stack([np.bincount(seed, w * (a[:, d] + b[:, d]), n)
                               for d in (0, 1)])
    return points + moments / (3.0 * np.bincount(seed, w, n))[:, None]


def _snap_to_walls(vertices):
    v = vertices.copy()
    for wall in (0.0, 1.0):
        v[np.abs(v - wall) < 1e-9] = wall
    return v


def _merge_endpoint(pa, pb):
    # Collapse target: midpoint, snapped back onto any wall either end touches.
    p = 0.5 * (pa + pb)
    for d in (0, 1):
        for wall in (0.0, 1.0):
            if pa[d] == wall or pb[d] == wall:
                p[d] = wall
    return p


def _collapse_short_edges(vertices, ptr, ids):
    """Merge edge endpoints wherever h_F < 0.02 h_T of an adjacent cell.

    At most 20 rounds.  Near-cocircular seeds produce arbitrarily short
    Voronoi edges; collapsing them globally (every loop sees the merged
    vertex) keeps the cells a conforming partition while enforcing the
    shape-regularity surrogate.
    Each round visits the short edges in order of first traversal and skips
    those at a vertex merged before, so all its lengths are taken at its start.
    The merged-away endpoints are then dropped from the vertex table, and the
    vertices left keep their order.
    """
    for _ in range(20):
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
        short = np.flatnonzero(np.hypot(d[:, 0], d[:, 1]) < 0.02 * scale)
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
    used = np.zeros(len(vertices), dtype=bool)
    used[ids] = True
    return vertices[used], ptr, np.cumsum(used)[ids] - 1


def is_count(value):
    """True for a non-negative integer (numpy's too) that is not a bool."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Integral)
            and value >= 0)


def is_real(value):
    """True for a real number (numpy's too) that is not a bool."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _lloyd_seeds(n_seeds, rng_seed, lloyd_iters):
    """Jittered grid seeds after ``lloyd_iters`` moves to their cell centroids.

    Each move is one ``_lloyd_round``: the centroids come straight from the
    fan triangles of the Delaunay triangles at each seed, with no cell
    sorted by angle.
    """
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
    for _ in range(lloyd_iters):
        seeds = _lloyd_round(seeds)
    return seeds


def make_voronoi(n_seeds, rng_seed=42, lloyd_iters=10):
    """Voronoi-like polygonal mesh of (0,1)^2 from Lloyd-relaxed jittered seeds.

    Deterministic for fixed (n_seeds, rng_seed, lloyd_iters): the jitter uses
    a seeded generator, and Qhull seeds the generator of its joggle the same
    way for every triangulation, so earlier calls in the process change
    nothing.  The Lloyd rounds take centroids from the Delaunay fans
    (``_lloyd_round``); the cells come from ``_clipped_voronoi`` (Delaunay
    circumcenters of the seeds and their near-wall mirrors, widened until
    the cells close inside the square).  The joggle triangulates a
    cocircular tie either way, and both ways give the same circumcenter, so
    only the numbering of coincident circumcenters depends on it.  The
    cells' vertices are snapped onto the walls, merged where they coincide,
    and short edges are collapsed.
    """
    if not (is_count(n_seeds) and n_seeds >= 1):
        raise MeshGenerationError(
            f"n_seeds must be a positive integer, got {n_seeds!r}")
    if not is_count(lloyd_iters):
        raise MeshGenerationError(
            f"lloyd_iters must be a non-negative integer, got {lloyd_iters!r}")
    if not is_count(rng_seed):
        raise MeshGenerationError(
            f"rng_seed must be a non-negative integer, got {rng_seed!r}")
    if n_seeds == 1:
        return make_cartesian(1)

    seeds = _lloyd_seeds(n_seeds, rng_seed, lloyd_iters)
    vor_vertices, ptr, regions = _clipped_voronoi(seeds)
    used, loops = np.unique(regions, return_inverse=True)
    coords = _snap_to_walls(vor_vertices[used])
    # Merge vertices that coincide after snapping (corner duplicates and the
    # circumcenters of a cocircular quadruple's two triangles), numbered by
    # first occurrence: unique(return_index) sorts stably.
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
