"""Polygonal meshes on the unit square: generators, geometry, text format.

Cells are stored as counter-clockwise vertex loops; faces (straight edges)
are derived by matching vertex-id pairs, so face identification never relies
on floating-point comparisons.  A face keeps the outward normal of the first
cell that created it; each cell records an orientation sign so that
``sign * face.normal`` is its own outward normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def next_vertices(polys):
    """Vertex loops ``(..., m, 2)`` shifted by one: row i holds vertex i + 1."""
    return np.concatenate((polys[..., 1:, :], polys[..., :1, :]), axis=-2)


def polygon_area(poly):
    """Signed area of a vertex loop (positive for CCW)."""
    x, y = poly[:, 0], poly[:, 1]
    nxt = next_vertices(poly)
    xn, yn = nxt[:, 0], nxt[:, 1]
    return 0.5 * float((x * yn - xn * y).sum())


def polygon_centroid(poly):
    x, y = poly[:, 0], poly[:, 1]
    nxt = next_vertices(poly)
    xn, yn = nxt[:, 0], nxt[:, 1]
    cross = x * yn - xn * y
    area = 0.5 * float(cross.sum())
    cx = float(((x + xn) * cross).sum()) / (6.0 * area)
    cy = float(((y + yn) * cross).sum()) / (6.0 * area)
    return np.array([cx, cy])


def polygon_diameter(poly):
    d = poly[:, None, :] - poly[None, :, :]
    return float(np.sqrt((d ** 2).sum(-1)).max())


def _segments_intersect(p, q, r, s):
    # Proper intersection of open segments pq and rs.
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    o1, o2 = orient(p, q, r), orient(p, q, s)
    o3, o4 = orient(r, s, p), orient(r, s, q)
    return (o1 * o2 < 0) and (o3 * o4 < 0)


def _is_simple(poly):
    m = len(poly)
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        for j in range(i + 1, m):
            if j == i or (j + 1) % m == i or (i + 1) % m == j:
                continue
            c, d = poly[j], poly[(j + 1) % m]
            if _segments_intersect(a, b, c, d):
                return False
    return True


@dataclass
class Face:
    """Straight mesh edge shared by one (boundary) or two (interior) cells."""

    endpoint_ids: tuple
    endpoints: np.ndarray          # (2, 2) coordinates
    measure: float                 # length h_F
    midpoint: np.ndarray
    normal: np.ndarray             # outward for cells[0]
    cells: list = field(default_factory=list)

    @property
    def is_boundary(self):
        return len(self.cells) == 1


@dataclass
class Cell:
    """Polygonal cell with derived geometric quantities."""

    vertex_ids: list
    polygon: np.ndarray            # (m, 2) CCW vertex coordinates
    centroid: np.ndarray
    diameter: float                # h_T, max pairwise vertex distance
    measure: float                 # area
    face_ids: list = field(default_factory=list)
    outward_normals: list = field(default_factory=list)
    face_signs: list = field(default_factory=list)

    @property
    def n_faces(self):
        return len(self.face_ids)


class Mesh:
    """Immutable polygonal mesh: vertices, cells, derived faces and adjacency."""

    def __init__(self, vertices, cell_vertex_ids):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        if not np.isfinite(vertices).all():
            raise MeshError("vertex coordinates must be finite")
        self.vertices = vertices
        self.cells = []
        self.faces = []
        self.cell_faces = []
        n_vert = len(vertices)

        face_lookup = {}
        for ci, ids in enumerate(cell_vertex_ids):
            ids = [int(v) for v in ids]
            if len(ids) < 3:
                raise MeshError(f"cell {ci} has fewer than 3 vertices")
            if len(set(ids)) != len(ids):
                raise MeshError(f"cell {ci} repeats a vertex")
            for v in ids:
                if not (0 <= v < n_vert):
                    raise MeshError(f"cell {ci} references unknown vertex id {v}")
            poly = vertices[ids]
            area = polygon_area(poly)
            if area <= 0.0:
                raise MeshError(f"cell {ci} vertex loop is not counter-clockwise")
            if not _is_simple(poly):
                raise MeshError(f"cell {ci} vertex loop self-intersects")

            cell = Cell(
                vertex_ids=ids,
                polygon=poly,
                centroid=polygon_centroid(poly),
                diameter=polygon_diameter(poly),
                measure=area,
            )
            if not np.isfinite([area, cell.diameter, *cell.centroid]).all():
                raise MeshError(f"cell {ci} geometry overflows")
            m = len(ids)
            entry = []
            for k in range(m):
                a, b = ids[k], ids[(k + 1) % m]
                key = (a, b) if a < b else (b, a)
                pa, pb = vertices[a], vertices[b]
                edge = pb - pa
                length = float(np.hypot(edge[0], edge[1]))
                if length <= 0.0:
                    raise MeshError(f"cell {ci} has a zero-length edge")
                outward = np.array([edge[1], -edge[0]]) / length
                if key in face_lookup:
                    fid = face_lookup[key]
                    face = self.faces[fid]
                    if len(face.cells) >= 2:
                        raise MeshError(f"face {key} shared by more than two cells")
                    face.cells.append(ci)
                    sign = -1.0
                else:
                    fid = len(self.faces)
                    face_lookup[key] = fid
                    self.faces.append(Face(
                        endpoint_ids=(a, b),
                        endpoints=np.array([pa, pb]),
                        measure=length,
                        midpoint=0.5 * (pa + pb),
                        normal=outward,
                        cells=[ci],
                    ))
                    sign = 1.0
                cell.face_ids.append(fid)
                cell.outward_normals.append(outward)
                cell.face_signs.append(sign)
                entry.append((fid, sign))
            self.cells.append(cell)
            self.cell_faces.append(entry)

        self.boundary_face_ids = frozenset(
            i for i, f in enumerate(self.faces) if f.is_boundary)
        self._validate()

    def _validate(self):
        for i, face in enumerate(self.faces):
            if not 1 <= len(face.cells) <= 2:
                raise MeshError(f"face {i} adjacent to {len(face.cells)} cells")
        for ci, cell in enumerate(self.cells):
            resid = np.zeros(2)
            for fid, n in zip(cell.face_ids, cell.outward_normals):
                resid += self.faces[fid].measure * n
            if np.abs(resid).max() > 1e-9 * max(1.0, cell.diameter):
                raise MeshError(f"cell {ci} violates the closed-polygon identity")

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def n_vertices(self):
        return len(self.vertices)

    def max_diameter(self):
        """Mesh size h = max over cells of h_T."""
        return max(c.diameter for c in self.cells)

    def total_measure(self):
        return float(sum(c.measure for c in self.cells))


def make_cartesian(n):
    """Uniform n-by-n grid of axis-aligned square cells covering (0, 1)^2."""
    if n < 1:
        raise MeshGenerationError("n must be >= 1")
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    cells = []
    for j in range(n):
        for i in range(n):
            v0 = j * (n + 1) + i
            cells.append([v0, v0 + 1, v0 + n + 2, v0 + n + 1])
    return Mesh(vertices, cells)


def _clipped_voronoi(points):
    """Voronoi cells of points in (0,1)^2, clipped exactly to the square.

    Reflecting the seeds across all four walls makes each original cell's
    clipping boundary a genuine Voronoi bisector, so the diagram of the 5N
    points tiles the square exactly.
    """
    refl = []
    for dim, wall in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)):
        r = points.copy()
        r[:, dim] = 2.0 * wall - r[:, dim]
        refl.append(r)
    vor = Voronoi(np.vstack([points] + refl))
    polys = []
    for i in range(len(points)):
        region = vor.regions[vor.point_region[i]]
        if len(region) < 3 or -1 in region:
            raise MeshGenerationError(f"degenerate Voronoi cell for seed {i}")
        verts = vor.vertices[region]
        ang = np.arctan2(verts[:, 1] - points[i, 1], verts[:, 0] - points[i, 0])
        order = np.argsort(ang)
        polys.append((np.asarray(region)[order], verts[order]))
    return vor.vertices, polys


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


def _collapse_short_edges(vertices, loops, rel_tol=0.02, max_rounds=20):
    """Merge edge endpoints wherever h_F < rel_tol * h_T of an adjacent cell.

    Near-cocircular seeds produce arbitrarily short Voronoi edges; collapsing
    them globally (every loop sees the merged vertex) keeps the cells a
    conforming partition while enforcing the shape-regularity surrogate.
    """
    vertices = np.asarray(vertices, dtype=float)
    for _ in range(max_rounds):
        diam = [polygon_diameter(vertices[loop]) for loop in loops]
        edge_scale = {}
        for ci, loop in enumerate(loops):
            for k in range(len(loop)):
                a, b = loop[k], loop[(k + 1) % len(loop)]
                key = (a, b) if a < b else (b, a)
                edge_scale[key] = max(edge_scale.get(key, 0.0), diam[ci])
        parent = {}
        touched = set()
        for (a, b), scale in edge_scale.items():
            if a in touched or b in touched:
                continue
            if np.hypot(*(vertices[a] - vertices[b])) < rel_tol * scale:
                parent[b] = a
                vertices[a] = _merge_endpoint(vertices[a], vertices[b])
                touched.update((a, b))
        if not parent:
            return vertices, loops
        new_loops = []
        for loop in loops:
            mapped = [parent.get(v, v) for v in loop]
            dedup = [v for k, v in enumerate(mapped)
                     if v != mapped[(k - 1) % len(mapped)]]
            if len(dedup) < 3:
                raise MeshGenerationError(
                    "short-edge collapse degenerated a cell")
            new_loops.append(dedup)
        loops = new_loops
    return vertices, loops


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
        _, polys = _clipped_voronoi(seeds)
        seeds = np.array([polygon_centroid(p) for _, p in polys])

    vor_vertices, polys = _clipped_voronoi(seeds)
    used = sorted({int(v) for region, _ in polys for v in region})
    coords = _snap_to_walls(vor_vertices[used])
    # Merge vertices that coincide after snapping (corner duplicates).
    remap, unique_coords, seen = {}, [], {}
    for local, g in enumerate(used):
        key = tuple(np.round(coords[local], 10))
        if key in seen:
            remap[g] = seen[key]
        else:
            seen[key] = len(unique_coords)
            remap[g] = len(unique_coords)
            unique_coords.append(coords[local])
    cells = []
    for i, (region, _) in enumerate(polys):
        loop = [remap[int(v)] for v in region]
        dedup = [v for k, v in enumerate(loop) if v != loop[(k - 1) % len(loop)]]
        if len(dedup) < 3:
            raise MeshGenerationError(f"degenerate Voronoi cell for seed {i}")
        cells.append(dedup)
    coords, cells = _collapse_short_edges(np.asarray(unique_coords), cells)
    mesh = Mesh(coords, cells)
    for i, cell in enumerate(mesh.cells):
        if cell.measure <= 1e-12:
            raise MeshGenerationError(f"zero-area Voronoi cell for seed {i}")
    return mesh


# ---------------------------------------------------------------------------
# Text format:  header line `poly-mesh 1`, a vertex table, a cell table.
# `#`-prefixed comment lines may appear anywhere; no trailing data.
# ---------------------------------------------------------------------------

def write_mesh(mesh):
    """Serialize a mesh to the line-oriented text format."""
    lines = ["poly-mesh 1", f"vertices {mesh.n_vertices}"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    lines.append(f"cells {mesh.n_cells}")
    for cell in mesh.cells:
        lines.append(str(len(cell.vertex_ids)) + " "
                     + " ".join(str(v) for v in cell.vertex_ids))
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
