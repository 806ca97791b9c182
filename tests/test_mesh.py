import numpy as np
import pytest

from hho_control import (Mesh, MeshError, MeshFormatError,
                         MeshGenerationError, make_cartesian, make_voronoi,
                         read_mesh, write_mesh)
from helpers import (cached_voronoi, cell_face_ids, cell_normals, cell_polygon,
                     clipped_voronoi_mismatch)


def test_cartesian_counts():
    m = make_cartesian(4)
    assert (m.n_cells, m.n_faces, m.n_vertices) == (16, 40, 25)


def test_cartesian_single_cell():
    m = make_cartesian(1)
    assert m.n_cells == 1
    assert len(m.boundary_faces) == 4


@pytest.mark.parametrize("n,cells", [(4, 16), (8, 64), (16, 256), (32, 1024),
                                     (64, 4096)])
def test_cartesian_element_counts(n, cells):
    assert make_cartesian(n).n_cells == cells


def test_cartesian_cell_diameter():
    m = make_cartesian(8)
    assert np.abs(m.cell_diameters - np.sqrt(2) / 8).max() < 1e-14


@pytest.mark.parametrize("mesh_builder", [
    lambda: make_cartesian(4),
    lambda: cached_voronoi(16),
    lambda: cached_voronoi(64),
])
def test_geometric_invariants(mesh_builder):
    m = mesh_builder()
    assert abs(m.cell_areas.sum() - 1.0) < 1e-12
    for c in range(m.n_cells):
        resid = np.zeros(2)
        for fid, normal in zip(cell_face_ids(m, c), cell_normals(m, c)):
            assert abs(np.hypot(*normal) - 1.0) < 1e-12
            resid += m.face_lengths[fid] * normal
        assert np.abs(resid).max() < 1e-12
        assert m.cell_diameters[c] > 0 and m.cell_areas[c] > 0


@pytest.mark.parametrize("seeds", [16, 64, 256, 1024])
def test_interior_normals_opposite_and_shape_surrogate(seeds):
    m = cached_voronoi(seeds)
    assert (m.face_cells[:, 0] >= 0).all()
    for i, cells in enumerate(m.face_cells):
        if cells[1] >= 0:
            normals = [cell_normals(m, c)[cell_face_ids(m, c).index(i)]
                       for c in cells]
            assert np.abs(normals[0] + normals[1]).max() < 1e-12
    for c in range(m.n_cells):
        for fid in cell_face_ids(m, c):
            assert m.face_lengths[fid] >= 0.01 * m.cell_diameters[c]


@pytest.mark.parametrize("seeds, rng_seed", [(64, 1), (256, 42), (1024, 42)])
def test_every_voronoi_vertex_is_used_by_a_cell(seeds, rng_seed):
    # these meshes collapse short edges; the merged-away endpoints must not
    # stay in the vertex table, where write_mesh would write them
    m = make_voronoi(seeds, rng_seed=rng_seed)
    assert np.array_equal(np.unique(m.cell_vertex_ids), np.arange(m.n_vertices))


def test_voronoi_determinism():
    from scipy.spatial import Delaunay

    a = write_mesh(make_voronoi(16, rng_seed=123, lloyd_iters=4))
    b = write_mesh(make_voronoi(16, rng_seed=123, lloyd_iters=4))
    c = write_mesh(make_voronoi(16, rng_seed=np.int64(123), lloyd_iters=4))
    # Qhull's joggle must not carry state from unrelated triangulations
    for k in range(3):
        Delaunay(np.random.default_rng(k).uniform(size=(40 + k, 2)),
                 qhull_options="QJ")
    d = write_mesh(make_voronoi(16, rng_seed=123, lloyd_iters=4))
    assert a == b == c == d


@pytest.mark.parametrize("seed", [-3, True, 1.5, None])
def test_voronoi_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(MeshGenerationError, match="rng_seed"):
        make_voronoi(16, rng_seed=seed)


@pytest.mark.parametrize("name, build", [
    ("n_seeds", lambda v: make_voronoi(v)),
    ("lloyd_iters", lambda v: make_voronoi(16, lloyd_iters=v)),
    ("n", lambda v: make_cartesian(v)),
])
@pytest.mark.parametrize("value", [True, False, 2.5, 16.0, "16", None, -1])
def test_generator_counts_must_be_integers(name, build, value):
    with pytest.raises(MeshGenerationError, match=name):
        build(value)


def test_voronoi_partition_of_unity():
    m = cached_voronoi(64)
    assert abs(m.cell_areas.sum() - 1.0) < 1e-12


def test_lloyd_relaxation_improves_aspect():
    def worst_aspect(mesh):
        return (mesh.cell_diameters ** 2 / mesh.cell_areas).max()

    rough = make_voronoi(16, rng_seed=42, lloyd_iters=0)
    relaxed = make_voronoi(16, rng_seed=42, lloyd_iters=100)
    assert worst_aspect(relaxed) < worst_aspect(rough)


def far_seed_owns_the_left_wall():
    """25 seeds: 24 crowd x in [0.9, 0.99] and one at (0.6, 0.5).

    The lone seed's cell reaches the wall x = 0 from 0.6 away, beyond the
    first mirror distance 2/sqrt(25) = 0.4, so its first region is unbounded.
    """
    rng = np.random.default_rng(0)
    crowd = np.column_stack((rng.uniform(0.9, 0.99, 24),
                             rng.uniform(0.01, 0.99, 24)))
    return np.vstack(([[0.6, 0.5]], crowd))


def diagonal_seeds():
    """100 collinear seeds on the diagonal, 0.45 from the walls or more.

    No seed is within the first mirror distances 0.2 and 0.4 of a wall, so
    the seeds alone are flat and Qhull rejects them.
    """
    t = np.linspace(0.45, 0.55, 100)
    return np.column_stack((t, t))


@pytest.mark.parametrize("seeds, builds", [(far_seed_owns_the_left_wall, 2),
                                           (diagonal_seeds, 3)])
def test_clipped_cells_widen_the_mirror_band_until_they_close(
        seeds, builds, monkeypatch):
    import scipy.spatial

    calls = []

    def counted(sites, **options):
        calls.append(len(sites))
        return delaunay(sites, **options)

    delaunay = scipy.spatial.Delaunay
    monkeypatch.setattr(scipy.spatial, "Delaunay", counted)
    assert clipped_voronoi_mismatch(seeds()) <= 1e-12
    assert len(calls) == builds


def test_roundtrip_cartesian():
    m = make_cartesian(2)
    m2 = read_mesh(write_mesh(m))
    assert m2.n_cells == m.n_cells and m2.n_faces == m.n_faces
    assert np.array_equal(m2.cell_ptr, m.cell_ptr)
    assert np.array_equal(m2.cell_vertex_ids, m.cell_vertex_ids)
    assert np.array_equal(m2.vertices, m.vertices)


def test_roundtrip_voronoi_coordinates():
    m = cached_voronoi(16)
    m2 = read_mesh(write_mesh(m))
    assert np.array_equal(m2.vertices, m.vertices)  # 17 significant digits


def test_single_triangle():
    text = "poly-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n3 0 1 2\n"
    m = read_mesh(text)
    assert m.n_cells == 1
    assert len(m.boundary_faces) == 3


def test_comments_allowed_anywhere():
    text = ("# header comment\npoly-mesh 1\nvertices 3\n0 0\n# mid comment\n"
            "1 0\n0 1\ncells 1\n3 0 1 2\n# trailing comment\n")
    assert read_mesh(text).n_cells == 1


def test_unknown_vertex_id_is_parse_error():
    text = "poly-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n3 0 1 7\n"
    with pytest.raises(MeshFormatError, match="unknown vertex id 7"):
        read_mesh(text)


def test_non_ccw_cell_is_validation_error():
    text = "poly-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n3 0 2 1\n"
    with pytest.raises(MeshError, match="counter-clockwise"):
        read_mesh(text)


def test_malformed_header_reports_line():
    with pytest.raises(MeshFormatError, match="line 1"):
        read_mesh("poly-mesh 2\nvertices 0\ncells 0\n")


def test_trailing_data_rejected():
    text = "poly-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n3 0 1 2\nextra\n"
    with pytest.raises(MeshFormatError, match="trailing"):
        read_mesh(text)


def test_bad_coordinate_reports_line():
    text = "poly-mesh 1\nvertices 1\n0 zero\ncells 0\n"
    with pytest.raises(MeshFormatError, match="line 3"):
        read_mesh(text)


def test_nonfinite_coordinate_reports_line():
    text = "poly-mesh 1\nvertices 3\n0 0\n1 nan\n0 1\ncells 1\n3 0 1 2\n"
    with pytest.raises(MeshFormatError, match="line 4: non-finite"):
        read_mesh(text)


@pytest.mark.parametrize("vertices", [[0.0, 1.0, 2.0], np.zeros((3, 3)),
                                      np.zeros((1, 3, 2))])
def test_mesh_rejects_vertices_that_are_not_n_by_2(vertices):
    with pytest.raises(MeshError, match=r"\(n, 2\) array"):
        Mesh(vertices, [[0, 1, 2]])


@pytest.mark.parametrize("cell", ["2 0 1", "3 0 1", "4 0 1 2", "3 0 1 2 0"])
def test_malformed_cell_line_reports_line(cell):
    # too few vertices, or a count that does not match the ids that follow
    text = f"poly-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n{cell}\n"
    with pytest.raises(MeshFormatError,
                       match="line 7: expected '<n_vertices> <id_1>"):
        read_mesh(text)


def test_mesh_rejects_nonfinite_vertices():
    vertices = [[0.0, 0.0], [1.0, 0.0], [1.0, np.inf], [0.0, 1.0]]
    with pytest.raises(MeshError, match="finite"):
        Mesh(vertices, [[0, 1, 2, 3]])


@pytest.mark.parametrize("loop", [
    [(0, 0), (1, 0), (2, 0), (2, 1), (1, 0), (0, 1)],   # pinched at (1, 0)
    [(0, 0), (2, 0), (2, 2), (1, 0), (0, 2)],           # vertex 3 on edge 0-1
    [(0, 0), (2, 0), (2, 2), (2, 1)],                   # folds back inside
    [(0, 0), (2, 0), (2, 1), (2, 3), (2, 0.5), (0, 2)],  # folds back past
    [(0, 0), (4, 0), (4, 4), (2, -1), (0, 4)],          # proper crossing
], ids=["pinched", "t-touch", "fold-inside", "fold-past", "crossing"])
def test_self_touching_loop_is_rejected(loop):
    with pytest.raises(MeshError, match="self-intersects"):
        Mesh(loop, [list(range(len(loop)))])


@pytest.mark.parametrize("vertices, cells", [
    ([(0, 0), (1, 0), (0, 1)], [[0, 1, 2], [1, 2, 0]]),           # same loop twice
    ([(0, 0), (1, 0), (1, 1), (0, 1)], [[0, 1, 2, 3], [0, 1, 2]]),  # square + triangle
], ids=["same-loop", "square-triangle"])
def test_face_run_the_same_way_by_both_cells_is_rejected(vertices, cells):
    # overlapping cells: each shared edge runs the same way in both loops
    with pytest.raises(MeshError, match="same way"):
        Mesh(vertices, cells)


def test_straight_hanging_vertex_is_accepted():
    m = Mesh([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)], [[0, 1, 2, 3, 4]])
    assert (m.n_faces, m.cell_areas.sum()) == (5, 4.0)


@pytest.mark.parametrize("ids", [[0, 1.9, 2], [0, True, 2], [0, np.True_, 2],
                                 [0, np.float64(1.0), 2], [0, "1", 2],
                                 [0, 1, 2 ** 70]])
def test_mesh_rejects_invalid_vertex_ids(ids):
    with pytest.raises(MeshError, match="invalid vertex id"):
        Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [ids])


def test_face_table_and_cell_views_agree():
    # the face table against each cell's rows of the loop tables
    m = cached_voronoi(64)
    assert np.array_equal(m.face_points, m.vertices[m.face_vertex_ids])
    assert np.array_equal(m.boundary_faces, np.flatnonzero(m.face_cells[:, 1] < 0))
    for c in range(m.n_cells):
        poly = cell_polygon(m, c)
        for j, (fid, normal) in enumerate(zip(cell_face_ids(m, c),
                                              cell_normals(m, c))):
            assert c in m.face_cells[fid]
            ends = {tuple(poly[j]), tuple(poly[(j + 1) % len(poly)])}
            assert ends == {tuple(p) for p in m.face_points[fid]}
            edge = poly[(j + 1) % len(poly)] - poly[j]
            assert np.array_equal(normal, np.array([edge[1], -edge[0]])
                                  / np.hypot(*edge))


def test_mesh_arrays_and_views_are_read_only():
    m = make_cartesian(2)
    with pytest.raises(ValueError):
        m.face_normals[0, 0] = 1.0
    with pytest.raises(ValueError):
        m.cell_vertex_ids[m.cell_ptr[0]:m.cell_ptr[1]][0] = 1   # a slice view
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 1.0
