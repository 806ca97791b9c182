import numpy as np
import pytest

from hho_control import (Mesh, MeshError, MeshFormatError, make_cartesian,
                         make_voronoi, read_mesh, write_mesh)
from helpers import cached_voronoi


def test_cartesian_counts():
    m = make_cartesian(4)
    assert (m.n_cells, m.n_faces, m.n_vertices) == (16, 40, 25)


def test_cartesian_single_cell():
    m = make_cartesian(1)
    assert m.n_cells == 1
    assert len(m.boundary_face_ids) == 4


@pytest.mark.parametrize("n,cells", [(4, 16), (8, 64), (16, 256), (32, 1024),
                                     (64, 4096)])
def test_cartesian_element_counts(n, cells):
    assert make_cartesian(n).n_cells == cells


def test_cartesian_cell_diameter():
    m = make_cartesian(8)
    assert all(abs(c.diameter - np.sqrt(2) / 8) < 1e-14 for c in m.cells)


@pytest.mark.parametrize("mesh_builder", [
    lambda: make_cartesian(4),
    lambda: cached_voronoi(16),
    lambda: cached_voronoi(64),
])
def test_geometric_invariants(mesh_builder):
    m = mesh_builder()
    assert abs(m.total_measure() - 1.0) < 1e-12
    for cell in m.cells:
        resid = np.zeros(2)
        for fid, normal in zip(cell.face_ids, cell.outward_normals):
            assert abs(np.hypot(*normal) - 1.0) < 1e-12
            resid += m.faces[fid].measure * normal
        assert np.abs(resid).max() < 1e-12
        assert cell.diameter > 0 and cell.measure > 0


@pytest.mark.parametrize("seeds", [16, 64, 256, 1024])
def test_interior_normals_opposite_and_shape_surrogate(seeds):
    m = cached_voronoi(seeds)
    for i, face in enumerate(m.faces):
        assert 1 <= len(face.cells) <= 2
        if len(face.cells) == 2:
            normals = []
            for ci in face.cells:
                j = m.cells[ci].face_ids.index(i)
                normals.append(m.cells[ci].outward_normals[j])
            assert np.abs(normals[0] + normals[1]).max() < 1e-12
    for cell in m.cells:
        for fid in cell.face_ids:
            assert m.faces[fid].measure >= 0.01 * cell.diameter


def test_voronoi_determinism():
    a = write_mesh(make_voronoi(16, rng_seed=123, lloyd_iters=4))
    b = write_mesh(make_voronoi(16, rng_seed=123, lloyd_iters=4))
    assert a == b


def test_voronoi_partition_of_unity():
    m = cached_voronoi(64)
    assert abs(m.total_measure() - 1.0) < 1e-12


def test_lloyd_relaxation_improves_aspect():
    def worst_aspect(mesh):
        return max(c.diameter ** 2 / c.measure for c in mesh.cells)

    rough = make_voronoi(16, rng_seed=42, lloyd_iters=0)
    relaxed = make_voronoi(16, rng_seed=42, lloyd_iters=100)
    assert worst_aspect(relaxed) < worst_aspect(rough)


def test_roundtrip_cartesian():
    m = make_cartesian(2)
    m2 = read_mesh(write_mesh(m))
    assert m2.n_cells == m.n_cells and m2.n_faces == m.n_faces
    assert [c.vertex_ids for c in m2.cells] == [c.vertex_ids for c in m.cells]
    assert np.array_equal(m2.vertices, m.vertices)


def test_roundtrip_voronoi_coordinates():
    m = cached_voronoi(16)
    m2 = read_mesh(write_mesh(m))
    assert np.array_equal(m2.vertices, m.vertices)  # 17 significant digits


def test_single_triangle():
    text = "poly-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n3 0 1 2\n"
    m = read_mesh(text)
    assert m.n_cells == 1
    assert len(m.boundary_face_ids) == 3


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


def test_mesh_rejects_nonfinite_vertices():
    vertices = [[0.0, 0.0], [1.0, 0.0], [1.0, np.inf], [0.0, 1.0]]
    with pytest.raises(MeshError, match="finite"):
        Mesh(vertices, [[0, 1, 2, 3]])
