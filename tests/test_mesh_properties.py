"""Property tests of the mesh text format and the Voronoi generator.

Skipped without hypothesis.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hho_control import (MeshError, MeshGenerationError,  # noqa: E402
                         make_cartesian, make_voronoi, read_mesh, write_mesh)
from helpers import (polygon_area, polygon_centroid,  # noqa: E402
                     polygon_diameter)

# derandomized so that the suite sees the same examples on every run
PROPERTY = dict(deadline=None, derandomize=True, database=None)


@settings(max_examples=30, **PROPERTY)
@given(st.one_of(
    st.builds(make_cartesian, st.integers(1, 6)),
    st.builds(make_voronoi, st.integers(2, 24),
              rng_seed=st.integers(0, 2 ** 32 - 1),
              lloyd_iters=st.integers(0, 3))))
def test_text_roundtrip(mesh):
    back = read_mesh(write_mesh(mesh))
    assert np.array_equal(back.vertices, mesh.vertices)
    assert [c.vertex_ids for c in back.cells] == [c.vertex_ids for c in mesh.cells]


ODD = st.one_of(st.floats().map(repr), st.sampled_from(
    ["1e308", "-1e308", "1e-320", "nan", "-inf", "99999999999", "\u00b2", "x",
     "#", "vertices", ""]))


@st.composite
def fuzzed_documents(draw):
    """Documents of small random polygons with odd tokens written into them."""
    n = draw(st.integers(3, 6))
    coords = [[str(draw(st.integers(-2, 3))) for _ in range(2)]
              for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        coords[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] = draw(ODD)
    cells = [draw(st.permutations(range(n)))[:draw(st.integers(3, n))]
             for _ in range(draw(st.integers(1, 2)))]
    lines = (["poly-mesh 1", f"vertices {n}"]
             + [" ".join(xy) for xy in coords] + [f"cells {len(cells)}"]
             + [" ".join(map(str, [len(c), *c])) for c in cells])
    for _ in range(draw(st.integers(0, 1))):
        i = draw(st.integers(0, len(lines) - 1))
        words = lines[i].split()
        words[draw(st.integers(0, len(words) - 1))] = draw(ODD)
        lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, **PROPERTY)
@given(st.one_of(fuzzed_documents(), st.text(max_size=80)))
def test_fuzzed_document_parses_to_finite_mesh_or_mesh_error(text):
    with np.errstate(all="ignore"):
        try:
            mesh = read_mesh(text)
        except MeshError:
            return
    assert np.isfinite(mesh.vertices).all()
    for cell in mesh.cells:
        assert np.isfinite([cell.measure, cell.diameter, *cell.centroid]).all()
        assert cell.measure > 0
    for face in mesh.faces:
        assert np.isfinite([face.measure, *face.normal, *face.midpoint]).all()


@settings(max_examples=40, **PROPERTY)
@given(st.integers(1, 80), st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
def test_voronoi_generation_gives_mesh_or_generation_error(n, seed, lloyd):
    try:
        mesh = make_voronoi(n, rng_seed=seed, lloyd_iters=lloyd)
    except MeshGenerationError:
        return
    assert mesh.n_cells == n
    assert abs(mesh.total_measure() - 1.0) < 1e-9
    assert all(cell.measure > 0 for cell in mesh.cells)
    assert np.isfinite(mesh.vertices).all()
    assert ((mesh.vertices >= 0.0) & (mesh.vertices <= 1.0)).all()


@settings(max_examples=25, **PROPERTY)
@given(st.integers(2, 80), st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
def test_cell_geometry_arrays_equal_per_polygon_sums(n, seed, lloyd):
    """The grouped geometry has the bits of each polygon summed on its own."""
    try:
        mesh = make_voronoi(n, rng_seed=seed, lloyd_iters=lloyd)
    except MeshGenerationError:
        return
    for c in range(mesh.n_cells):
        poly = mesh.polygon(c)
        assert mesh.cell_areas[c] == polygon_area(poly)
        assert np.array_equal(mesh.cell_centroids[c], polygon_centroid(poly))
        assert mesh.cell_diameters[c] == polygon_diameter(poly)
