"""Property tests of the mesh text format and the Voronoi generator.

Skipped without hypothesis; derandomized by the profile of ``conftest.py``.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hho_control import (MeshError, MeshGenerationError,  # noqa: E402
                         make_cartesian, make_voronoi, read_mesh, write_mesh)
from hho_control.mesh import (_areas_centroids, _lloyd_round,  # noqa: E402
                              _lloyd_seeds)
from helpers import (cell_polygon, clipped_voronoi_mismatch,  # noqa: E402
                     clipped_voronoi_oracle, polygon_area, polygon_centroid,
                     polygon_diameter)

@settings(max_examples=30)
@given(st.one_of(
    st.builds(make_cartesian, st.integers(1, 6)),
    st.builds(make_voronoi, st.integers(2, 24),
              rng_seed=st.integers(0, 2 ** 32 - 1),
              lloyd_iters=st.integers(0, 3))))
def test_text_roundtrip(mesh):
    back = read_mesh(write_mesh(mesh))
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cell_ptr, mesh.cell_ptr)
    assert np.array_equal(back.cell_vertex_ids, mesh.cell_vertex_ids)


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


@settings(max_examples=300)
@given(st.one_of(fuzzed_documents(), st.text(max_size=80)))
def test_fuzzed_document_parses_to_finite_mesh_or_mesh_error(text):
    with np.errstate(all="ignore"):
        try:
            mesh = read_mesh(text)
        except MeshError:
            return
    assert np.isfinite(mesh.vertices).all()
    assert np.isfinite(np.column_stack((mesh.cell_areas, mesh.cell_diameters,
                                        mesh.cell_centroids))).all()
    assert (mesh.cell_areas > 0).all()
    assert np.isfinite(np.column_stack((mesh.face_lengths, mesh.face_normals,
                                        mesh.face_points.reshape(-1, 4)))).all()


@settings(max_examples=40)
@given(st.integers(1, 80), st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
def test_voronoi_generation_gives_mesh_or_generation_error(n, seed, lloyd):
    try:
        mesh = make_voronoi(n, rng_seed=seed, lloyd_iters=lloyd)
    except MeshGenerationError:
        return
    assert mesh.n_cells == n
    assert abs(mesh.cell_areas.sum() - 1.0) < 1e-9
    assert (mesh.cell_areas > 0).all()
    assert np.isfinite(mesh.vertices).all()
    assert ((mesh.vertices >= 0.0) & (mesh.vertices <= 1.0)).all()


@settings(max_examples=25)
@given(st.integers(2, 80), st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
def test_cell_geometry_arrays_equal_per_polygon_sums(n, seed, lloyd):
    """The grouped geometry has the bits of each polygon summed on its own."""
    try:
        mesh = make_voronoi(n, rng_seed=seed, lloyd_iters=lloyd)
    except MeshGenerationError:
        return
    for c in range(mesh.n_cells):
        poly = cell_polygon(mesh, c)
        assert mesh.cell_areas[c] == polygon_area(poly)
        assert np.array_equal(mesh.cell_centroids[c], polygon_centroid(poly))
        assert mesh.cell_diameters[c] == polygon_diameter(poly)


# seeds on a lattice of step 1/200: exact ties (collinear rows, cocircular
# quadruples) are frequent, and every circumcenter is well conditioned
LATTICE_SEEDS = st.lists(st.tuples(st.integers(1, 199), st.integers(1, 199)),
                         min_size=2, max_size=60, unique=True).map(
                             lambda pts: np.array(pts) / 200.0)


SEED_SETS = st.one_of(
    LATTICE_SEEDS,
    st.builds(lambda n, seed: np.random.default_rng(seed).uniform(
        size=(n, 2)), st.integers(2, 300), st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60)
@given(SEED_SETS)
def test_clipped_cells_match_the_mirrored_voronoi_oracle(seeds):
    assert clipped_voronoi_mismatch(seeds) <= 1e-12


@settings(max_examples=60)
@given(SEED_SETS)
def test_lloyd_fan_centroids_match_the_mirrored_voronoi_oracle(seeds):
    """The Delaunay fans of a Lloyd round give each oracle cell's centroid.

    On the lattice, exact cocircular ties are frequent, and the joggled
    triangulation picks one diagonal of each.
    """
    want = np.array([_areas_centroids(loop[None])[1][0]
                     for loop in clipped_voronoi_oracle(seeds)])
    assert np.abs(_lloyd_round(seeds) - want).max() <= 1e-12


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
def test_lloyd_relaxed_cells_match_the_mirrored_voronoi_oracle(n):
    assert clipped_voronoi_mismatch(_lloyd_seeds(n, 42, 10)) <= 1e-12
