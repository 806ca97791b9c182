"""Golden digests of generated meshes.

A digest is the SHA-256 of ``write_mesh(mesh)`` followed by the bytes of the
face table: endpoint ids and both cells as int64 (the second cell is -1 on a
boundary face), then normals and lengths as float64.  The digests were
recorded with the per-cell ``Mesh`` build that the array build replaced, so
they pin the face numbering and orientation, every geometric bit and the
tie-breaking of the Voronoi short-edge collapse.  The Voronoi digests were
recorded again once, when the cells came to be built from the Delaunay
circumcenters of the seeds and their near-wall mirrors instead of
``scipy.spatial.Voronoi`` of all 5N mirrored seeds: the vertices moved by at
most 3.5e-14, and the cell, face and vertex counts, the face cells and every
loop's first vertex stayed the same.
"""

import hashlib

import numpy as np
import pytest

from hho_control import make_cartesian, make_voronoi, write_mesh

GOLDEN = {
    "cartesian-1": "9708cb2925490e5092992b7fb28bf5ef26e2af0ac661c56448d0a8da0a146d6c",
    "cartesian-4": "c6fd4abfd96c25188ea0d033ee6430444e07c1b59e595bed6a44a4b24eeff353",
    "cartesian-16": "b94fb0b13c35244aa3e69d0c8bf7f7ea9a01d1ca765a0d88aedab99cf0f9fc27",
    "cartesian-32": "eb5d1f52b3c548406ce7d877ab1303c7a7510603566bb871bbdda691451c685c",
    "voronoi-64-1": "48feb0f381664abd7e6f39efc39e949094ed86077adacfd92637150ea809258a",
    "voronoi-64-2": "c6ad270ae72312195b052bfc3400df670d4715e3746dd2f99861496a454d8bb9",
    "voronoi-64-3": "ea720055ee1d10e72a305b9bb33b1d5cf1893f85b301d02ccb8831e66aac5a1d",
    "voronoi-64-42": "fc0ac682c4d34e98ffb7d98c161a6013920c2f30ef312c29db881dd58081413b",
    "voronoi-256-1": "fde77cda434507ef9b6c2564ef8270b46cc56846e5589bf1533b466a733616ac",
    "voronoi-256-2": "ac34a37342e946b90f92febde1bbe457556a468f89bfeafb8c024487b98d64c4",
    "voronoi-256-3": "c39ecb1210526b1d4ff3fbbffc151094ad60eaa9b58fce33edb8076fd0c28416",
    "voronoi-256-42": "b734f738b7be953c1069555e571ef9f46be8e3a2238efc4a7a85c85850407930",
}


def mesh_digest(mesh):
    h = hashlib.sha256(write_mesh(mesh).encode())
    for table, dtype in ((mesh.face_vertex_ids, np.int64),
                         (mesh.face_cells, np.int64),
                         (mesh.face_normals, np.float64),
                         (mesh.face_lengths, np.float64)):
        h.update(np.ascontiguousarray(table, dtype=dtype).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_generated_mesh_matches_golden_digest(name):
    family, *args = name.split("-")
    if family == "cartesian":
        mesh = make_cartesian(int(args[0]))
    else:
        mesh = make_voronoi(int(args[0]), rng_seed=int(args[1]))
    assert mesh_digest(mesh) == GOLDEN[name]
