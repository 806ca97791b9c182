"""Golden digests of generated meshes.

A digest is the SHA-256 of ``write_mesh(mesh)`` followed by the bytes of the
face table: endpoint ids and both cells as int64 (the second cell is -1 on a
boundary face), then normals and lengths as float64.  The digests were
recorded with the per-cell ``Mesh`` build that the array build replaced, so
they pin the face numbering and orientation, every geometric bit and the
tie-breaking of the Voronoi short-edge collapse.
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
    "voronoi-64-1": "02be04b1f7b8cff31a4e80241e90d6126aedbcd1cc22b5b9a1cec86f23ca2186",
    "voronoi-64-2": "ca5dcc8bba641059bae6403d12b9fb5e7fc2dbc84683cbb9fa714f70e6b1222d",
    "voronoi-64-3": "7a8414a90fc661b41ab4cc5c571c667179f921cd08aa7e4702b30119bd24712c",
    "voronoi-64-42": "0becb5da30a8eadad7bb9835f634a0b450ac73cef7a0c60906962b4413fb2182",
    "voronoi-256-1": "ed620f1e29d8fd85543e8912b62579b9a7661f3c4cbfd2200de733379ba0c955",
    "voronoi-256-2": "4594e2cb08df0c0e44b8c91a88c56a16fd7fe357848b8fa73045a05f882b191c",
    "voronoi-256-3": "a693eefb26ac427d6130eecc441ff9fa49ef79b477e8cfbf0d1d213229972423",
    "voronoi-256-42": "0763949c87564719e234bcb5c80fce91a6f7a6b74a8e9f34a15ebdec08639fd7",
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
