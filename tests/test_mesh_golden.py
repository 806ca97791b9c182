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
loop's first vertex stayed the same.  They were recorded again once more
when every Delaunay build came to use Qhull's joggled input and the Lloyd
rounds to take their centroids from the Delaunay fans: the seeds moved by
at most 1.8e-14 and each loop's vertices, in order, by at most 2.5e-14, but
the vertices are numbered by first appearance in Qhull's triangle order,
which the joggle changes.  The counts, the loops' sizes and the cell
geometry (to 1e-12) stayed the same.  The digests of the meshes that had
them were recorded again once more when the short-edge collapse came to drop
the endpoints it merges away from the vertex table: 64-1 (1 of 130
vertices), 256-1, 256-2, 256-3 and 256-42 (10 of 514 at 42) lost unused
vertices, and the vertices left kept their coordinates and their order.
Old -> new: 64-1 55bffeb0... -> b63de54f..., 256-1 203bcb2f... ->
18b5c45e..., 256-2 257c622e... -> e63b5ea2..., 256-3 682c9351... ->
0d2bb7d8..., 256-42 c0853f1f... -> 0b3abc49...; 64-2, 64-3 and 64-42 had no
unused vertex and kept their digests.
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
    "voronoi-64-1": "b63de54f7743f43fd06fce076c20315f8b31803e0c26a80efca2464d7745d5a7",
    "voronoi-64-2": "9684a05472a9e6cd9fa46739dfe008751c4073a5d41b2256c89b070f1ea14cf3",
    "voronoi-64-3": "0040e07d4bb4f02057a469a660dd6b73d365eae9350f2e082541bbb7dd22647a",
    "voronoi-64-42": "6a5735578591175a178bfc549e922a33249a548f719095f379d8b8defa8b1d57",
    "voronoi-256-1": "18b5c45ef44acc1ce69f52b788cfe384c4890151bc725b53d48935a2bf016421",
    "voronoi-256-2": "e63b5ea2c4c458e8a1bad24e5b530f5fb6e68b42b34619471b1e9c37b6e50dff",
    "voronoi-256-3": "0d2bb7d87deb7564a6628dad358d715f0a6ce6570e012d7b2e0f6919aea427d9",
    "voronoi-256-42": "0b3abc495f42b2c8a9d5a7905c569c2ffe7a38ca42883726c41a5203ee9994c6",
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
