"""Property tests of the local HHO operators and the nested-dissection order.

Skipped without hypothesis; derandomized by the profile of ``conftest.py``.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hho_control import HhoSpace, Mesh, make_voronoi  # noqa: E402
from hho_control.hho_core import (nested_dissection,  # noqa: E402
                                  reconstruct_all, reduce_function)
from hho_control.poly import monomial_exponents  # noqa: E402
from helpers import voronoi_with_l_cell  # noqa: E402

@st.composite
def convex_polygons(draw):
    """CCW vertices at well-separated angles on a rotated, shifted ellipse."""
    n = draw(st.integers(3, 8))
    gaps = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)))
    angles = draw(st.floats(0.0, 2 * np.pi)) + np.cumsum(2 * np.pi * gaps / gaps.sum())
    a, b = draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0))
    turn = draw(st.floats(0.0, np.pi))
    rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    center = np.array([draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))])
    return center + np.column_stack([a * np.cos(angles), b * np.sin(angles)]) @ rot.T


@settings(max_examples=60)
@given(convex_polygons(), st.integers(0, 2),
       st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10))
def test_reconstruction_of_reduction_reproduces_p_k_plus_1(polygon, k, coeffs):
    mesh = Mesh(polygon, [list(range(len(polygon)))])
    space = HhoSpace(mesh, k)
    exps = monomial_exponents(k + 1)
    center = mesh.cell_centroids[0]

    def p(x):
        local = x - center
        return sum(c * local[:, 0] ** i * local[:, 1] ** j
                   for c, (i, j) in zip(coeffs, exps))

    rec = reconstruct_all(space, reduce_function(space, p))
    nodes = space.nodes()
    target = p(nodes.points)
    scale = max(1.0, np.abs(target).max())
    assert np.abs(nodes.values("Vr", rec) - target).max() <= 1e-10 * scale


def _dof_entities(space):
    """(kind, index) of each DOF of the space: its cell or its face."""
    return ([("cell", i // space.cell_dim) for i in range(space.n_cell_dofs)]
            + [("face", i // space.face_dim)
               for i in range(space.n_dofs - space.n_cell_dofs)])


@settings(max_examples=25)
@given(st.one_of(
    st.builds(make_voronoi, st.integers(2, 40),
              rng_seed=st.integers(0, 2 ** 32 - 1),
              lloyd_iters=st.integers(0, 3)),
    st.just("l-cell")), st.integers(0, 1), st.booleans())
def test_nested_dissection_orders_separators_after_their_halves(
        mesh, k, dirichlet):
    if mesh == "l-cell":
        mesh = voronoi_with_l_cell()
    space = HhoSpace(mesh, k, dirichlet=dirichlet)
    perm = nested_dissection(space)
    nc = space.n_cell_dofs
    assert sorted(perm) == list(range(len(space.active_dofs) - nc))
    # the elimination order: the cell DOFs (condensed first), then the
    # active face DOFs in the order ``perm``
    pos = np.arange(len(space.active_dofs))
    pos[nc + perm] = nc + np.arange(len(perm))

    # the leaf of a cell: its centroid on the 2^b x 2^b grid over the vertex
    # bounding box, the column and row bits interleaved, x bit above y bit
    bits = int(np.ceil(np.log2(mesh.n_cells) / 2)) + 1
    depth = 2 * bits
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    points = mesh.cell_centroids

    def morton(centroid):
        col, row = (format(min(int(v), 2 ** bits - 1), f"0{bits}b")
                    for v in (centroid - lo) / (hi - lo) * 2 ** bits)
        return int("".join(x + y for x, y in zip(col, row)), 2)

    leaf = np.array([morton(c) for c in points])
    # each split cuts its part at a middle line: y at the levels of the low
    # bits of each pair, x at the high bits
    for up in range(1, depth + 1):
        for code in np.unique(leaf >> up):
            low = points[leaf >> (up - 1) == 2 * code]
            high = points[leaf >> (up - 1) == 2 * code + 1]
            if len(low) and len(high):
                assert low[:, up % 2].max() <= high[:, up % 2].min()

    # the part of a cell is its leaf; of a face, the lowest part that holds
    # both its cells (its separator), found here one level at a time
    def part(kind, i):
        if kind == "cell":
            return leaf[i], 0
        a, b = mesh.face_cells[i]
        b = a if b < 0 else b
        up = 0
        while leaf[a] >> up != leaf[b] >> up:
            up += 1
        return leaf[a] >> up, up

    parts = [part(*e) for e in _dof_entities(space)]
    at = {d: i for i, d in enumerate(space.active_dofs)}
    first = {}
    for d, (code, up) in enumerate(parts):
        if d in at and up > 0:
            first[code, up] = min(first.get((code, up), len(pos)), pos[at[d]])
    for d, (code, up) in enumerate(parts):
        if d not in at:
            continue
        # every DOF below a separator comes before that separator
        for above in range(up + 1, depth + 1):
            key = (code >> (above - up), above)
            if key in first:
                assert pos[at[d]] < first[key]

