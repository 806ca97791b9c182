"""The class-major ``NodeTable``: layout, per-class products and reductions.

The table lays its nodes out kernel group by kernel group, kernel row by
kernel row and cell by cell, and applies each class's ``Vl``/``Vr``/``qw``
row to all of its cells at once.  These tests check that layout and compare
every product with the product of the cell's own kernel row, bit for bit.
"""

import numpy as np
import pytest

from hho_control import HhoSpace
from hho_control.hho_core import _runs_of
from helpers import cached_cartesian, cached_voronoi

SPACES = [(family, k, mixed) for family in ("cartesian", "voronoi")
          for k in (0, 1, 2) for mixed in (0, 1)]


def _space(family, k, mixed):
    mesh = cached_cartesian(6) if family == "cartesian" else cached_voronoi(32)
    return HhoSpace(mesh, k, cell_degree=k + mixed, dirichlet=True)


def _own_rows(space):
    """``(cell, kernels, row)`` of every cell, from ``kernel_groups()``."""
    for g in space.kernel_groups():
        for c, r in zip(g.cells, g.rows):
            yield c, g.kernels, r


def _cell_nodes(t, c):
    return slice(t.starts[c], t.starts[c] + t.counts[c])


@pytest.mark.parametrize("family, k, mixed", SPACES)
def test_each_cell_owns_a_contiguous_node_range(family, k, mixed):
    space = _space(family, k, mixed)
    t = space.nodes()
    centroids = space.mesh.cell_centroids
    rank = {}
    for c, kernels, r in _own_rows(space):
        at = _cell_nodes(t, c)
        assert t.counts[c] == kernels["qw"].shape[1]
        assert np.array_equal(t.points[at], kernels["qp"][r] + centroids[c])
        assert np.array_equal(t.weights[at], kernels["qw"][r])
        rank[c] = (t.group_of[c], t.row_of[c], c)
    assert len(rank) == space.mesh.n_cells
    # the ranges tile the nodes, class by class: group, row, then cell
    order = sorted(rank, key=rank.get)
    ends = t.starts[order] + t.counts[order]
    assert t.starts[order[0]] == 0 and ends[-1] == len(t.weights)
    assert np.array_equal(t.starts[order[1:]], ends[:-1])


@pytest.mark.parametrize("family, k, mixed", SPACES)
def test_products_have_the_bits_of_each_cells_own_kernel_row(family, k, mixed):
    space = _space(family, k, mixed)
    t = space.nodes()
    rng = np.random.default_rng(k + 3 * mixed)
    node_values = rng.standard_normal(len(t.weights))
    integrals = t.cell_integrals(node_values)
    for table, dim in (("Vl", space.cell_dim), ("Vr", space.recon_dim)):
        coeffs = rng.standard_normal((space.mesh.n_cells, dim))
        values = t.values(table, coeffs)
        moments = t.moments(table, node_values)
        for c, kernels, r in _own_rows(space):
            V, at = kernels[table][r], _cell_nodes(t, c)
            assert np.array_equal(values[at], (V @ coeffs[c][:, None])[:, 0])
            wv = t.weights[at] * node_values[at]
            assert np.array_equal(moments[c], (V.T @ wv[:, None])[:, 0])
    for c, kernels, r in _own_rows(space):
        at = _cell_nodes(t, c)
        own = (kernels["qw"][r][None, :] @ node_values[at][:, None])[0, 0]
        assert integrals[c] == own


@pytest.mark.parametrize("family", ["cartesian", "voronoi"])
@pytest.mark.parametrize("k, cell_degree", [(0, 0), (1, 2)])
def test_free_mass_sums_each_cells_free_nodes(family, k, cell_degree):
    mesh = cached_cartesian(4) if family == "cartesian" else cached_voronoi(16)
    space = HhoSpace(mesh, k, cell_degree=cell_degree, dirichlet=True)
    t = space.nodes()
    n, dim = mesh.n_cells, space.cell_dim
    rng = np.random.default_rng(7 + k)
    free = rng.random(len(t.weights)) < 0.5
    # a cell with every node free and one with none beside the mixed ones
    free[_cell_nodes(t, 0)], free[_cell_nodes(t, 1)] = True, False
    blocks = t.free_mass(free).toarray().reshape(n, dim, n, dim)
    for c, kernels, r in _own_rows(space):
        at = _cell_nodes(t, c)
        want = np.zeros((dim, dim))
        for w, v, f in zip(t.weights[at], kernels["Vl"][r], free[at]):
            if f:
                want += w * np.outer(v, v)
        scale = np.abs(kernels["M_cell"][r]).max()
        assert np.abs(blocks[c, :, c] - want).max() <= 1e-14 * scale
        blocks[c, :, c] = 0.0
    assert not blocks.any()  # block diagonal
    every, none = (t.free_mass(np.full(len(t.weights), f)) for f in (True, False))
    assert every.nnz == n * dim * dim and none.count_nonzero() == 0
    for c, kernels, r in _own_rows(space):
        assert np.array_equal(every.data[c], kernels["M_cell"][r])


@pytest.mark.parametrize("family", ["cartesian", "voronoi"])
def test_cell_reductions_match_each_cells_own_nodes(family):
    space = _space(family, 1, 1)
    t = space.nodes()
    values = np.random.default_rng(5).standard_normal(len(t.weights))
    for ufunc in (np.add, np.minimum, np.maximum):
        got = t.reduce_cells(ufunc, values)
        for c in range(space.mesh.n_cells):
            # reduceat adds a segment in order; reduce would add pairwise
            assert got[c] == ufunc.reduceat(values[_cell_nodes(t, c)], [0])[0]


def test_runs_stack_consecutive_labels_of_equal_size():
    labels = np.array([2, 0, 1, 1, 3, 0, 2, 3, 3])
    items = np.arange(10, 19)
    runs = [(list(run), members.tolist())
            for run, members in _runs_of(labels, items)]
    assert runs == [([0, 1, 2], [[11, 15], [12, 13], [10, 16]]),
                    ([3], [[14, 17, 18]])]
    assert list(_runs_of(labels[:0], items[:0])) == []
