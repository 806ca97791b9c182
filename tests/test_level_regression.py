"""Pinned error records of the first level of each benchmark study.

The values were recorded from the refined solve of ``OptimalitySystem``
(extended-precision iterative refinement against the assembled matrix), so
they hold whatever the LU ordering: the nested-dissection order and the
plain DOF-index order, both without pivoting, reproduce them to 1e-13.  The
wc2 pin comes from the active-set Newton loop, which iterates to the
round-off of the fixed-point residual.  A refactor of the kernel, load,
solve or error layers must reproduce them to 1e-12 relative.
"""

import numpy as np
import pytest

from hho_control import cli, hho_core
from hho_control.errors import QUANTITIES

PINS = {
    "uc1-k1-cartesian-16": (
        dict(scheme="uc1", degree=1, mesh_family="cartesian",
             preset="uc1-default"), 16,
        dict(h=0.08838834764831845, n_cells=256, iters=None,
             err_u_l2=0.6451515732873192, err_y_energy=0.5989019550138686,
             err_phi_energy=0.09502976871499878,
             err_y_l2_recon=0.001543201256812267,
             err_phi_l2_recon=0.0003179168514377388)),
    "uc1-k1-voronoi-64": (
        dict(scheme="uc1", degree=1, mesh_family="voronoi",
             preset="uc1-default", rng_seed=42, lloyd_iters=10), 64,
        dict(h=0.17901135523134054, n_cells=64, iters=None,
             err_u_l2=2.6667222057713733, err_y_energy=2.6360869144473655,
             err_phi_energy=0.38421449547546405,
             err_y_l2_recon=0.013575569211972524,
             err_phi_l2_recon=0.0025980711565382047)),
    "wc2-cartesian-16": (
        dict(scheme="wc2", degree=1, mesh_family="cartesian",
             preset="wc-default"), 16,
        dict(h=0.08838834764831845, n_cells=256, iters=6,
             err_u_l2=0.09261174370993346, err_y_energy=0.23155794395697804,
             err_phi_energy=0.09576854927824514,
             err_y_l2_recon=0.0007962489756893574,
             err_phi_l2_recon=0.0003249465377881974)),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_first_level_record_is_pinned(name):
    fields, level, want = PINS[name]
    cfg = cli.ExperimentConfig(levels=[level], **fields)
    record = cli.run_level(cfg, cfg.build_problem(), level)
    assert record.level == level
    assert record.n_cells == want["n_cells"]
    assert record.iters == want["iters"]
    for q in ("h",) + QUANTITIES:
        got = getattr(record, q)
        assert abs(got - want[q]) <= 1e-12 * abs(want[q]), (q, got, want[q])


ORDERINGS = {
    "uc1-k1-cartesian-16": PINS["uc1-k1-cartesian-16"][:2],
    "uc1-k1-voronoi-64": PINS["uc1-k1-voronoi-64"][:2],
    "uc31-k1-cartesian-16": (
        dict(scheme="uc31", degree=1, mesh_family="cartesian",
             preset="uc31-default"), 16),
    "wc2-cartesian-16": PINS["wc2-cartesian-16"][:2],
}


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="longdouble is no wider than double here: refinement then improves "
           "only the backward error, and results keep the ordering's round-off")
@pytest.mark.parametrize("name", sorted(ORDERINGS))
def test_errors_do_not_depend_on_the_lu_ordering(name, monkeypatch):
    fields, level = ORDERINGS[name]
    cfg = cli.ExperimentConfig(levels=[level], **fields)
    prob = cfg.build_problem()
    dissected = cli.run_level(cfg, prob, level)
    # the DOF-index order; LU without pivoting stays safe, since a symmetric
    # permutation keeps the Hermitian part positive definite
    def by_index(space):
        return np.arange(len(space.active_dofs))

    monkeypatch.setattr(hho_core, "nested_dissection", by_index)
    plain = cli.run_level(cfg, prob, level)
    assert dissected.iters == plain.iters
    for q in QUANTITIES:
        got, want = getattr(dissected, q), getattr(plain, q)
        assert abs(got - want) <= 1e-13 * abs(want), (q, got, want)

