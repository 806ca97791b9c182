"""Pinned error records of the first level of each benchmark study.

The values were recorded from the refined solve of ``OptimalitySystem``
(extended-precision iterative refinement against the assembled matrix), so
they hold whatever the LU ordering: the nested-dissection order and the
plain DOF-index order of the face Schur complement, both without pivoting,
reproduce them to 1e-13.  They were recorded with the whole active matrix
factored, and they hold to 1e-12 since the cell unknowns came to be
eliminated first and only the face Schur complement factored.  The
wc2 pin comes from the active-set Newton loop, which iterates to the
round-off of the fixed-point residual.  The Voronoi pin was recorded again
when the mesh cells came to be built from Delaunay circumcenters (its values
moved by at most 1.3e-11 relative).  All three pins were recorded again
when the gradient products of the local kernels became batched matmuls and
the monomial power tables repeated products: the kernels changed in their
summation order only, and the largest move was 5.9e-10 relative in the
Cartesian uc1 ``err_y_l2_recon``, 9e-13 absolute against an L2 norm of y of
about 320.  The two uc1 pins were recorded again when every face came to
share one reference face table (basis, mass and projection): the largest
move was 1.8e-12 relative, again in the Cartesian ``err_y_l2_recon``.  The
Voronoi pin was recorded again when the Lloyd rounds came to take their
centroids from the Delaunay fans, on joggled triangulations: the seeds moved
by round-off, and the largest move was 1.8e-12 relative, in
``err_y_l2_recon``.  They held unrecorded when the face Schur complement
came to be formed by sparse products of the active matrix's blocks instead
of being summed face pair by face pair, and when the parts of the
nested dissection came to be read off the Morton key of the cell centroids
instead of median bisections.  The wc2 pin was recorded again when the
Newton loop's CG came to run on the cell coefficients of the control
instead of its node values: the largest move was 1.3e-12 relative, in
``err_y_l2_recon`` (1e-15 absolute against an L2 norm of y of 0.5), and
the stop on the round-off floor came one Newton step earlier (6 to 5).  A
refactor of the kernel, load, solve or error layers must reproduce them to
1e-12 relative.
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
             err_u_l2=0.6451515732869958, err_y_energy=0.5989019550119032,
             err_phi_energy=0.09502976871468904,
             err_y_l2_recon=0.0015432012577247531,
             err_phi_l2_recon=0.00031791685140368183)),
    "uc1-k1-voronoi-64": (
        dict(scheme="uc1", degree=1, mesh_family="voronoi",
             preset="uc1-default", rng_seed=42, lloyd_iters=10), 64,
        dict(h=0.179011355231341, n_cells=64, iters=None,
             err_u_l2=2.6667222057713422, err_y_energy=2.6360869144468406,
             err_phi_energy=0.3842144954754521,
             err_y_l2_recon=0.01357556921205059,
             err_phi_l2_recon=0.0025980711565371773)),
    "wc2-cartesian-16": (
        dict(scheme="wc2", degree=1, mesh_family="cartesian",
             preset="wc-default"), 16,
        dict(h=0.08838834764831845, n_cells=256, iters=5,
             err_u_l2=0.0926117437102964, err_y_energy=0.23155794395704274,
             err_phi_energy=0.09576854927832376,
             err_y_l2_recon=0.0007962489757483489,
             err_phi_l2_recon=0.00032494653779801603)),
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
    # the face DOFs in index order; LU without pivoting stays safe, since a
    # symmetric permutation keeps the Hermitian part positive definite
    def by_index(space):
        return np.arange(len(space.active_dofs) - space.n_cell_dofs)

    monkeypatch.setattr(hho_core, "nested_dissection", by_index)
    plain = cli.run_level(cfg, prob, level)
    assert dissected.iters == plain.iters
    for q in QUANTITIES:
        got, want = getattr(dissected, q), getattr(plain, q)
        assert abs(got - want) <= 1e-13 * abs(want), (q, got, want)

