"""Pinned error records of the first level of each benchmark study.

The values were recorded before the local kernels were batched; a refactor
of the kernel, load or error layers must reproduce them to 1e-12 relative.
"""

import pytest

from hho_control import cli
from hho_control.errors import QUANTITIES

PINS = {
    "uc1-k1-cartesian-16": (
        dict(scheme="uc1", degree=1, mesh_family="cartesian",
             preset="uc1-default"), 16,
        dict(h=0.08838834764831845, n_cells=256, iters=None,
             err_u_l2=0.6451515732869131, err_y_energy=0.5989019550222918,
             err_phi_energy=0.09502976871465484,
             err_y_l2_recon=0.0015432012582147806,
             err_phi_l2_recon=0.0003179168513921477)),
    "uc1-k1-voronoi-64": (
        dict(scheme="uc1", degree=1, mesh_family="voronoi",
             preset="uc1-default", rng_seed=42, lloyd_iters=10), 64,
        dict(h=0.17901135523134054, n_cells=64, iters=None,
             err_u_l2=2.6667222057714675, err_y_energy=2.636086914445927,
             err_phi_energy=0.3842144954754932,
             err_y_l2_recon=0.013575569211787696,
             err_phi_l2_recon=0.0025980711565409048)),
    "wc2-cartesian-16": (
        dict(scheme="wc2", degree=1, mesh_family="cartesian",
             preset="wc-default"), 16,
        dict(h=0.08838834764831845, n_cells=256, iters=40,
             err_u_l2=0.09261174370996401, err_y_energy=0.23155794395805437,
             err_phi_energy=0.09576854927825583,
             err_y_l2_recon=0.000796248975619032,
             err_phi_l2_recon=0.0003249465377893895)),
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
