"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear; the whole suite targets desk scale (a few minutes on a laptop).
"""

import itertools

import numpy as np
import pytest

from hho_control import (AdmissibleBox, HhoSpace, solve_poisson, solve_uc1,
                         solve_uc2, solve_uc31, solve_uc32, solve_wc1,
                         solve_wc2)
from hho_control.cli import ExperimentConfig, run_experiment
from hho_control.control_unconstrained import _cross_coupling
from hho_control.errors import (energy_error, eoc, l2_error_control,
                                l2_error_reconstruction)
from hho_control.hho_core import cell_load_vector, recon_load_vector
from hho_control.presets import problem_from_preset
from helpers import (cached_cartesian, cached_voronoi, cell_dofs,
                     dense_cell_mass, dense_face_schur, dense_recon_mass,
                     dense_stiffness, global_monomials,
                     reduce_reconstruct_stabilize, wc1_cell_control)

CART_LEVELS = {0: (4, 8, 16, 32), 1: (4, 8, 16, 32), 2: (4, 8, 16)}
VOR_LEVELS = {0: (16, 64, 256, 1024), 1: (16, 64, 256, 1024), 2: (16, 64, 256)}
# the full-reconstruction control superconverges on the uniform lattice at
# the coarsest pairs; one refinement deeper sits on the asymptotic rate
UC31_LEVELS = (8, 16, 32, 64)


def _finish(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {label}")
    assert not failures, f"criterion {num} failed: {failures}"


def _check(failures, ok, detail):
    if not ok:
        failures.append(detail)


def _mesh(family, level):
    if family == "cartesian":
        return cached_cartesian(level)
    return cached_voronoi(level)


def _uc_space(mesh, k, scheme):
    if scheme == "uc32":
        return HhoSpace(mesh, k, cell_degree=k + 1, dirichlet=True)
    return HhoSpace(mesh, k, dirichlet=True)


def _study(scheme, k, family, levels, prob):
    solver = {"uc1": solve_uc1, "uc2": solve_uc2, "uc31": solve_uc31,
              "uc32": solve_uc32, "wc1": solve_wc1, "wc2": solve_wc2}[scheme]
    rows = []
    for level in levels:
        mesh = _mesh(family, level)
        if scheme == "wc2":
            space = HhoSpace(mesh, 1, cell_degree=2, dirichlet=True)
        else:
            space = _uc_space(mesh, k, scheme)
        sol = solver(space, prob)
        rows.append({
            "h": mesh.max_diameter(),
            "u": l2_error_control(sol, prob.exact.u),
            "y": energy_error(space, sol.y, prob.exact.y),
            "phi": energy_error(space, sol.phi, prob.exact.phi),
            "iters": getattr(sol, "iterations", None),
        })
    return rows


def _final_rate(rows, key):
    hs = [r["h"] for r in rows]
    return eoc([r[key] for r in rows], hs)[-1]


@pytest.fixture(scope="module")
def uc12_runs():
    """Shared UC1/UC2 studies for criteria 2 and 3."""
    prob = problem_from_preset("uc1-default")
    runs = {}
    for family in ("cartesian", "voronoi"):
        levels_of = CART_LEVELS if family == "cartesian" else VOR_LEVELS
        for k in (0, 1, 2):
            for scheme in ("uc1", "uc2"):
                runs[(scheme, k, family)] = _study(
                    scheme, k, family, levels_of[k], prob)
    return runs


def test_criterion_1_poisson_baseline():
    failures = []
    y = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    f = lambda p: 2.0 * np.pi ** 2 * y(p)
    for k in (0, 1, 2):
        errs_e, errs_r, hs = [], [], []
        for n in CART_LEVELS[k]:
            mesh = cached_cartesian(n)
            space = HhoSpace(mesh, k, dirichlet=True)
            sol = solve_poisson(space, f)
            errs_e.append(energy_error(space, sol, y))
            errs_r.append(l2_error_reconstruction(space, sol, y))
            hs.append(mesh.max_diameter())
        rate_e = eoc(errs_e, hs)[-1]
        rate_r = eoc(errs_r, hs)[-1]
        _check(failures, k + 0.8 <= rate_e <= k + 1.3,
               f"k={k} energy rate {rate_e:.3f}")
        _check(failures, k + 1.7 <= rate_r <= k + 2.3,
               f"k={k} reconstruction rate {rate_r:.3f}")
    _finish(1, "Poisson baseline rates", failures)


def test_criterion_2_uc12_rates(uc12_runs):
    failures = []
    for (scheme, k, family), rows in uc12_runs.items():
        for key in ("u", "y", "phi"):
            rate = _final_rate(rows, key)
            _check(failures, k + 0.8 <= rate <= k + 1.3,
                   f"{scheme} k={k} {family} {key} rate {rate:.3f}")
    _finish(2, "UC1/UC2 control and energy rates on both families", failures)


def test_criterion_3_uc1_equals_uc2(uc12_runs):
    failures = []
    for k in (0, 1, 2):
        for family in ("cartesian", "voronoi"):
            a = uc12_runs[("uc1", k, family)]
            b = uc12_runs[("uc2", k, family)]
            for ra, rb in zip(a, b):
                for key in ("u", "y", "phi"):
                    scale = max(1.0, abs(ra[key]))
                    _check(failures, abs(ra[key] - rb[key]) <= 1e-10 * scale,
                           f"k={k} {family} {key}")
    _finish(3, "UC1 and UC2 agree to 1e-10 in every reported error", failures)


def test_criterion_4_uc31_rates():
    failures = []
    prob = problem_from_preset("uc31-default")
    for k in (0, 1):
        rows = _study("uc31", k, "cartesian", UC31_LEVELS, prob)
        rate_u = _final_rate(rows, "u")
        _check(failures, k + 1.7 <= rate_u <= k + 2.3,
               f"k={k} control rate {rate_u:.3f}")
        for key in ("y", "phi"):
            rate = _final_rate(rows, key)
            _check(failures, k + 0.8 <= rate <= k + 1.3,
                   f"k={k} {key} rate {rate:.3f}")
    _finish(4, "full-reconstruction control rate k+2", failures)


def test_criterion_5_uc32_rates():
    failures = []
    prob = problem_from_preset("uc32-default")
    for family, levels in (("cartesian", (4, 8, 16)), ("voronoi", (64, 256))):
        rows = _study("uc32", 2, family, levels, prob)
        rate_u = _final_rate(rows, "u")
        _check(failures, 3.6 <= rate_u <= 4.4,
               f"{family} control rate {rate_u:.3f}")
        for key in ("y", "phi"):
            rate = _final_rate(rows, key)
            _check(failures, 2.7 <= rate <= 3.3,
                   f"{family} {key} rate {rate:.3f}")
    _finish(5, "partial-reconstruction rates at k=2", failures)


def test_criterion_6_wc1():
    failures = []
    prob = problem_from_preset("wc-default")
    rows = _study("wc1", 0, "cartesian", (4, 8, 16, 32), prob)
    for key in ("u", "y", "phi"):
        rate = _final_rate(rows, key)
        _check(failures, 0.8 <= rate <= 1.2, f"{key} rate {rate:.3f}")
    for r in rows:
        _check(failures, r["iters"] is not None and r["iters"] <= 500,
               f"iterations {r['iters']}")
    _finish(6, "box-constrained lowest-order rates and convergence", failures)


def test_criterion_7_wc2():
    failures = []
    prob = problem_from_preset("wc-default")
    rows = _study("wc2", 1, "cartesian", (4, 8, 16, 32), prob)
    rate_u = _final_rate(rows, "u")
    _check(failures, 2.6 <= rate_u <= 3.4, f"control rate {rate_u:.3f}")
    for key in ("y", "phi"):
        rate = _final_rate(rows, key)
        _check(failures, 1.7 <= rate <= 2.3, f"{key} rate {rate:.3f}")
    _finish(7, "constrained variational discretization rates", failures)


# Only the final pair of a ladder enters a rate.  uc31 at k = 1 superconverges
# on the uniform lattice up to 32 x 32 (control rate 3.4), as in criterion 4.
@pytest.mark.parametrize("scheme, k, levels, bounds, u_window, energy_window", [
    ("uc31", 0, (16, 32), None, (1.7, 2.3), (0.8, 1.3)),
    ("uc31", 1, (32, 64), None, (2.7, 3.3), (1.8, 2.3)),
    ("uc32", 2, (4, 8), None, (3.6, 4.4), (2.7, 3.3)),
    ("wc1", 0, (16, 32), (-250.0, -10.0), (0.8, 1.2), (0.8, 1.2)),
    ("wc2", 1, (8, 16), (-250.0, -10.0), (2.6, 3.4), (1.7, 2.3)),
])
def test_nonzero_boundary_data_rates(scheme, k, levels, bounds, u_window,
                                     energy_window):
    """The uc1-default state has a nonzero trace that every scheme must lift."""
    prob = problem_from_preset("uc1-default", bounds=bounds)
    assert prob.state_boundary is not None
    rows = _study(scheme, k, "cartesian", levels, prob)
    failures = []
    for key, (lo, hi) in (("u", u_window), ("y", energy_window),
                          ("phi", energy_window)):
        rate = _final_rate(rows, key)
        _check(failures, lo <= rate <= hi, f"{key} rate {rate:.3f}")
    assert not failures, f"{scheme} k={k}: {failures}"


# The Cartesian windows of criteria 4, 6 and 7 on the seed-42 Voronoi meshes
# (10 Lloyd rounds).  Only the final pair enters a rate; the 64-seed level
# of the measured 64/256/1024 ladder is left out.  Measured final-pair rates
# (u, y, phi): uc31 k=0 1.92/0.97/0.93, uc31 k=1 3.05/1.92/1.95, wc1
# 1.03/0.98/0.95, wc2 2.91/1.95/1.94.
@pytest.mark.parametrize("scheme, k, preset, u_window, energy_window", [
    ("uc31", 0, "uc1-default", (1.7, 2.3), (0.8, 1.3)),
    ("uc31", 1, "uc1-default", (2.7, 3.3), (1.8, 2.3)),
    ("wc1", 0, "wc-default", (0.8, 1.2), (0.8, 1.2)),
    ("wc2", 1, "wc-default", (2.6, 3.4), (1.7, 2.3)),
])
def test_voronoi_rates(scheme, k, preset, u_window, energy_window):
    rows = _study(scheme, k, "voronoi", (256, 1024), problem_from_preset(preset))
    failures = []
    for key, (lo, hi) in (("u", u_window), ("y", energy_window),
                          ("phi", energy_window)):
        rate = _final_rate(rows, key)
        _check(failures, lo <= rate <= hi, f"{key} rate {rate:.3f}")
    assert not failures, f"{scheme} k={k} Voronoi: {failures}"


def test_criterion_8_operator_properties():
    failures = []
    for mesh_name in ("cartesian", "voronoi"):
        mesh = cached_cartesian(4) if mesh_name == "cartesian" \
            else cached_voronoi(16)
        for k in (0, 1, 2, 3):
            space = HhoSpace(mesh, k, dirichlet=False)
            for j, p in enumerate(global_monomials(k + 1)):
                for op, red, err, (polys, _) in reduce_reconstruct_stabilize(
                        space, p):
                    scale = max(1.0, np.abs(red).max())
                    _check(failures, err <= 1e-11 * scale,
                           f"{mesh_name} k={k} cell {op.cell_id} recon {j}")
                    _check(failures,
                           max(np.abs(sf).max() for sf in polys)
                           <= 1e-11 * scale,
                           f"{mesh_name} k={k} cell {op.cell_id} stab {j}")
            for op in space.local_ops():
                eigs = np.linalg.eigvalsh(op.A)
                _check(failures, eigs[0] > -1e-12 * eigs[-1]
                       and eigs[1] > 1e-9 * eigs[-1],
                       f"{mesh_name} k={k} cell {op.cell_id} kernel")
            fixed = HhoSpace(mesh, k, dirichlet=True)
            try:
                np.linalg.cholesky(
                    dense_face_schur(fixed, fixed.stiffness_matrix()))
            except np.linalg.LinAlgError:
                _check(failures, False, f"{mesh_name} k={k} schur not SPD")
    _finish(8, "operator property suite (k = 0..3, both 16-cell meshes)",
            failures)


def _dense_two_field(A, C, rhs1, rhs2, lam):
    n = A.shape[0]
    K = np.zeros((2 * n, 2 * n))
    K[:n, :n] = A
    K[:n, n:] = C / lam
    K[n:, :n] = -C
    K[n:, n:] = A
    return K, np.concatenate([rhs1, rhs2])


def test_criterion_9_oracle_equivalence():
    failures = []
    mesh = cached_cartesian(4)  # 16 cells
    for k in (0, 1):
        space = HhoSpace(mesh, k, dirichlet=False)
        dense = dense_stiffness(space)
        sparse = space.stiffness_matrix().toarray()
        _check(failures,
               np.abs(dense - sparse).max() <= 1e-12 * np.abs(dense).max(),
               f"a_h assembly k={k}")

    # dense KKT solves per scheme on the 2x2 mesh; uc1-default has nonzero
    # boundary data, lifted here through the dense fixed-column blocks
    small = cached_cartesian(2)
    for scheme, k, preset in (("uc1", 0, "uc1-default"),
                              ("uc2", 1, "uc1-default"),
                              ("uc31", 1, "uc31-default"),
                              ("uc31", 0, "uc1-default")):
        prob = problem_from_preset(preset)
        space = HhoSpace(small, k, dirichlet=True)
        act, fix = space.active_dofs, space.fixed_dofs
        if scheme == "uc31":
            C_full = dense_recon_mass(space)

            def load(space, f):
                return recon_load_vector(space, f(space.nodes().points))
            sol = solve_uc31(space, prob)
        else:
            C_full, load = dense_cell_mass(space), cell_load_vector
            sol = (solve_uc1 if scheme == "uc1" else solve_uc2)(space, prob)
        g = space.boundary_values(prob.state_boundary)
        A_full = dense_stiffness(space)
        rhs1 = load(space, prob.f)[act] - A_full[np.ix_(act, fix)] @ g
        rhs2 = -load(space, prob.y_d)[act] + C_full[np.ix_(act, fix)] @ g
        A = A_full[np.ix_(act, act)]
        coupling = C_full[np.ix_(act, act)]
        K, rhs = _dense_two_field(A, coupling, rhs1, rhs2, prob.lam)
        ref = np.linalg.solve(K, rhs)
        got = np.concatenate([sol.y[act], sol.phi[act]])
        scale = max(1.0, np.abs(ref).max())
        _check(failures, np.abs(got - ref).max() <= 1e-10 * scale,
               f"{scheme} k={k} {preset} dense KKT solve")
        _check(failures, np.abs(sol.y[fix] - g).max() == 0.0,
               f"{scheme} k={k} {preset} boundary values")
        resid = K @ got - rhs
        _check(failures,
               np.linalg.norm(resid) <= 1e-10 * max(1.0, np.linalg.norm(rhs)),
               f"{scheme} k={k} {preset} KKT residual")

    # uc32 blocks entrywise at its smallest admissible degree
    prob32 = problem_from_preset("uc32-default")
    space32 = HhoSpace(small, 2, cell_degree=3, dirichlet=True)
    sol32 = solve_uc32(space32, prob32)
    ctrl_space = HhoSpace(small, 2, dirichlet=False)
    B_dense = dense_recon_mass(ctrl_space)
    B_sparse = ctrl_space.recon_mass_matrix().toarray()
    _check(failures,
           np.abs(B_dense - B_sparse).max() <= 1e-12 * np.abs(B_dense).max(),
           "uc32 control block assembly")
    Kc = _cross_coupling(space32, ctrl_space).toarray()
    r_ctrl = prob32.lam * B_dense @ sol32.control_hat \
        + Kc.T @ sol32.phi
    _check(failures,
           np.linalg.norm(r_ctrl) <= 1e-10 * max(
               1.0, np.linalg.norm(prob32.lam * B_dense
                                   @ sol32.control_hat)),
           "uc32 variational optimality residual")

    # wc1 fixed point vs the 3^4 active-set enumeration on the 2x2 mesh
    prob = problem_from_preset("wc-default")
    space = HhoSpace(small, 0, dirichlet=True)
    box = AdmissibleBox(*prob.bounds)
    sol = solve_wc1(space, prob)
    act = space.active_dofs
    A = dense_stiffness(space)[np.ix_(act, act)]
    M = dense_cell_mass(space)[np.ix_(act, act)]
    F_f = cell_load_vector(space, prob.f)[act]
    F_yd = cell_load_vector(space, prob.y_d)[act]
    ops = space.local_ops()
    n, nc = len(act), small.n_cells
    L = np.zeros((n, nc))
    lookup = {d: i for i, d in enumerate(act)}
    for op in ops:
        for d, v in zip(cell_dofs(space, op.cell_id), op.qw @ op.Vl):
            L[lookup[d], op.cell_id] = v
    areas = small.cell_areas
    found = None
    for pattern in itertools.product(("lo", "hi", "free"), repeat=nc):
        big = np.zeros((2 * n + nc, 2 * n + nc))
        rhs = np.zeros(2 * n + nc)
        big[:n, :n] = A
        big[:n, 2 * n:] = -L
        rhs[:n] = F_f
        big[n:2 * n, :n] = -M
        big[n:2 * n, n:2 * n] = A
        rhs[n:2 * n] = -F_yd
        for t, mode in enumerate(pattern):
            row = 2 * n + t
            if mode == "free":
                big[row, 2 * n + t] = prob.lam * areas[t]
                big[row, n:2 * n] = L[:, t]
            else:
                big[row, 2 * n + t] = 1.0
                rhs[row] = box.u_a if mode == "lo" else box.u_b
        try:
            cand = np.linalg.solve(big, rhs)
        except np.linalg.LinAlgError:
            continue
        u, phi = cand[2 * n:], cand[n:2 * n]
        grad = L.T @ phi + prob.lam * areas * u
        ok = all(
            (m != "free" or box.u_a - 1e-9 <= u[t] <= box.u_b + 1e-9)
            and (m != "lo" or grad[t] >= -1e-9)
            and (m != "hi" or grad[t] <= 1e-9)
            for t, m in enumerate(pattern))
        if ok:
            found = cand
            break
    _check(failures, found is not None, "active-set enumeration")
    if found is not None:
        _check(failures,
               np.abs(wc1_cell_control(sol) - found[2 * n:]).max() <= 1e-8,
               "wc1 vs enumeration oracle")
    _finish(9, "dense oracle equivalence", failures)


def test_criterion_10_determinism(tmp_path):
    failures = []
    outputs = []
    for name in ("first", "second"):
        cfg = ExperimentConfig(scheme="uc1", degree=0, mesh_family="voronoi",
                               levels=[16, 64], preset="uc1-default",
                               output_dir=str(tmp_path / name), rng_seed=42)
        run_experiment(cfg)
        outputs.append((tmp_path / name / "report.csv").read_bytes())
    _check(failures, outputs[0] == outputs[1], "report.csv not byte-identical")
    _finish(10, "byte-identical reports for identical configs", failures)
