"""Discrete optimality systems for the unconstrained control schemes.

All four schemes minimize a strictly convex quadratic, so the unique
minimizer is the solution of the coupled optimality system.  The control is
eliminated analytically where elimination is exact (cell-polynomial and full
reconstruction controls) leaving a two-field sparse system in the state and
adjoint; the partial-reconstruction scheme keeps its control unknowns and
solves a three-field system, since only the reconstruction of its control is
determined (the global reconstruction has a kernel) and a pointwise
elimination through the adjoint is not available there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .hho_core import (HhoSpace, HhoVector, OptimalitySystem,
                       cell_load_vector, recon_load_vector, reconstruct_all,
                       scatter_blocks)


class UnsupportedDegreeError(ValueError):
    """Scheme invoked outside its admissible polynomial degrees."""


@dataclass
class ExactTriple:
    """Closed-form optimal triple for manufactured-solution studies."""

    y: callable
    phi: callable
    u: callable


@dataclass
class ControlProblem:
    """Data of the tracking problem: source, target, weight, optional bounds."""

    f: callable
    y_d: callable
    lam: float
    bounds: tuple | None = None
    exact: ExactTriple | None = None
    state_boundary: callable | None = None

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError("regularization weight must be finite and positive")
        if self.bounds is not None and not self.bounds[0] < self.bounds[1]:
            raise ValueError("bounds must satisfy u_a < u_b")


class CellPolyControl:
    """Piecewise polynomial control in the cell or reconstruction basis."""

    has_kinks = False

    def __init__(self, space, coeffs, basis):
        self.space = space
        self.coeffs = np.asarray(coeffs)
        self.basis = basis  # 'cell' | 'recon'

    def at_nodes(self):
        """Values at the nodes of the space's ``NodeTable``."""
        return self.space.nodes().values(
            "Vl" if self.basis == "cell" else "Vr", self.coeffs)


@dataclass
class OptimalitySolution:
    """State, adjoint and control returned by a scheme solver."""

    scheme: str
    y: HhoVector
    phi: HhoVector
    control: object
    control_hat: HhoVector | None = None
    iterations: int | None = None
    residuals: dict = field(default_factory=dict)


def _check_equal_order(space, prob, scheme):
    if prob.bounds is not None:
        raise ValueError("unconstrained scheme called with bounds")
    if space.cell_degree != space.face_degree or not space.dirichlet:
        raise ValueError(f"{scheme} requires the equal-order zero-trace space")


def _solve_two_field(space, prob, scheme, recon=False):
    """Two-field system with the control eliminated as u = -phi / lambda.

    [A, C / lam; -C, A] (y; phi) = (F_f; -F_yd) with the state lifted by the
    boundary data.  C is the cell mass matrix and the loads are tested
    against cell polynomials; with ``recon`` C is the reconstruction mass
    matrix B = G^T M_{k+1} G and the loads are tested against
    reconstructions.
    """
    lam = prob.lam
    if recon:
        C, load = space.recon_mass_matrix(), recon_load_vector
    else:
        C, load = space.cell_mass_matrix(), cell_load_vector
    A = space.stiffness_matrix()
    system = OptimalitySystem([space, space], [[A, C / lam], [-C, A]])
    y, phi = system.solve(
        [load(space, prob.f), -load(space, prob.y_d)],
        [space.boundary_values(prob.state_boundary), None])
    residuals = dict(zip(("state", "adjoint"), system.residuals))
    residuals["control"] = 0.0  # eliminated exactly

    if recon:
        u_hat = HhoVector(space, -phi.values / lam)
        control = CellPolyControl(space, reconstruct_all(space, u_hat), "recon")
    else:
        u_hat = None
        nc = space.mesh.n_cells
        control = CellPolyControl(
            space, -phi.values[:space.n_cell_dofs].reshape(nc, space.cell_dim)
            / lam, "cell")
    return OptimalitySolution(scheme, y, phi, control, control_hat=u_hat,
                              residuals=residuals)


def solve_uc1(space, prob):
    """Cell-polynomial control of degree k; state and adjoint in the k-space."""
    _check_equal_order(space, prob, "uc1")
    return _solve_two_field(space, prob, "uc1")


def solve_uc2(space, prob):
    """Variational discretization; algebraically identical to the uc1 system."""
    _check_equal_order(space, prob, "uc2")
    return _solve_two_field(space, prob, "uc2")


def solve_uc31(space, prob):
    """Full reconstruction: control R u with all loads tested against R w.

    The elimination u_hat = -phi_hat / lambda is exact because reconstructions
    of the zero-trace unknowns lie inside the control space, so the blocks
    reduce to the reconstruction mass matrix B = G^T M_{k+1} G.
    """
    _check_equal_order(space, prob, "uc31")
    if space.face_degree not in (0, 1):
        raise UnsupportedDegreeError(
            f"full reconstruction supports k in {{0, 1}}, got k={space.face_degree}")
    return _solve_two_field(space, prob, "uc31", recon=True)


def _cross_coupling(space, control_space):
    """Matrix of (R_c u, w_T): state cell tests against control reconstructions.

    Kernel groups depend only on the mesh, so both spaces' groups hold the
    same cells; each cell's block is Vl^T (w * Vr_c) G_c at the state nodes.
    """
    nodes = control_space.nodes()
    dl = space.cell_dim

    def triplets():
        for g, cg in zip(space.kernel_groups(), nodes.groups):
            k, rows = g.kernels, g.rows
            Vr_c = nodes.basis_at("Vr", g.cells,
                                  k["qp"][rows] + g.centroids[:, None, :])
            block = (np.swapaxes(k["Vl"][rows], 1, 2)
                     @ (k["qw"][rows][..., None] * Vr_c) @ cg.kernels["G"][cg.rows])
            yield g.dofs[:, :dl], cg.dofs, block

    return scatter_blocks((space.n_dofs, control_space.n_dofs), triplets())


def solve_uc32(space, prob, control_space=None):
    """Partial reconstruction: mixed-order state/adjoint, control in R(V_h^k).

    The control block (R u, R v) is singular on the kernel of the global
    reconstruction (only R u_hat is determined), so the three-field system
    carries a 1e-12-scaled pinning of the control DOFs to select a
    representative; the residuals reported are those of the pinned system.
    """
    if prob.bounds is not None:
        raise ValueError("unconstrained scheme called with bounds")
    k = space.face_degree
    if k < 2:
        raise UnsupportedDegreeError(
            f"partial reconstruction requires k >= 2, got k={k}")
    if space.cell_degree != k + 1 or not space.dirichlet:
        raise ValueError("uc32 requires the mixed-order zero-trace space")
    if control_space is None:
        control_space = HhoSpace(space.mesh, k, dirichlet=False)
    if (control_space.mesh is not space.mesh or control_space.face_degree != k
            or control_space.dirichlet):
        raise ValueError("control space must be the unconstrained k-space "
                         "on the state mesh")

    lam = prob.lam
    A = space.stiffness_matrix()
    M = space.cell_mass_matrix()
    K = _cross_coupling(space, control_space)
    B = control_space.recon_mass_matrix()
    eps = 1e-12 * lam * B.diagonal().max()
    C = (lam * B + eps * sp.identity(control_space.n_dofs, format="csr")).tocsr()

    system = OptimalitySystem([space, space, control_space],
                              [[A, None, -K], [-M, A, None], [None, K.T, C]])
    y, phi, u_hat = system.solve(
        [cell_load_vector(space, prob.f), -cell_load_vector(space, prob.y_d),
         np.zeros(control_space.n_dofs)],
        [space.boundary_values(prob.state_boundary), None, None])
    residuals = dict(zip(("state", "adjoint", "control"), system.residuals))
    control = CellPolyControl(control_space,
                              reconstruct_all(control_space, u_hat), "recon")
    return OptimalitySolution("uc32", y, phi, control, control_hat=u_hat,
                              residuals=residuals)

