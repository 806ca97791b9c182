"""Discrete optimality systems for the unconstrained control schemes.

All four schemes minimize a strictly convex quadratic, so the unique
minimizer is the solution of the coupled optimality system.  The control is
eliminated analytically where elimination is exact (cell-polynomial and full
reconstruction controls), leaving a system in the state and adjoint that is
solved as one complex sparse system in y + i phi / sqrt(lambda).  The
partial-reconstruction scheme keeps its control unknowns, since only the
reconstruction of its control is determined (the global reconstruction has
a kernel) and a pointwise elimination through the adjoint is not available
there; it eliminates the state and adjoint instead and solves for the
control by ``reduced_hessian_cg``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .hho_core import (HhoSpace, OptimalitySystem, SolverError,
                       cell_load_vector, recon_load_vector, reconstruct_all,
                       reduced_hessian_cg, scatter_blocks)

UC32_REDUCTION = 1e-13  # of the uc32 CG residual, in the C-norm


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
    """State, adjoint and control returned by a scheme solver.

    ``y``, ``phi`` and ``control_hat`` are DOF vectors (flat arrays);
    ``residuals`` holds each equation's residual relative to the whole
    right-hand side (for uc1, uc2 and uc31 the real and imaginary parts of
    the complex system's residual, see ``_solve_two_field``);
    ``refinement`` the solve's iterative-refinement steps and final
    relative residual (``OptimalitySystem.refinement``).
    """

    scheme: str
    y: np.ndarray
    phi: np.ndarray
    control: object
    control_hat: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)
    refinement: dict = field(default_factory=dict)


def _check_space(space, prob, scheme, order="equal"):
    if prob.bounds is not None:
        raise ValueError("unconstrained scheme called with bounds")
    mixed = order == "mixed"
    if space.cell_degree != space.face_degree + mixed or not space.dirichlet:
        raise ValueError(f"{scheme} requires the {order}-order zero-trace space")


def _solve_two_field(space, prob, scheme, recon=False):
    """Two-field system with the control eliminated as u = -phi / lambda.

    [A, C / lam; -C, A] (y; phi) = (F_f; -F_yd) with the state lifted by the
    boundary data.  C is the cell mass matrix and the loads are tested
    against cell polynomials; with ``recon`` C is the reconstruction mass
    matrix B = G^T M_{k+1} G and the loads are tested against
    reconstructions.  With s = sqrt(lam) the system is the complex one
    (A - i C / s) z = F_f - i F_yd / s in z = y + i phi / s: its real part
    is the state equation and its imaginary part the adjoint equation over
    s.  The residuals "state" and "adjoint" are the real and imaginary
    parts of its residual, relative to the complex right-hand side.
    """
    lam = prob.lam
    s = np.sqrt(lam)
    if recon:
        C, load = space.recon_mass_matrix(), recon_load_vector
    else:
        C, load = space.cell_mass_matrix(), cell_load_vector
    system = OptimalitySystem(space, space.stiffness_matrix() - 1j / s * C)
    z = system.solve(load(space, prob.f) - 1j / s * load(space, prob.y_d),
                     space.boundary_values(prob.state_boundary))
    y, phi = z.real.copy(), s * z.imag
    r = system.residual
    residuals = {"state": float(np.linalg.norm(r.real)),
                 "adjoint": float(np.linalg.norm(r.imag)),
                 "control": 0.0}  # eliminated exactly

    if recon:
        u_hat = -phi / lam
        control = CellPolyControl(space, reconstruct_all(space, u_hat), "recon")
    else:
        u_hat = None
        control = CellPolyControl(space, -space.cell_blocks(phi) / lam, "cell")
    return OptimalitySolution(scheme, y, phi, control, control_hat=u_hat,
                              residuals=residuals,
                              refinement=system.refinement)


def solve_uc1(space, prob):
    """Cell-polynomial control of degree k; state and adjoint in the k-space."""
    _check_space(space, prob, "uc1")
    return _solve_two_field(space, prob, "uc1")


def solve_uc2(space, prob):
    """Variational discretization; algebraically identical to the uc1 system."""
    _check_space(space, prob, "uc2")
    return _solve_two_field(space, prob, "uc2")


def solve_uc31(space, prob):
    """Full reconstruction: control R u with all loads tested against R w.

    The elimination u_hat = -phi_hat / lambda is exact because reconstructions
    of the zero-trace unknowns lie inside the control space, so the blocks
    reduce to the reconstruction mass matrix B = G^T M_{k+1} G.
    """
    _check_space(space, prob, "uc31")
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


def solve_uc32(space, prob):
    """Partial reconstruction: mixed-order state/adjoint, control in R(V_h^k).

    The system is A y = F_f + K u, A phi = M y - F_yd, K^T phi + C u = 0,
    C = lambda B plus a 1e-12-scaled pinning: B is singular on the kernel of
    the global reconstruction, and only R u_hat is determined.
    ``reduced_hessian_cg`` solves u + C^{-1} K^T phi(u) = 0 from u = 0 in the
    C inner product (spectrum in [1, 1 + ||S||^2 / lambda]); the state and
    adjoint are then refined once.  ``residuals`` are relative to the whole
    right-hand side; ``refinement`` is the adjoint solve's plus ``cg_steps``.
    """
    _check_space(space, prob, "uc32", "mixed")
    k = space.face_degree
    if k < 2:
        raise UnsupportedDegreeError(
            f"partial reconstruction requires k >= 2, got k={k}")
    control_space = HhoSpace(space.mesh, k, dirichlet=False)

    A = space.stiffness_matrix()
    M = space.cell_mass_matrix()
    K = _cross_coupling(space, control_space)
    B = control_space.recon_mass_matrix()
    n_u = control_space.n_dofs
    eps = 1e-12 * prob.lam * B.diagonal().max()
    C = (prob.lam * B + eps * sp.identity(n_u, format="csr")).tocsr()
    pde = OptimalitySystem(space, A)
    mass = OptimalitySystem(control_space, C)

    F_f = cell_load_vector(space, prob.f)
    F_yd = cell_load_vector(space, prob.y_d)
    g = space.boundary_values(prob.state_boundary)
    y = pde.solve(F_f, g)
    phi = pde.solve(M @ y - F_yd)
    u_hat, y, phi, steps = reduced_hessian_cg(  # exact CG ends in n_u steps
        pde, M, K.dot, lambda phi: mass.lu_solve(K.T @ phi),
        lambda a, b: np.einsum("i,i->", a, C @ b), np.zeros(n_u), y, phi,
        UC32_REDUCTION, n_u)
    y = pde.solve(F_f + K @ u_hat, g, start=y)
    phi = pde.solve(M @ y - F_yd, start=phi)

    act, fix = space.active_dofs, space.fixed_dofs
    rhs = np.linalg.norm(np.append((F_f - A[:, fix] @ g)[act], F_yd[act]))
    parts = ((F_f + K @ u_hat - A @ y)[act], (M @ y - F_yd - A @ phi)[act],
             K.T @ phi + C @ u_hat)
    residuals = {name: float(np.linalg.norm(r) / (rhs or 1.0)) for name, r
                 in zip(("state", "adjoint", "control"), parts)}
    if not np.linalg.norm(parts[2]) <= OptimalitySystem.RESIDUAL_TOL * rhs:
        raise SolverError(f"uc32 control residual {residuals['control']:.3e} "
                          "exceeds 1e-10", residual=residuals["control"])
    control = CellPolyControl(control_space,
                              reconstruct_all(control_space, u_hat), "recon")
    return OptimalitySolution("uc32", y, phi, control, control_hat=u_hat,
                              residuals=residuals,
                              refinement=dict(pde.refinement, cg_steps=steps))
