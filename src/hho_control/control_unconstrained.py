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
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .hho_core import (HhoSpace, OptimalitySystem, SolverError,
                       node_load_vector, recon_load_vector, reconstruct_all,
                       reduced_hessian_cg, scatter_blocks)
from .mesh import is_real

UC32_REDUCTION = 1e-13  # of the uc32 CG residual, in the C-norm


class UnsupportedDegreeError(ValueError):
    """A face degree k that the scheme's rule (``SCHEMES``) does not admit."""


@dataclass(frozen=True)
class ExactTriple:
    """Optimal triple of a manufactured-solution study.

    The closed forms (callables) of a problem, or their values at a point
    set (arrays, in a ``FieldSample``).
    """

    y: callable
    phi: callable
    u: callable


class FieldSample(NamedTuple):
    """A problem's fields at one point set (``ControlProblem.sample``).

    ``exact`` holds the values of the exact triple, None for a problem
    without ``exact``.
    """

    f: np.ndarray
    y_d: np.ndarray
    exact: ExactTriple | None


@dataclass(frozen=True)
class ControlProblem:
    """Data of the tracking problem: source, target, weight, optional bounds.

    Frozen: the exact control and ``sampler`` read the weight and bounds
    the problem was checked with.  ``sampler`` (``make_problem`` sets it)
    returns ``sample``'s ``FieldSample`` with the bits of the callables.
    """

    f: callable
    y_d: callable
    lam: float
    bounds: tuple | None = None
    exact: ExactTriple | None = None
    state_boundary: callable | None = None
    sampler: callable | None = None

    def __post_init__(self):
        from .control_constrained import AdmissibleBox  # it imports this module
        if not (is_real(self.lam) and np.isfinite(self.lam) and self.lam > 0):
            raise ValueError("regularization weight lambda must be a finite, "
                             f"positive real number, got {self.lam!r}")
        if self.bounds is not None:
            if np.shape(self.bounds) != (2,):
                raise ValueError(f"bounds must be a pair, got {self.bounds!r}")
            AdmissibleBox(*self.bounds)

    def sample(self, points):
        """``FieldSample`` of f, y_d and the exact y, phi and u at ``points``.

        Through ``sampler`` when set, else one call of each callable.
        """
        if self.sampler is not None:
            return self.sampler(points)
        ex = self.exact
        exact = None if ex is None else ExactTriple(ex.y(points),
                                                    ex.phi(points), ex.u(points))
        return FieldSample(self.f(points), self.y_d(points), exact)


def load_vectors(space, prob, load=node_load_vector):
    """``load`` of f and y_d from one ``prob.sample`` at ``space.nodes()``.

    ``load`` is ``node_load_vector`` or ``recon_load_vector``.  Returns
    ``(F_f, F_yd, exact)``, ``exact`` the sample's ``ExactTriple`` of node
    arrays: a solver keeps it on its solution, so the errors of a level
    reuse it, and the sampled f and y_d are dropped here.  The uc solvers
    call this after their factorization, whose fill sets their peak memory;
    the wc loop calls it before, since its peak comes later, in the loop
    (measured on wc2 Cartesian 32, sampling first keeps that peak lowest).
    """
    sample = prob.sample(space.nodes().points)
    return load(space, sample.f), load(space, sample.y_d), sample.exact


# scheme -> ((lowest, highest or None) face degree k, cell degree k + 1
# rather than k, bounds required rather than rejected)
SCHEMES = {
    "uc1": ((0, None), False, False),
    "uc2": ((0, None), False, False),
    "uc31": ((0, 1), False, False),
    "uc32": ((2, None), True, False),
    "wc1": ((0, 0), False, True),
    "wc2": ((1, 1), True, True),
}


def check_scheme(name, k, bounds, space=None):
    """The one check of a scheme's face degree k, bounds and optional space."""
    (lo, hi), mixed, bounded = SCHEMES[name]
    if k < lo or (hi is not None and k > hi):
        allowed = (f"k >= {lo}" if hi is None else
                   "k in {" + ", ".join(map(str, range(lo, hi + 1))) + "}")
        raise UnsupportedDegreeError(f"{name} supports {allowed} only, "
                                     f"got k={k}")
    if bounded != (bounds is not None):
        raise ValueError(f"{name}: bounds " + ("required" if bounded
                                               else "are not admissible"))
    if space is not None and (space.cell_degree != k + mixed
                              or not space.dirichlet):
        raise ValueError(f"{name} requires the zero-trace space of cell "
                         f"degree {k + mixed} and face degree {k}")


class CellPolyControl:
    """Piecewise polynomial control in the cell or reconstruction basis.

    ``basis`` names its ``NodeTable`` table: "Vl" (cell) or "Vr"
    (reconstruction).
    """

    has_kinks = False

    def __init__(self, space, coeffs, basis):
        self.space = space
        self.coeffs = np.asarray(coeffs)
        self.basis = basis

    def at_nodes(self):
        """Values at the nodes of the space's ``NodeTable``."""
        return self.space.nodes().values(self.basis, self.coeffs)


@dataclass
class OptimalitySolution:
    """State, adjoint and control returned by a scheme solver.

    ``y``, ``phi`` and ``control_hat`` are DOF vectors (flat arrays);
    ``residuals`` holds each equation's residual relative to the whole
    right-hand side (for uc1, uc2 and uc31 the real and imaginary parts of
    the complex system's residual, see ``_solve_two_field``);
    ``refinement`` the solve's iterative-refinement steps and final
    relative residual (``OptimalitySystem.refinement``);
    ``exact_at_nodes`` the exact triple at the nodes of ``space.nodes()``,
    sampled with the loads (``load_vectors``).
    """

    scheme: str
    y: np.ndarray
    phi: np.ndarray
    control: object
    control_hat: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)
    refinement: dict = field(default_factory=dict)
    exact_at_nodes: ExactTriple | None = None


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
        C, load = space.cell_mass_matrix(), node_load_vector
    system = OptimalitySystem(space, space.stiffness_matrix() - 1j / s * C)
    F_f, F_yd, exact = load_vectors(space, prob, load)
    z = system.solve(F_f - 1j / s * F_yd,
                     space.boundary_values(prob.state_boundary))
    y, phi = z.real.copy(), s * z.imag
    r = system.residual
    residuals = {"state": float(np.linalg.norm(r.real)),
                 "adjoint": float(np.linalg.norm(r.imag)),
                 "control": 0.0}  # eliminated exactly

    if recon:
        u_hat = -phi / lam
        control = CellPolyControl(space, reconstruct_all(space, u_hat), "Vr")
    else:
        u_hat = None
        control = CellPolyControl(space, -space.cell_blocks(phi) / lam, "Vl")
    return OptimalitySolution(scheme, y, phi, control, control_hat=u_hat,
                              residuals=residuals,
                              refinement=system.refinement,
                              exact_at_nodes=exact)


def solve_uc1(space, prob):
    """Cell-polynomial control of degree k; state and adjoint in the k-space."""
    check_scheme("uc1", space.face_degree, prob.bounds, space)
    return _solve_two_field(space, prob, "uc1")


def solve_uc2(space, prob):
    """Variational discretization; algebraically identical to the uc1 system."""
    check_scheme("uc2", space.face_degree, prob.bounds, space)
    return _solve_two_field(space, prob, "uc2")


def solve_uc31(space, prob):
    """Full reconstruction: control R u with all loads tested against R w.

    The elimination u_hat = -phi_hat / lambda is exact because reconstructions
    of the zero-trace unknowns lie inside the control space, so the blocks
    reduce to the reconstruction mass matrix B = G^T M_{k+1} G.
    """
    check_scheme("uc31", space.face_degree, prob.bounds, space)
    return _solve_two_field(space, prob, "uc31", recon=True)


def _cross_coupling(space, control_space):
    """Matrix of (R_c u, w_T): state cell tests against control reconstructions.

    Kernel groups depend only on the mesh, so both spaces' groups hold the
    same cells; each cell's block is Vl^T (w * Vr) G_c at the state nodes,
    where the state's Vr (degree k + 1) is the control's reconstruction basis.
    """
    dl = space.cell_dim

    def triplets():
        for g, cg in zip(space.kernel_groups(), control_space.kernel_groups()):
            k, rows = g.kernels, g.rows
            block = (np.swapaxes(k["Vl"][rows], 1, 2)
                     @ (k["qw"][rows][..., None] * k["Vr"][rows])
                     @ cg.kernels["G"][cg.rows])
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
    k = space.face_degree
    check_scheme("uc32", k, prob.bounds, space)
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

    F_f, F_yd, exact = load_vectors(space, prob)
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
    # R u_hat on the state space's nodes, whose Vr is the control's
    # reconstruction basis (degree k + 1)
    control = CellPolyControl(space, reconstruct_all(control_space, u_hat),
                              "Vr")
    return OptimalitySolution("uc32", y, phi, control, control_hat=u_hat,
                              residuals=residuals,
                              refinement=dict(pde.refinement, cg_steps=steps),
                              exact_at_nodes=exact)
