"""Box-constrained schemes solved by one primal-dual active-set Newton loop.

wc1 (piecewise constant controls) and wc2 (variational discretization,
Hinze, Comput. Optim. Appl. 30 (2005) 45-61) share the loop.  The control
u is known by its values at every cell quadrature node; Q maps cell
coefficients to their polynomials at the nodes (``NodeTable.values``), W
holds the node weights and the load Q^T W u is the cell moments of u
(``NodeTable.moments``), both applied class by class.  The discrete
optimality condition is the fixed point u = P(-Q phi / lambda), P the clamp
onto the box and phi the adjoint of the state of u.  Both schemes return
P(-phi_T / lambda), the clamp of uc1's and uc2's control, as a
``CellPolyControl`` with the box.  On the k = 0 space of wc1 the adjoint
cell unknown is constant per cell, so every node of a cell carries the
same value, the clamp is wc1's P(-mean phi_T / lambda) and no cell is
kinked.

The loop is the primal-dual active-set method (Hintermueller, Ito &
Kunisch, SIAM J. Optim. 13 (2002) 865-888), a semismooth Newton method for
that fixed point.  A step takes z = -Q phi / lambda, sets u to the bound
on the active nodes, where z lies outside [u_a, u_b], and to Q c on the
free ones, and solves c + phi_T / lambda = 0 there by ``reduced_hessian_cg``
in <a, M_F b>, the W inner product on the free nodes (Hinze & Vierling,
Optim. Methods Softw. 27 (2012) 933-950).  M_F = Q^T W chi_F Q is the cell
mass over the free nodes (``NodeTable.free_mass``) and the load of u is
m_b + M_F c, m_b the moments of the bounds: a CG step makes two unrefined
solves with the one stiffness factorization and no node product.  Its
spectrum lies in [1, 1 + ||S*S|| / lambda], S the control-to-state map
(||S*S|| = (2 pi^2)^{-2}, about 2.6e-3, on the unit square), and it stops
at a residual reduction of ``CG_REDUCTION``.  Only z, u and, when the
active set changes, m_b are node arrays.  The loop assembles no matrix:
the stiffness is its ``OptimalitySystem``'s, and the cell mass M of the
adjoint load M y_T is ``free_mass`` with every node free.

The first step starts from the empty active set, so it solves the problem
without bounds.  Once the predicted active set repeats, every step first
recomputes the state and adjoint by a refined ``OptimalitySystem.solve``
from the carried vectors, and the loop stops when the fixed-point residual
||P(z) - u||_W is at most ``PgdConfig.tol`` and has stopped shrinking (or
the last step allowed is taken), or is below eps ||u||_W.  Iterating to
that round-off floor makes the result independent of the LU ordering.  The
control is P(z) at the nodes, up to round-off.  The floor grows like
eps ||u|| ||S*S|| / lambda: one above tol (inactive bounds, lambda 1e-5)
raises PgdIterationError once the residual stops shrinking, and an active
set that cycles (much smaller lambda) after ``max_iters`` steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control_unconstrained import (AdmissibleBox, CellPolyControl,
                                    ExactTriple, check_scheme, load_vectors,
                                    project_box)
from .hho_core import (OptimalitySystem, SolverError, linear_response,
                       local_stiffness, reduced_hessian_cg, sorted_sum)
from .mesh import is_count, is_real

# residual reduction of each CG solve; a wc2 Cartesian 32 level took 38 LU
# solves with 1e-2 (more Newton steps), 42 with 1e-4 (more CG steps), 34 here
CG_REDUCTION = 1e-3
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class PgdConfig:
    """Stopping rule of the active-set Newton loop.

    ``max_iters`` caps the Newton steps and the CG steps of each one;
    ``tol`` bounds the W-norm of the fixed-point residual
    P(-Q phi / lambda) - u at the nodes.
    """

    max_iters: int = 500
    tol: float = 1e-10

    def __post_init__(self):
        n, tol = self.max_iters, self.tol
        if not (is_count(n) and n >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {n!r}")
        if not (is_real(tol) and np.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be a finite positive real, got {tol!r}")


class PgdIterationError(Exception):
    """Newton loop or CG out of max_iters steps, or stalled above tol.

    ``final_increment`` is the last fixed-point residual, or the floor.
    """

    def __init__(self, message, final_increment):
        self.final_increment = final_increment
        super().__init__(message)


@dataclass
class ConstrainedSolution:
    """State and adjoint (DOF vectors) and control of a constrained scheme.

    ``iterations`` counts the Newton steps, ``cg_steps`` the CG steps (on
    the cell coefficients) of all of them and ``final_increment`` is the
    last fixed-point residual ||P(z) - u||_W at the nodes.  With
    ``keep_history``, ``history`` holds the control at the nodes of
    ``space.nodes()``: P(0) at the start, whose cell L2 projection the loop
    starts from, and the clamp P(-Q phi / lambda) after each Newton step,
    each inside the box.  ``exact_at_nodes`` is the
    exact triple at those nodes, sampled with the loads (``load_vectors``).
    """

    scheme: str
    y: np.ndarray
    phi: np.ndarray
    control: object
    iterations: int
    final_increment: float
    cg_steps: int
    history: list | None = None
    exact_at_nodes: ExactTriple | None = None


def _w_norm(v, nodes):
    """W-weighted L2 norm of a node array, cell sums added smallest first."""
    sums = nodes.reduce_cells(np.add, nodes.weights * v * v)
    return math.sqrt(sorted_sum(sums))


def _active_set_newton(space, prob, cfg, keep_history, scheme):
    """Primal-dual active-set Newton loop over the control's cell coefficients.

    Returns the ``ConstrainedSolution`` of ``scheme``: the state and adjoint
    of the last iterate and the control P(-phi_T / lambda), the
    ``CellPolyControl`` of the cell polynomial -phi_T / lambda with the box.
    """
    check_scheme(scheme, space.face_degree, prob.bounds, space)
    cfg = cfg or PgdConfig()
    box = AdmissibleBox(*prob.bounds)
    lam = prob.lam
    F_f, F_yd, exact = load_vectors(space, prob)
    # the state carries the boundary data, the adjoint is zero on it
    system = OptimalitySystem(space, local_stiffness)
    g = space.boundary_values(prob.state_boundary)
    nodes = space.nodes()
    nt = space.n_cell_dofs

    def Q(cells):  # node values of flat cell coefficients
        return nodes.values("Vl", cells.reshape(-1, space.cell_dim))

    def solve_pde(load, y, phi):
        # one refinement step from the carried state and adjoint
        y = system.solve(F_f + space.cell_vector(load), g, start=y)
        phi = system.solve(space.cell_vector(M @ y[:nt]) - F_yd, start=phi)
        return y, phi

    def bounds_or(free_values):  # the bounds on the active nodes lo, hi
        return np.where(lo, box.u_a, np.where(hi, box.u_b, free_values))

    # start from c, the cell L2 projection of P(0), with every node free:
    # M_F is then the cell mass M, which the adjoint load M y_T keeps
    u = project_box(np.zeros(len(nodes.weights)), box)
    m_u = nodes.moments("Vl", u)
    M = M_F = nodes.free_mass(np.ones(len(u), bool))
    c = np.linalg.solve(M.data, m_u[..., None]).ravel()
    y, phi = solve_pde(m_u.ravel(), np.zeros(space.n_dofs),
                       np.zeros(space.n_dofs))
    history = [u] if keep_history else None
    # the first step starts from the empty active set: it solves the
    # problem without bounds, from which the active set is predicted
    lo = hi = np.zeros(len(u), dtype=bool)
    m_b, last, cg_steps = 0.0, np.inf, 0
    for it in range(1, cfg.max_iters + 1):
        # on the free nodes the residual -(u + Q phi / lambda) is P(z) - u
        try:
            c, y, phi, steps = reduced_hessian_cg(
                system, M, M_F.dot, lambda phi: phi[:nt] / lam,
                lambda a, b: np.einsum("i,i->", a, M_F @ b), c, y, phi,
                CG_REDUCTION, cfg.max_iters)
        except SolverError as exc:
            raise PgdIterationError(f"{scheme}: {exc}", exc.residual) from None
        cg_steps += steps

        z = -Q(phi[:nt]) / lam
        settled = np.array_equal((lo, hi), (z < box.u_a, z > box.u_b))
        if settled:
            # the active set stopped changing: restore the accuracy the
            # carried vectors lost to the unrefined solves
            y, phi = solve_pde(m_b + M_F @ c, y, phi)
            z = -Q(phi[:nt]) / lam
        u = bounds_or(Q(c))
        clamp = project_box(z, box)
        residual = _w_norm(clamp - u, nodes)
        if keep_history:
            history.append(clamp)
        # stop below the resolution of u, or below tol once the residual
        # stops shrinking or the last step allowed is taken
        if settled and (residual <= _EPS * _w_norm(u, nodes) or (
                residual <= cfg.tol
                and (not residual < last or it == cfg.max_iters))):
            break
        if settled and cfg.tol < last <= residual:  # a floor above tol
            raise PgdIterationError(
                f"{scheme}: the fixed-point residual stopped shrinking at "
                f"{last:.3e}, above tol {cfg.tol:.0e}, after {it} Newton "
                "steps", last)
        last = residual if settled else np.inf
        # Newton step: the bounds where z leaves the box, and their response
        if not np.array_equal((lo, hi), (z < box.u_a, z > box.u_b)):
            before, lo, hi = m_b + M_F @ c, z < box.u_a, z > box.u_b
            m_b = nodes.moments("Vl", bounds_or(0.0)).ravel()
            M_F = nodes.free_mass(~(lo | hi))
            y_p, phi_p = linear_response(system, M, m_b + M_F @ c - before)
            y, phi = y + y_p, phi + phi_p
    else:
        raise PgdIterationError(
            f"{scheme} did not converge in {cfg.max_iters} Newton steps "
            f"(last residual {residual:.3e})", residual)
    control = CellPolyControl(space, -space.cell_blocks(phi) / lam, "Vl", box)
    return ConstrainedSolution(scheme, y, phi, control, it, residual,
                               cg_steps, history, exact)


def solve_wc1(space, prob, cfg=None, keep_history=False):
    """Lowest-order scheme: piecewise constant control, k = 0 state/adjoint.

    The control is the clamp of the adjoint cell constant, so it is
    constant on each cell and no cell is kinked.
    """
    return _active_set_newton(space, prob, cfg, keep_history, "wc1")


def solve_wc2(space, prob, cfg=None, keep_history=False):
    """Variational discretization on the mixed-order space V^{1+}.

    The control is never discretized: it is the pointwise clamp of the adjoint
    cell polynomial -phi_T / lambda, whose values at the cell quadrature
    nodes are exact for every load the scheme needs.
    """
    return _active_set_newton(space, prob, cfg, keep_history, "wc2")
