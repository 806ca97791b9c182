"""Box-constrained schemes solved by one primal-dual active-set Newton loop.

wc1 (piecewise constant controls) and wc2 (variational discretization,
Hinze, Comput. Optim. Appl. 30 (2005) 45-61) share the loop.  The control
is carried by its values u at every cell quadrature node; Q
(``NodeTable.cell_vals``) maps a DOF vector to its cell polynomials at the
nodes and W holds the node weights.  The discrete optimality condition is
the fixed point u = P(-Q phi / lambda), P the clamp onto the box and phi
the adjoint of the state of u.  On the k = 0 space of wc1 the adjoint cell
unknown is constant per cell, so every node of a cell carries the same value
and the clamp is wc1's P(-mean phi_T / lambda).

The loop is the primal-dual active-set method (Hintermueller, Ito &
Kunisch, SIAM J. Optim. 13 (2002) 865-888), a semismooth Newton method for
that fixed point, run at the nodes.  A step takes z = -Q phi / lambda,
sets u to the bound on the active nodes, where z lies outside [u_a, u_b],
and solves u + Q phi(u) / lambda = 0 on the free nodes by
``reduced_hessian_cg`` in the W inner product, to a residual reduction of
``CG_REDUCTION``: two unrefined solves with the one stiffness factorization
per CG step, with a spectrum in [1, 1 + ||S*S|| / lambda], S the
control-to-state map (||S*S|| = (2 pi^2)^{-2}, about 2.6e-3, on the unit
square).

The first step starts from the empty active set, so it solves the problem
without bounds.  Once the predicted active set repeats, every step first
recomputes the state and adjoint by a refined ``OptimalitySystem.solve``
from the carried vectors, and the loop stops when the fixed-point residual
||P(z) - u||_W is at most ``PgdConfig.tol`` and has stopped shrinking (or
the last step allowed is taken), or is below eps ||u||_W.  Iterating to
that round-off floor makes the result independent of the LU ordering.  The
control returned is the clamp P(z).  The floor grows like
eps ||u|| ||S*S|| / lambda: one above tol (inactive bounds, lambda 1e-5)
raises PgdIterationError once the residual stops shrinking, and an active
set that cycles (much smaller lambda) after ``max_iters`` steps.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .control_unconstrained import CellPolyControl
from .hho_core import (OptimalitySystem, SolverError, cell_load_vector,
                       linear_response, reduced_hessian_cg)

# residual reduction of each CG solve; a wc2 Cartesian 32 level took 38 LU
# solves with 1e-2 (more Newton steps), 40 with 1e-4 (more CG steps), 34 here
CG_REDUCTION = 1e-3
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class AdmissibleBox:
    """Pointwise control bounds u_a <= u <= u_b."""

    u_a: float
    u_b: float

    def __post_init__(self):
        if not self.u_a < self.u_b:
            raise ValueError("admissible box requires u_a < u_b")


def project_box(w, box):
    """Clamp onto [u_a, u_b]; exact comparisons, identity inside the box."""
    return np.minimum(box.u_b, np.maximum(box.u_a, w))


@dataclass
class PgdConfig:
    """Stopping rule of the active-set Newton loop.

    ``max_iters`` caps the Newton steps and the CG steps of each one;
    ``tol`` bounds the W-norm of the fixed-point residual
    P(-Q phi / lambda) - u at the nodes.
    """

    max_iters: int = 500
    tol: float = 1e-10

    def __post_init__(self):
        n = self.max_iters
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {n!r}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and positive")


class PgdIterationError(Exception):
    """Newton loop or CG out of max_iters steps, or stalled above tol.

    ``final_increment`` is the last fixed-point residual, or the floor.
    """

    def __init__(self, message, final_increment):
        self.final_increment = final_increment
        super().__init__(message)


class ClampedAdjointControl:
    """Variational-discretization control u(x) = P_box(-phi_T(x) / lambda).

    Stored as its values at the space's ``NodeTable`` nodes (``samples``, one
    flat array in node order); evaluation anywhere (``at_points``)
    uses the clamp formula on the adjoint cell polynomial, which is what the
    samples are.  The clamp kinks along the active-set boundary
    (``has_kinks``), which the control error integrates with a refined rule.
    """

    has_kinks = True

    def __init__(self, space, phi, lam, box, samples):
        self.space = space
        self.phi = phi
        self.lam = lam
        self.box = box
        self.samples = samples

    def at_points(self, cells, points):
        """Values at stacked points ``(n, q, 2)``, one row per cell of ``cells``."""
        basis = self.space.nodes().basis_at("Vl", cells, points)
        phi = (basis @ self.space.cell_blocks(self.phi)[cells][..., None])[..., 0]
        return project_box(-phi / self.lam, self.box)

    def _unclamped(self):
        return -self.space.nodes().values(
            "Vl", self.space.cell_blocks(self.phi)) / self.lam

    def at_nodes(self):
        """Values at the nodes of the space's ``NodeTable``."""
        return project_box(self._unclamped(), self.box)

    def kinked_cells(self):
        """Cells whose nodes straddle a bound: the active-set boundary crosses them."""
        w, starts = self._unclamped(), self.space.nodes().starts
        lo, hi = np.minimum.reduceat(w, starts), np.maximum.reduceat(w, starts)
        crosses = np.zeros(len(starts), dtype=bool)
        for bound in (self.box.u_a, self.box.u_b):
            crosses |= (lo < bound) & (bound < hi)
        return np.nonzero(crosses)[0]


@dataclass
class ConstrainedSolution:
    """State and adjoint (DOF vectors) and control of a constrained scheme.

    ``iterations`` counts the Newton steps, ``cg_steps`` the CG steps of
    all of them and ``final_increment`` is the last fixed-point residual.
    With ``keep_history``, ``history`` holds the control at the nodes of
    ``space.nodes()`` at the start and the clamp P(-Q phi / lambda) after
    each Newton step, each inside the box.
    """

    scheme: str
    y: np.ndarray
    phi: np.ndarray
    control: object
    iterations: int
    final_increment: float
    cg_steps: int
    history: list | None = None


def _w_norm(v, w, starts):
    """W-weighted L2 norm of a node array, cell sums added smallest first."""
    return float(np.sqrt(np.sum(np.sort(np.add.reduceat(w * v * v, starts)))))


def _active_set_newton(space, prob, cfg, keep_history, scheme):
    """Primal-dual active-set Newton loop over the control's node values.

    Returns ``(clamp, y, phi, iterations, residual, cg_steps, history)``:
    the clamp P(-Q phi / lambda) at the nodes of ``space.nodes()``, the
    state and adjoint of the last iterate, and every iterate's clamp (node
    arrays too) when ``keep_history`` is set.
    """
    if prob.bounds is None:
        raise ValueError("bounds required for constrained schemes")
    cfg = cfg or PgdConfig()
    box = AdmissibleBox(*prob.bounds)
    lam = prob.lam
    # the state carries the boundary data, the adjoint is zero on it
    system = OptimalitySystem(space, space.stiffness_matrix())
    g = space.boundary_values(prob.state_boundary)
    M = space.cell_mass_matrix()
    F_f = cell_load_vector(space, prob.f)
    F_yd = cell_load_vector(space, prob.y_d)
    nodes = space.nodes()
    Q, w, starts = nodes.cell_vals, nodes.weights, nodes.starts

    def load(u):
        return Q.T @ (w * u)

    def solve_pde(u, y, phi):
        # one refinement step from the carried state and adjoint
        y = system.solve(F_f + load(u), g, start=y)
        phi = system.solve(M @ y - F_yd, start=phi)
        return y, phi

    u = project_box(np.zeros(len(w)), box)
    y, phi = solve_pde(u, np.zeros(space.n_dofs), np.zeros(space.n_dofs))
    history = [u] if keep_history else None
    # the first step starts from the empty active set: it solves the
    # problem without bounds, from which the active set is predicted
    lo = hi = np.zeros(len(w), dtype=bool)
    last, cg_steps = np.inf, 0
    for it in range(1, cfg.max_iters + 1):
        # Newton step: the bounds on the active nodes, CG on the free ones
        jump = np.where(lo, box.u_a, np.where(hi, box.u_b, u)) - u
        if jump.any():
            y_p, phi_p = linear_response(system, M, load(jump))
            u, y, phi = u + jump, y + y_p, phi + phi_p
        # on the free nodes the residual -(u + Q phi / lambda) is P(z) - u
        try:
            u, y, phi, steps = reduced_hessian_cg(
                system, M, load, lambda phi: (Q @ phi) / lam,
                lambda a, b: np.einsum("i,i,i->", w, a, b), u, y, phi,
                CG_REDUCTION, cfg.max_iters, free=~(lo | hi))
        except SolverError as exc:
            raise PgdIterationError(f"{scheme}: {exc}", exc.residual) from None
        cg_steps += steps

        z = -(Q @ phi) / lam
        settled = (np.array_equal(lo, z < box.u_a)
                   and np.array_equal(hi, z > box.u_b))
        if settled:
            # the active set stopped changing: restore the accuracy the
            # carried vectors lost to the unrefined solves
            y, phi = solve_pde(u, y, phi)
            z = -(Q @ phi) / lam
        lo, hi = z < box.u_a, z > box.u_b
        clamp = project_box(z, box)
        residual = _w_norm(clamp - u, w, starts)
        if keep_history:
            history.append(clamp)
        # stop below the resolution of u, or below tol once the residual
        # stops shrinking or the last step allowed is taken
        if settled and (residual <= _EPS * _w_norm(u, w, starts) or (
                residual <= cfg.tol
                and (not residual < last or it == cfg.max_iters))):
            break
        if settled and cfg.tol < last <= residual:  # a floor above tol
            raise PgdIterationError(
                f"{scheme}: the fixed-point residual stopped shrinking at "
                f"{last:.3e}, above tol {cfg.tol:.0e}, after {it} Newton "
                "steps", last)
        last = residual if settled else np.inf
    else:
        raise PgdIterationError(
            f"{scheme} did not converge in {cfg.max_iters} Newton steps "
            f"(last residual {residual:.3e})", residual)
    return clamp, y, phi, it, residual, cg_steps, history


def solve_wc1(space, prob, cfg=None, keep_history=False):
    """Lowest-order scheme: piecewise constant control, k = 0 state/adjoint."""
    if space.cell_degree != 0 or space.face_degree != 0 or not space.dirichlet:
        raise ValueError("wc1 requires the zero-trace k = 0 space")
    u, y, phi, *rest = _active_set_newton(space, prob, cfg, keep_history, "wc1")
    control = CellPolyControl(space, u[space.nodes().starts][:, None], "cell")
    return ConstrainedSolution("wc1", y, phi, control, *rest)


def solve_wc2(space, prob, cfg=None, keep_history=False):
    """Variational discretization on the mixed-order space V^{1+}.

    The control is never discretized: it is the pointwise clamp of the adjoint
    cell polynomial, carried as samples at the cell quadrature nodes, which is
    exact for every load the scheme needs.
    """
    if space.cell_degree != 2 or space.face_degree != 1 or not space.dirichlet:
        raise ValueError("wc2 requires the zero-trace mixed space V^{1+}")
    u, y, phi, *rest = _active_set_newton(space, prob, cfg, keep_history, "wc2")
    control = ClampedAdjointControl(space, phi, prob.lam,
                                    AdmissibleBox(*prob.bounds), u)
    return ConstrainedSolution("wc2", y, phi, control, *rest)
