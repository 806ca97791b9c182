"""Box-constrained schemes solved by one damped projected fixed-point loop.

wc1 (piecewise constant controls) and wc2 (variational discretization,
Hinze, Comput. Optim. Appl. 30 (2005) 45-61) share the loop.  The control
is carried by its values at every cell quadrature node.  Each iteration
solves the state and adjoint equations with the current control (one sparse
factorization of a_h is reused throughout; each solve is one step from the
previous iterate's state or adjoint, zero at the start, so the loop itself
does the iterative refinement of ``OptimalitySystem``), then moves the
control halfway
(theta = 1/2) towards the clamp P(-phi_T / lambda) of the adjoint cell
polynomial at the nodes.  On the k = 0 space of wc1 the adjoint cell unknown
is constant per cell, so every node of a cell carries the same value and the
clamp is wc1's update P(-mean phi_T / lambda).

Where the bounds are inactive the damped map is u -> u - theta (u + (S*S u
+ c) / lambda), with S the control-to-state operator, so it contracts only
when theta (1 + ||S*S|| / lambda) < 2: for theta = 1/2, when lambda >
||S*S|| / 3, about 8.6e-4 on the unit square (||S*S|| = (2 pi^2)^{-2}).
Active bounds clamp part of the control and the loop then converges for
smaller lambda too, as for the presets; with inactive bounds and small
lambda the iterates diverge and the solver raises PgdIterationError.  When
the map contracts the iterates converge linearly to the unique solution of
the discrete variational inequality.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .control_unconstrained import CellPolyControl
from .hho_core import OptimalitySystem, cell_load_vector

THETA = 0.5  # damping of the fixed-point map; see the contraction condition


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
    """Stopping rule of the projected fixed-point loop."""

    max_iters: int = 500
    tol: float = 1e-10

    def __post_init__(self):
        n = self.max_iters
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {n!r}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and positive")


class PgdIterationError(Exception):
    """Fixed point not reached within max_iters; carries the last increment."""

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

    With ``keep_history``, ``history`` holds the control at the nodes of
    ``space.nodes()`` at the start and after each iteration.
    """

    scheme: str
    y: np.ndarray
    phi: np.ndarray
    control: object
    iterations: int
    final_increment: float
    history: list | None = None


def _damped_projection(space, prob, cfg, keep_history, scheme):
    """Damped projected fixed-point loop over the cell quadrature nodes.

    Returns ``(u, y, phi, iterations, increment, history)``: the control at
    the nodes of ``space.nodes()``, the state and adjoint of that control,
    and every iterate (node arrays too) when ``keep_history`` is set.
    """
    if prob.bounds is None:
        raise ValueError("bounds required for constrained schemes")
    cfg = cfg or PgdConfig()
    box = AdmissibleBox(*prob.bounds)
    # the state carries the boundary data, the adjoint is zero on it
    system = OptimalitySystem([space], [[space.stiffness_matrix()]])
    g = space.boundary_values(prob.state_boundary)
    M = space.cell_mass_matrix()
    F_f = cell_load_vector(space, prob.f)
    F_yd = cell_load_vector(space, prob.y_d)
    nodes = space.nodes()
    Q, w, starts = nodes.cell_vals, nodes.weights, nodes.starts

    def solve_pde(u, y, phi):
        # one refinement step from the previous iterate's state and adjoint
        (y,) = system.solve([F_f + Q.T @ (w * u)], [g], start=[y])
        (phi,) = system.solve([M @ y - F_yd], start=[phi])
        return y, phi

    u = project_box(np.zeros(len(w)), box)
    history = [u] if keep_history else None
    increment = np.inf
    y = phi = np.zeros(space.n_dofs)
    for it in range(1, cfg.max_iters + 1):
        y, phi = solve_pde(u, y, phi)
        target = project_box(-(Q @ phi) / prob.lam, box)
        u_next = project_box((1.0 - THETA) * u + THETA * target, box)
        inc_sq = np.add.reduceat(w * (u_next - u) ** 2, starts)
        increment = float(np.sqrt(np.sum(np.sort(inc_sq))))
        u = u_next
        if keep_history:
            history.append(u)
        if increment <= cfg.tol:
            break
    else:
        raise PgdIterationError(
            f"{scheme} did not converge in {cfg.max_iters} iterations "
            f"(last increment {increment:.3e})", increment)
    y, phi = solve_pde(u, y, phi)
    return u, y, phi, it, increment, history


def solve_wc1(space, prob, cfg=None, keep_history=False):
    """Lowest-order scheme: piecewise constant control, k = 0 state/adjoint."""
    if space.cell_degree != 0 or space.face_degree != 0 or not space.dirichlet:
        raise ValueError("wc1 requires the zero-trace k = 0 space")
    u, y, phi, *rest = _damped_projection(space, prob, cfg, keep_history, "wc1")
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
    u, y, phi, *rest = _damped_projection(space, prob, cfg, keep_history, "wc2")
    control = ClampedAdjointControl(space, phi, prob.lam,
                                    AdmissibleBox(*prob.bounds), u)
    return ConstrainedSolution("wc2", y, phi, control, *rest)
