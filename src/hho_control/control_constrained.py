"""Box-constrained schemes solved by a damped projected fixed-point loop.

Each iteration solves the state and adjoint equations with the current
control (one sparse factorization of a_h is reused throughout), then projects
-phi_T / lambda onto the admissible box with under-relaxation.  Where the
bounds are inactive the damped map is u -> u - theta (u + (S*S u + c) /
lambda), with S the control-to-state operator, so it contracts only when
theta (1 + ||S*S|| / lambda) < 2: for theta = 1/2, when lambda > ||S*S|| / 3,
about 8.6e-4 on the unit square (||S*S|| = (2 pi^2)^{-2}).  Active bounds
clamp part of the control and the loop then converges for smaller lambda
too, as for the presets; with inactive bounds and small lambda the iterates
diverge and the solver raises PgdIterationError.  When the map contracts the
iterates converge linearly to the unique solution of the discrete
variational inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hho_core import HhoVector, OptimalitySystem, cell_load_vector
from .control_unconstrained import ControlProblem  # noqa: F401  (re-export)


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
    """Projected-gradient loop parameters; step is the damping factor theta."""

    max_iters: int = 500
    tol: float = 1e-10
    step: float | str = 0.5

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.step != "fixed-point" and not 0.0 < float(self.step) <= 1.0:
            raise ValueError("step must lie in (0, 1] or be 'fixed-point'")

    @property
    def theta(self):
        return 1.0 if self.step == "fixed-point" else float(self.step)


class PgdIterationError(Exception):
    """Fixed point not reached within max_iters; carries the last increment."""

    def __init__(self, message, final_increment):
        self.final_increment = final_increment
        super().__init__(message)


class CellConstantControl:
    """Piecewise constant control values, one per cell."""

    has_kinks = False

    def __init__(self, space, values):
        self.space = space
        self.values = np.asarray(values, dtype=float)

    def eval(self, op, points):
        return np.full(len(np.atleast_2d(points)), self.values[op.cell_id])


class ClampedAdjointControl:
    """Variational-discretization control u(x) = P_box(-phi_T(x) / lambda).

    Stored as quadrature-point samples; evaluation anywhere uses the clamp
    formula on the adjoint cell polynomial, which is what the samples are.
    The clamp kinks along the active-set boundary (``has_kinks``), which the
    control error integrates with a refined rule.
    """

    has_kinks = True

    def __init__(self, space, phi, lam, box, samples):
        self.space = space
        self.phi = phi
        self.lam = lam
        self.box = box
        self.samples = samples  # list of per-cell arrays at op.qpoints()

    def eval(self, op, points):
        b = op.cell_basis()
        phi_vals = b.eval(points) @ self.phi.cell_block(op.cell_id)
        return project_box(-phi_vals / self.lam, self.box)


@dataclass
class ConstrainedSolution:
    scheme: str
    y: HhoVector
    phi: HhoVector
    control: object
    iterations: int
    final_increment: float
    history: list | None = None


def _state_adjoint_solver(space, prob):
    """Map a control load to (state, adjoint), sharing one factorization.

    The state carries the problem's boundary data; the adjoint is zero on
    the boundary.
    """
    system = OptimalitySystem([space], [[space.stiffness_matrix()]])
    g = space.boundary_values(prob.state_boundary)
    M = space.cell_mass_matrix()
    F_f = cell_load_vector(space, prob.f)
    F_yd = cell_load_vector(space, prob.y_d)

    def solve(control_load):
        (y,) = system.solve([F_f + control_load], [g])
        (phi,) = system.solve([M @ y.values - F_yd])
        return y, phi

    return solve


def solve_wc1(space, prob, cfg=None, keep_history=False):
    """Lowest-order scheme: piecewise constant control, k = 0 state/adjoint."""
    if prob.bounds is None:
        raise ValueError("bounds required for constrained schemes")
    if space.cell_degree != 0 or space.face_degree != 0 or not space.dirichlet:
        raise ValueError("wc1 requires the zero-trace k = 0 space")
    cfg = cfg or PgdConfig()
    box = AdmissibleBox(*prob.bounds)
    theta = cfg.theta
    lam = prob.lam
    solve_pde = _state_adjoint_solver(space, prob)
    ops = space.local_ops()
    areas = np.array([op.measure for op in ops])
    int_cells = [op.int_cell for op in ops]

    u = project_box(np.zeros(space.mesh.n_cells), box)
    history = [u.copy()] if keep_history else None
    increment = np.inf
    for it in range(1, cfg.max_iters + 1):
        load = np.zeros(space.n_dofs)
        for op, iv in zip(ops, int_cells):
            load[space.cell_dofs(op.cell_id)] = u[op.cell_id] * iv
        y, phi = solve_pde(load)
        mean_phi = np.array([iv @ phi.cell_block(op.cell_id)
                             for op, iv in zip(ops, int_cells)]) / areas
        u_next = project_box((1.0 - theta) * u
                             + theta * project_box(-mean_phi / lam, box), box)
        increment = float(np.sqrt(np.sum(np.sort(areas * (u_next - u) ** 2))))
        u = u_next
        if keep_history:
            history.append(u.copy())
        if increment <= cfg.tol:
            break
    else:
        raise PgdIterationError(
            f"wc1 did not converge in {cfg.max_iters} iterations "
            f"(last increment {increment:.3e})", increment)

    load = np.zeros(space.n_dofs)
    for op, iv in zip(ops, int_cells):
        load[space.cell_dofs(op.cell_id)] = u[op.cell_id] * iv
    y, phi = solve_pde(load)
    return ConstrainedSolution("wc1", y, phi, CellConstantControl(space, u),
                               it, increment, history=history)


def solve_wc2(space, prob, cfg=None, keep_history=False):
    """Variational discretization on the mixed-order space V^{1+}.

    The control is never discretized: it is the pointwise clamp of the adjoint
    cell polynomial, carried as samples at the cell quadrature nodes, which is
    exact for every load the scheme needs.
    """
    if prob.bounds is None:
        raise ValueError("bounds required for constrained schemes")
    if space.cell_degree != 2 or space.face_degree != 1 or not space.dirichlet:
        raise ValueError("wc2 requires the zero-trace mixed space V^{1+}")
    cfg = cfg or PgdConfig()
    box = AdmissibleBox(*prob.bounds)
    theta = cfg.theta
    lam = prob.lam
    solve_pde = _state_adjoint_solver(space, prob)
    ops = space.local_ops()

    u = [project_box(np.zeros(len(op.qweights)), box) for op in ops]
    history = [[uq.copy() for uq in u]] if keep_history else None
    increment = np.inf
    for it in range(1, cfg.max_iters + 1):
        load = np.zeros(space.n_dofs)
        for op, uq in zip(ops, u):
            load[space.cell_dofs(op.cell_id)] = op.cell_vals.T @ (op.qweights * uq)
        y, phi = solve_pde(load)
        inc_sq = np.empty(len(ops))
        u_next = []
        for op, uq in zip(ops, u):
            phi_q = op.cell_vals @ phi.cell_block(op.cell_id)
            cand = project_box((1.0 - theta) * uq
                               + theta * project_box(-phi_q / lam, box), box)
            inc_sq[op.cell_id] = op.qweights @ (cand - uq) ** 2
            u_next.append(cand)
        increment = float(np.sqrt(np.sum(np.sort(inc_sq))))
        u = u_next
        if keep_history:
            history.append([uq.copy() for uq in u])
        if increment <= cfg.tol:
            break
    else:
        raise PgdIterationError(
            f"wc2 did not converge in {cfg.max_iters} iterations "
            f"(last increment {increment:.3e})", increment)

    load = np.zeros(space.n_dofs)
    for op, uq in zip(ops, u):
        load[space.cell_dofs(op.cell_id)] = op.cell_vals.T @ (op.qweights * uq)
    y, phi = solve_pde(load)
    control = ClampedAdjointControl(space, phi, lam, box, u)
    return ConstrainedSolution("wc2", y, phi, control, it, increment,
                               history=history)


def vi_residual_wc1(space, solution, prob):
    """Worst value of (phi_T + lambda u, v - u) over the extreme directions.

    For piecewise constant controls the admissible extreme directions per cell
    are v = u_a and v = u_b; the discrete variational inequality holds when
    the minimum is nonnegative (up to the fixed-point tolerance).
    """
    box = AdmissibleBox(*prob.bounds)
    lam = prob.lam
    u = solution.control.values
    worst = np.inf
    for op in space.local_ops():
        grad = op.int_cell @ solution.phi.cell_block(op.cell_id) \
            + lam * u[op.cell_id] * op.measure
        for v in (box.u_a, box.u_b):
            worst = min(worst, grad * (v - u[op.cell_id]))
    return worst


def reduced_cost(space, prob, control_load, control_norm_sq):
    """j_h(u) = 0.5 ||y_T(u) - y_d||^2 + (lam/2) ||u||^2 for a given load."""
    system = OptimalitySystem([space], [[space.stiffness_matrix()]])
    (y,) = system.solve([cell_load_vector(space, prob.f) + control_load],
                        [space.boundary_values(prob.state_boundary)])
    misfit = np.empty(space.mesh.n_cells)
    for op in space.local_ops():
        vals = op.cell_vals @ y.cell_block(op.cell_id) - prob.y_d(op.qpoints())
        misfit[op.cell_id] = op.qweights @ vals ** 2
    return 0.5 * float(np.sum(np.sort(misfit))) + 0.5 * prob.lam * control_norm_sq
