"""Control problem, box and control type; the unconstrained schemes.

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

from .hho_core import (HhoSpace, OptimalitySystem, SolverError,
                       local_stiffness, node_load_vector, recon_load_vector,
                       reconstruct_all, reduced_hessian_cg, scatter_blocks)
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
class AdmissibleBox:
    """Pointwise control bounds u_a <= u <= u_b."""

    u_a: float
    u_b: float

    def __post_init__(self):
        if not (is_real(self.u_a) and is_real(self.u_b)):
            raise ValueError(f"bounds must be real, got {self.u_a!r}, {self.u_b!r}")
        if not self.u_a < self.u_b:
            raise ValueError("admissible box requires u_a < u_b")


def project_box(w, box):
    """Clamp onto [u_a, u_b], exactly; identity inside it or for box None."""
    return w if box is None else np.minimum(box.u_b, np.maximum(box.u_a, w))


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
    """Piecewise polynomial control of every scheme, clamped onto ``box``.

    ``coeffs`` ``(n_cells, dim)`` are in the basis that ``basis`` names in
    the ``NodeTable``: "Vl" (cell) or "Vr" (reconstruction).  Without a box
    (the uc schemes) the control is that polynomial; with one (wc1 and wc2,
    -phi_T / lambda in the cell basis) its clamp, kinked in ``kinked_cells``.
    """

    def __init__(self, space, coeffs, basis, box=None):
        self.space = space
        self.coeffs = np.asarray(coeffs)
        self.basis = basis
        self.box = box
        self._polynomial_at_nodes = None

    def at_basis(self, cells, basis):
        """Values of ``cells`` ``(C, s)`` where each row's basis is ``basis``.

        ``basis`` ``(C, q, dim)`` holds one table of the control's basis
        per row of ``cells``, shared by the row's cells (a kernel class);
        the values are ``(C, s, q)``.
        """
        coeffs = self.coeffs[cells][..., None]
        return project_box((basis[:, None] @ coeffs)[..., 0], self.box)

    def _polynomial(self):
        """The polynomial before the clamp at the nodes, evaluated once.

        Read-only: ``at_nodes`` returns it as it is where there is no box.
        """
        if self._polynomial_at_nodes is None:
            v = self.space.nodes().values(self.basis, self.coeffs)
            v.flags.writeable = False
            self._polynomial_at_nodes = v
        return self._polynomial_at_nodes

    def at_nodes(self):
        """Values at the nodes of the space's ``NodeTable``."""
        return project_box(self._polynomial(), self.box)

    def kinked_cells(self):
        """Cells whose nodes straddle a bound; none without a box."""
        if self.box is None:
            return np.zeros(0, dtype=np.intp)
        v = self._polynomial()
        lo, hi = (self.space.nodes().reduce_cells(f, v)
                  for f in (np.minimum, np.maximum))
        crosses = np.zeros(len(lo), dtype=bool)
        for bound in (self.box.u_a, self.box.u_b):
            crosses |= (lo < bound) & (bound < hi)
        return np.nonzero(crosses)[0]


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
    dl = space.cell_dim

    def local(g):  # A - i C / s on each kernel row
        blocks = g.kernels["A"] - 0j
        if recon:
            blocks -= 1j / s * _recon_mass(g)
        else:
            blocks[:, :dl, :dl] -= 1j / s * g.kernels["M_cell"]
        return blocks, g.rows

    system = OptimalitySystem(space, local)
    load = recon_load_vector if recon else node_load_vector
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


def _recon_mass(group):
    """The blocks G^T M_recon G of (R v, R w), one per kernel row."""
    G = group.kernels["G"]
    return np.swapaxes(G, 1, 2) @ group.kernels["M_recon"] @ G


def _pinned_mass(space, lam):
    """Local blocks of C = lam B + eps I over ``space``, one per cell.

    B = G^T M_recon G is the reconstruction mass, singular on the kernel of
    the global reconstruction, and eps = 1e-12 lam max diag(B) pins it.
    Each cell's block carries eps on its cell DOFs and eps / (the number of
    cells of the face) on each face DOF, so the assembled C carries eps
    once on every DOF.  Returns ``local`` for ``OptimalitySystem``.
    """
    groups = space.kernel_groups()
    B = [_recon_mass(g) for g in groups]
    diag = np.zeros(space.n_dofs)
    for g, b in zip(groups, B):  # at most two cells share a DOF: exact sums
        np.add.at(diag, g.dofs, np.diagonal(b, axis1=1, axis2=2)[g.rows])
    eps = 1e-12 * lam * diag.max()
    pin = np.ones(space.n_dofs)  # each cell's share of eps, per DOF
    pin[space.n_cell_dofs:] = np.repeat(
        1.0 / np.count_nonzero(space.mesh.face_cells >= 0, axis=1),
        space.face_dim)
    pinned = {}
    for g, b in zip(groups, B):
        blocks, i = lam * b[g.rows], np.arange(b.shape[-1])
        blocks[:, i, i] += eps * pin[g.dofs]
        pinned[g] = blocks
    return lambda g: (pinned[g], np.arange(len(g.cells)))


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
    adjoint are then refined once.  M is ``NodeTable.free_mass`` with every
    node free, so the CG runs on cell loads.  A and C are applied only by
    their systems, from the local blocks: the CG's inner product is
    ``mass.apply``, and the residual check takes A y, the lift included,
    from ``pde.apply``.  ``residuals`` are relative to the whole right-hand
    side; ``refinement`` is the adjoint solve's plus ``cg_steps``.
    """
    k = space.face_degree
    check_scheme("uc32", k, prob.bounds, space)
    control_space = HhoSpace(space.mesh, k, dirichlet=False)

    nodes, nt = space.nodes(), space.n_cell_dofs
    M = nodes.free_mass(np.ones(len(nodes.weights), bool))
    K = _cross_coupling(space, control_space)  # zero on the face rows
    n_u = control_space.n_dofs
    pde = OptimalitySystem(space, local_stiffness)
    mass = OptimalitySystem(control_space, _pinned_mass(control_space, prob.lam))

    F_f, F_yd, exact = load_vectors(space, prob)
    g = space.boundary_values(prob.state_boundary)
    y = pde.solve(F_f, g)
    phi = pde.solve(space.cell_vector(M @ y[:nt]) - F_yd)
    u_hat, y, phi, steps = reduced_hessian_cg(  # exact CG ends in n_u steps
        pde, M, lambda p: (K @ p)[:nt], lambda phi: mass.lu_solve(K.T @ phi),
        lambda a, b: np.einsum("i,i->", a, mass.apply(b)), np.zeros(n_u), y,
        phi, UC32_REDUCTION, n_u)
    state_load = F_f + K @ u_hat
    y = pde.solve(state_load, g, start=y)
    adjoint_load = space.cell_vector(M @ y[:nt]) - F_yd
    phi = pde.solve(adjoint_load, start=phi)

    act, boundary = space.active_dofs, np.zeros(space.n_dofs)
    boundary[space.fixed_dofs] = g
    rhs = np.linalg.norm(np.append(F_f[act] - pde.apply(boundary), F_yd[act]))
    parts = (state_load[act] - pde.apply(y),
             adjoint_load[act] - pde.apply(phi), K.T @ phi + mass.apply(u_hat))
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
