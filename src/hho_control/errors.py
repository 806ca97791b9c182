"""Error norms and experimental orders of convergence.

Per-cell contributions are sorted before summation, so every functional is
bitwise reproducible and invariant under cell reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .hho_core import (NonFiniteError, h1h_seminorm_sq, reconstruct_all,
                       reduce_function, sorted_sum)


def _require_finite(values, what):
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise NonFiniteError(f"{what} must be finite, got {bad[0]!r}")


def energy_error(space, vec, v_exact, at_nodes=None):
    """Discrete H1-like distance || I_h v - v_h ||_{1,h}.

    ``at_nodes`` (here and below) holds the exact function at the nodes of
    the space's ``NodeTable`` when the caller has sampled it there; without
    it the function is sampled here.
    """
    ref = reduce_function(space, v_exact, at_nodes)
    return math.sqrt(h1h_seminorm_sq(space, space.dof_vector(vec) - ref))


def l2_error_reconstruction(space, vec, v_exact, at_nodes=None):
    """L2 distance between the exact function and the reconstruction R v."""
    t = space.nodes()
    approx = t.values("Vr", reconstruct_all(space, vec))
    exact = v_exact(t.points) if at_nodes is None else at_nodes
    return math.sqrt(sorted_sum(t.cell_integrals((exact - approx) ** 2)))


def l2_error_control(solution, u_exact, at_nodes=None):
    """L2 error of the scheme's control against the exact control.

    ``at_nodes`` is u_exact at the nodes of the control's space.  For a
    control whose ``has_kinks`` is set (the clamp of wc1 and wc2; wc1's has
    no kinked cell) the cells crossed by the active-set boundary are
    integrated with a rule of four times the standard exactness to limit
    the quadrature crime near the free boundary.  The rule and the cell
    basis at its points are built once per kernel class among those cells
    (``NodeTable.class_rules``); per cell only the coefficient product and
    the ``u_exact`` values remain.  ``u_exact`` is called once per batch of
    classes on the refined points, and once on the nodes unless
    ``at_nodes`` is given.
    """
    control = solution.control
    space = control.space
    t = space.nodes()
    exact = u_exact(t.points) if at_nodes is None else at_nodes
    contribs = t.cell_integrals((exact - control.at_nodes()) ** 2)
    if control.has_kinks:
        centroids = space.mesh.cell_centroids
        for cells, pts, w, basis in t.class_rules(
                space.mesh, control.kinked_cells(), 8 * (space.face_degree + 2)):
            at = pts[:, None] + centroids[cells][:, :, None, :]
            u = u_exact(at.reshape(-1, 2)).reshape(at.shape[:-1])
            d = u - control.at_basis(cells, basis)
            contribs[cells] = (w[:, None, None, :] @ (d ** 2)[..., None])[..., 0, 0]
    return math.sqrt(sorted_sum(contribs))


def eoc(errors, hs):
    """Rates log(e_i / e_{i+1}) / log(h_i / h_{i+1}) between consecutive levels.

    A rate is +inf where an error falls to 0 and -inf where it grows from
    0.  NonFiniteError when an error or mesh size is NaN or infinite.
    """
    errors = list(errors)
    hs = list(hs)
    if len(errors) != len(hs):
        raise ValueError("errors and hs must have equal length")
    _require_finite(errors, "errors")
    _require_finite(hs, "mesh sizes")
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ValueError("mesh sizes must be strictly decreasing")
    rates = []
    for (e1, e2), (h1, h2) in zip(zip(errors, errors[1:]), zip(hs, hs[1:])):
        if e1 < 0 or e2 < 0:
            raise ValueError("errors must be nonnegative")
        if e2 == 0.0:
            rates.append(math.inf)
        elif e1 == 0.0:                 # an error that grows from 0
            rates.append(-math.inf)
        else:
            rates.append(math.log(e1 / e2) / math.log(h1 / h2))
    return rates


QUANTITIES = ("err_u_l2", "err_y_energy", "err_phi_energy",
              "err_y_l2_recon", "err_phi_l2_recon")


@dataclass
class ErrorRecord:
    """Errors of one refinement level; NonFiniteError if one is not finite."""

    level: int
    h: float
    n_cells: int
    err_u_l2: float
    err_y_energy: float
    err_phi_energy: float
    err_y_l2_recon: float
    err_phi_l2_recon: float
    iters: int | None = None

    def __post_init__(self):
        for q in ("h",) + QUANTITIES:
            _require_finite([getattr(self, q)], f"level {self.level}: {q}")


@dataclass
class ConvergenceReport:
    """Per-level errors plus experimental convergence orders."""

    records: list
    rates: dict = field(default_factory=dict)

    def __post_init__(self):
        hs = [r.h for r in self.records]
        self.rates = {}
        for q in QUANTITIES:
            errs = [getattr(r, q) for r in self.records]
            self.rates[q] = eoc(errs, hs) if len(errs) > 1 else []

    def final_rate(self, quantity):
        return self.rates[quantity][-1]
