"""Error norms and experimental orders of convergence.

Per-cell contributions are sorted before summation, so every functional is
bitwise reproducible and invariant under cell reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import poly
from .hho_core import (h1h_seminorm_sq, reconstruct_all, reduce_function,
                       sorted_sum)


def energy_error(space, vec, v_exact):
    """Discrete H1-like distance || I_h v - v_h ||_{1,h}."""
    ref = reduce_function(space, v_exact, include_boundary=True)
    return math.sqrt(h1h_seminorm_sq(space, vec - ref))


def _l2_distance(space, v_exact, approx):
    """L2 distance to v_exact of the function with node values ``approx``."""
    t = space.nodes()
    return math.sqrt(sorted_sum(t.cell_integrals((v_exact(t.points) - approx) ** 2)))


def l2_error_cells(space, vec, v_exact):
    """L2 distance between the exact function and the cell polynomials."""
    return _l2_distance(space, v_exact,
                        space.nodes().values("Vl", vec.cell_blocks()))


def l2_error_reconstruction(space, vec, v_exact):
    """L2 distance between the exact function and the reconstruction R v."""
    return _l2_distance(space, v_exact, space.nodes().values(
        "Vr", reconstruct_all(space, vec)))


# kinked cells refined at once: bounds the stacked tables of the refined rule
KINK_CHUNK = 32


def l2_error_control(solution, u_exact):
    """L2 error of the scheme's control against the exact control.

    For a control whose ``has_kinks`` is set (the variational-discretization
    clamp of wc2) the cells crossed by the active-set boundary are integrated
    with a rule of four times the standard exactness to limit the quadrature
    crime near the free boundary: each cell's ``poly.polygon_quadrature``
    rule, stacked per triangle count, with one ``u_exact`` call per chunk.
    """
    control = solution.control
    space = control.space
    t = space.nodes()
    contribs = t.cell_integrals((u_exact(t.points) - control.at_nodes()) ** 2)
    kinked = control.kinked_cells() if control.has_kinks else []
    for start in range(0, len(kinked), KINK_CHUNK):
        chunk = kinked[start:start + KINK_CHUNK]
        tris = [poly.polygon_triangles(space.mesh.polygon(c),
                                       space.mesh.cell_centroids[c]) for c in chunk]
        n_tris = np.array([len(tri) for tri in tris])
        rules = []
        for nt in np.unique(n_tris):
            sel = np.nonzero(n_tris == nt)[0]
            tri = np.array([tris[i] for i in sel])
            pts, w = poly.triangle_quadrature(tri[:, :, 0], tri[:, :, 1], tri[:, :, 2],
                                              8 * (space.face_degree + 2))
            rules.append((chunk[sel], pts.reshape(len(sel), -1, 2),
                          w.reshape(len(sel), -1)))
        exact = u_exact(np.concatenate([pts.reshape(-1, 2) for _, pts, _ in rules]))
        sizes = np.cumsum([w.size for *_, w in rules])
        for (cells, pts, w), u in zip(rules, np.split(exact, sizes)):
            d = u.reshape(w.shape) - control.at_points(cells, pts)
            contribs[cells] = (w[:, None, :] @ (d ** 2)[..., None])[:, 0, 0]
    return math.sqrt(sorted_sum(contribs))


def eoc(errors, hs):
    """Rates log(e_i / e_{i+1}) / log(h_i / h_{i+1}) between consecutive levels."""
    errors = list(errors)
    hs = list(hs)
    if len(errors) != len(hs):
        raise ValueError("errors and hs must have equal length")
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ValueError("mesh sizes must be strictly decreasing")
    rates = []
    for (e1, e2), (h1, h2) in zip(zip(errors, errors[1:]), zip(hs, hs[1:])):
        if e1 < 0 or e2 < 0:
            raise ValueError("errors must be nonnegative")
        if e2 == 0.0 or e1 == 0.0:
            rates.append(math.inf)
        else:
            rates.append(math.log(e1 / e2) / math.log(h1 / h2))
    return rates


QUANTITIES = ("err_u_l2", "err_y_energy", "err_phi_energy",
              "err_y_l2_recon", "err_phi_l2_recon")


@dataclass
class ErrorRecord:
    """Errors of one refinement level."""

    level: int
    h: float
    n_cells: int
    err_u_l2: float
    err_y_energy: float
    err_phi_energy: float
    err_y_l2_recon: float
    err_phi_l2_recon: float
    iters: int | None = None


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
