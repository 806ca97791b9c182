"""Property tests of the local HHO operators (skipped without hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hho_control import HhoSpace, Mesh  # noqa: E402
from hho_control.hho_core import reconstruct_all, reduce_function  # noqa: E402
from hho_control.poly import monomial_exponents  # noqa: E402

# derandomized so that the suite sees the same examples on every run
PROPERTY = dict(deadline=None, derandomize=True, database=None)


@st.composite
def convex_polygons(draw):
    """CCW vertices at well-separated angles on a rotated, shifted ellipse."""
    n = draw(st.integers(3, 8))
    gaps = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)))
    angles = draw(st.floats(0.0, 2 * np.pi)) + np.cumsum(2 * np.pi * gaps / gaps.sum())
    a, b = draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0))
    turn = draw(st.floats(0.0, np.pi))
    rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    center = np.array([draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))])
    return center + np.column_stack([a * np.cos(angles), b * np.sin(angles)]) @ rot.T


@settings(max_examples=60, **PROPERTY)
@given(convex_polygons(), st.integers(0, 2),
       st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10))
def test_reconstruction_of_reduction_reproduces_p_k_plus_1(polygon, k, coeffs):
    mesh = Mesh(polygon, [list(range(len(polygon)))])
    space = HhoSpace(mesh, k)
    exps = monomial_exponents(k + 1)
    center = mesh.cells[0].centroid

    def p(x):
        local = x - center
        return sum(c * local[:, 0] ** i * local[:, 1] ** j
                   for c, (i, j) in zip(coeffs, exps))

    rec = reconstruct_all(space, reduce_function(space, p))
    nodes = space.nodes()
    target = p(nodes.points)
    scale = max(1.0, np.abs(target).max())
    assert np.abs(nodes.values("Vr", rec) - target).max() <= 1e-10 * scale
