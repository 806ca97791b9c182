"""Manufactured-solution presets and the inline expression grammar.

A preset prescribes the exact state y and adjoint phi in closed form (values
and Laplacians); the remaining data follow from the optimality system:
u = -phi/lambda (clamped onto the box when bounds are given), f = -dy - u and
y_d = y + dphi, where d denotes the Laplacian.  A field is one function,
``SmoothFunction.parts``, that returns its value and its Laplacian from
shared factors (e.g. one exp(x1 + x2), sin(pi x1) and sin(pi x2) for both),
the Laplacian computed only when asked for: calling the field returns the
value alone, and ``with_laplacian`` both.  The problem of
``make_problem`` has one formula for f, y_d and u, its ``sample`` of all
five fields from one evaluation of (y, dy) and one of (phi, dphi)
(``ControlProblem.sample``); its callables ``f``, ``y_d`` and ``exact`` read
the same formulas.  The trace of y is always the state's Dirichlet data,
lifted onto the boundary faces: a zero trace costs one projection, and no
sampled guess can drop a nonzero one.  Construction self-checks the two PDEs
at random sample points, and data that are not finite there fail it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

import numpy as np

from .control_unconstrained import (AdmissibleBox, ControlProblem, ExactTriple,
                                    FieldSample, project_box)


class PresetError(ValueError):
    """Unknown preset id, invalid inline expression, weight or box."""


@dataclass(frozen=True)
class SmoothFunction:
    """Closed-form scalar field with its Laplacian.

    ``parts(x1, x2)`` returns the value and a function that computes the
    Laplacian from the same factors.  At an (n, 2) point array, calling the
    field gives the value alone and ``with_laplacian`` both.
    """

    parts: callable

    def with_laplacian(self, points):
        value, laplacian = self.parts(*np.atleast_2d(points).T)
        return value, laplacian()

    def __call__(self, points):
        return self.parts(*np.atleast_2d(points).T)[0]


_PI = np.pi


def _exp_sin_sin(scale):
    # scale * exp(x1+x2) sin(pi x1) sin(pi x2) and its Laplacian
    def parts(x, y):
        e, s1, s2 = scale * np.exp(x + y), np.sin(_PI * x), np.sin(_PI * y)
        return e * s1 * s2, lambda: e * (
            (2.0 - 2.0 * _PI ** 2) * s1 * s2
            + 2.0 * _PI * (np.cos(_PI * x) * s2 + s1 * np.cos(_PI * y)))

    return SmoothFunction(parts)


def _sin2pi_sin2pi(scale):
    def parts(x, y):
        v = scale * np.sin(2 * _PI * x) * np.sin(2 * _PI * y)
        return v, lambda: -8.0 * _PI ** 2 * v

    return SmoothFunction(parts)


def _exp_sum(scale):
    def parts(x, y):
        e = np.exp(x + y)
        return scale * e, lambda: 2.0 * scale * e

    return SmoothFunction(parts)


@dataclass(frozen=True)
class Preset:
    """Exact (y, phi) pair with the default weight and optional box."""

    id: str
    y: SmoothFunction
    phi: SmoothFunction
    lam: float
    bounds: tuple | None = None
    description: str = ""


_PRESETS = {
    "uc1-default": Preset(
        "uc1-default", _exp_sum(100.0), _exp_sin_sin(1.0), 1e-2,
        description="exponential state, exp*sine adjoint, lambda = 1e-2"),
    "uc31-default": Preset(
        "uc31-default", _sin2pi_sin2pi(20.0), _exp_sin_sin(5.0), 1e-1,
        description="double-frequency sine state, lambda = 1e-1"),
    "uc32-default": Preset(
        "uc32-default", _sin2pi_sin2pi(1.0), _exp_sin_sin(1.0), 1e-2,
        description="double-frequency sine state, lambda = 1e-2"),
    "wc-default": Preset(
        "wc-default", _sin2pi_sin2pi(1.0), _exp_sin_sin(1.0), 1e-2,
        bounds=(-250.0, -10.0),
        description="box-constrained variant, bounds (-250, -10), lambda = 1e-2"),
}
ALIASES = {
    "uc2-default": "uc1-default",
    "wc1-default": "wc-default",
    "wc2-default": "wc-default",
}


def preset_ids():
    return sorted(_PRESETS)


def get_preset(preset_id):
    key = ALIASES.get(preset_id, preset_id)
    if key not in _PRESETS:
        raise PresetError(f"unknown preset {preset_id!r}; see `hho-control presets`")
    return _PRESETS[key]


_NAMES = ("x1", "x2", "pi")
_FUNCTIONS = ("sin", "cos", "exp")
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _check_syntax(text):
    """Raise PresetError unless ``text`` is an expression of the grammar.

    The grammar: the names x1, x2 and pi, numeric literals, ``+ - * / **``,
    unary signs and sin, cos and exp of one argument.  The check reads the
    syntax tree of the text (stdlib ``ast``) and evaluates nothing.
    """
    try:
        stack = [ast.parse(text.strip(), mode="eval").body]
    # the parser raises MemoryError on a text nested too deeply for it
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise PresetError(f"cannot parse expression {text!r}: {exc}") from None
    while stack:
        node = stack.pop()
        if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
            stack += [node.left, node.right]
        elif (isinstance(node, ast.UnaryOp)
              and isinstance(node.op, (ast.UAdd, ast.USub))):
            stack.append(node.operand)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _FUNCTIONS and len(node.args) == 1
              and not node.keywords):
            stack.append(node.args[0])
        elif not (isinstance(node, ast.Name) and node.id in _NAMES
                  or isinstance(node, ast.Constant)
                  and type(node.value) in (int, float)):
            raise PresetError(f"disallowed term {ast.unparse(node)!r} in "
                              f"expression {text!r}")


def parse_expression(text):
    """Closed-form expression in x1, x2 (sums/products/sin/cos/exp/powers).

    The text is checked against the grammar (``_check_syntax``) before
    sympy reads it: ``sympy.sympify`` evaluates its input as Python, so
    this check is what keeps a config from running code.  The Laplacian is
    computed symbolically; a term that evaluates outside the same whitelist
    (such as ``1/0``) is rejected too.  sympy is imported here, so that
    preset runs never load it.
    """
    _check_syntax(text)
    import sympy

    x1, x2 = sympy.symbols("x1 x2")
    local = {"x1": x1, "x2": x2, "sin": sympy.sin, "cos": sympy.cos,
             "exp": sympy.exp, "pi": sympy.pi}
    try:
        expr = sympy.sympify(text, locals=local, rational=False)
    except (sympy.SympifyError, SyntaxError, TypeError) as exc:
        raise PresetError(f"cannot parse expression {text!r}: {exc}") from None
    allowed_types = (sympy.sin, sympy.cos, sympy.exp, sympy.Pow, sympy.Add,
                     sympy.Mul, sympy.Symbol, sympy.Number)
    for node in sympy.preorder_traversal(expr):
        if node is sympy.pi or isinstance(node, allowed_types):
            continue
        raise PresetError(f"disallowed term {node!r} in expression {text!r}")
    value, lap = (sympy.lambdify((x1, x2), e, "numpy") for e in (
        expr, sympy.diff(expr, x1, 2) + sympy.diff(expr, x2, 2)))

    # a constant evaluates to a scalar: broadcast it to the points
    def at(fn, x, y):
        return np.broadcast_to(fn(x, y), np.shape(x)).astype(float)

    return SmoothFunction(lambda x, y: (at(value, x, y),
                                        lambda: at(lap, x, y)))


def make_problem(y, phi, lam, bounds=None):
    """Derive (f, y_d, u) from exact (y, phi) and self-check the PDEs.

    ``sample`` is the one formula of f = -dy - u and y_d = y + dphi, from
    one ``with_laplacian`` call of y and one of phi; the callables ``f`` and
    ``y_d`` read it, and ``exact.u`` and ``sample`` share one clamp.
    """

    def control(phi_values):
        return project_box(-phi_values / lam, box)

    def sample(p):
        y_p, lap_y = y.with_laplacian(p)
        phi_p, lap_phi = phi.with_laplacian(p)
        u = control(phi_p)
        return FieldSample(f=-lap_y - u, y_d=y_p + lap_phi,
                           exact=ExactTriple(y=y_p, phi=phi_p, u=u))

    try:
        prob = ControlProblem(
            f=lambda p: sample(p).f, y_d=lambda p: sample(p).y_d, lam=lam,
            bounds=bounds,
            exact=ExactTriple(y=y, phi=phi, u=lambda p: control(phi(p))),
            state_boundary=y, sampler=sample)
    except ValueError as exc:
        raise PresetError(str(exc)) from None
    # control reads the box, made once ControlProblem has checked the bounds
    box = None if bounds is None else AdmissibleBox(*bounds)

    pts = np.random.default_rng(42).uniform(0.05, 0.95, size=(32, 2))
    # data that overflow fail below as NaN, not as a numpy warning
    with np.errstate(all="ignore"):
        s = sample(pts)
        lap_y, lap_phi = y.with_laplacian(pts)[1], phi.with_laplacian(pts)[1]
        state_res = np.abs(-lap_y - s.f - s.exact.u)
        adj_res = np.abs(-lap_phi - s.exact.y + s.y_d)
        bound = 1e-8 * (1.0 + np.abs(s.exact.y).max())
    # written so that a NaN residual or bound fails
    if not (state_res.max() <= bound and adj_res.max() <= bound):
        raise PresetError("manufactured data are not finite or fail the PDE "
                          "self-check")
    return prob


def problem_from_preset(preset_id, lam=None, bounds=None):
    p = get_preset(preset_id)
    lam = p.lam if lam is None else lam
    bounds = p.bounds if bounds is None else bounds
    return make_problem(p.y, p.phi, lam, bounds=bounds)
