"""Manufactured-solution presets and the inline expression grammar.

A preset prescribes the exact state y and adjoint phi in closed form (values
and Laplacians); the remaining data follow from the optimality system:
u = -phi/lambda (clamped onto the box when bounds are given), f = -dy - u and
y_d = y + dphi, where d denotes the Laplacian.  A field evaluates its value
and Laplacian together from shared factors (``SmoothFunction.with_laplacian``,
e.g. one exp(x1 + x2), sin(pi x1) and sin(pi x2) for both), with the bits of
its separate ``value`` and ``laplacian``.  The problem of ``make_problem``
samples all five fields at a point set from one evaluation of (y, dy) and one
of (phi, dphi) (``ControlProblem.sample``), with the bits of its callables
``f``, ``y_d`` and ``exact``.  The trace of y is always the state's Dirichlet
data, lifted onto the boundary faces: a zero trace costs one projection, and
no sampled guess can drop a nonzero one.  Construction self-checks the two
PDEs at random sample points.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

import numpy as np

from .control_constrained import AdmissibleBox, project_box
from .control_unconstrained import ControlProblem, ExactTriple, FieldSample


class PresetError(ValueError):
    """Unknown preset id, invalid inline expression, weight or box."""


@dataclass(frozen=True)
class SmoothFunction:
    """Closed-form scalar field with its Laplacian.

    ``with_laplacian`` returns ``(value, laplacian)`` from shared factors,
    bit for bit the values of ``value`` and ``laplacian``.
    """

    value: callable
    laplacian: callable
    with_laplacian: callable

    def __call__(self, points):
        return self.value(points)


def _field(value, both):
    """Field of ``value(x1, x2)`` and ``both(x1, x2) = (value, Laplacian)``."""
    def coords(p):
        p = np.atleast_2d(p)
        return p[:, 0], p[:, 1]

    return SmoothFunction(lambda p: value(*coords(p)),
                          lambda p: both(*coords(p))[1],
                          lambda p: both(*coords(p)))


_PI = np.pi


def _exp_sin_sin(scale):
    # scale * exp(x1+x2) sin(pi x1) sin(pi x2) and its Laplacian
    def factors(x, y):
        return scale * np.exp(x + y), np.sin(_PI * x), np.sin(_PI * y)

    def value(x, y):
        e, s1, s2 = factors(x, y)
        return e * s1 * s2

    def both(x, y):
        e, s1, s2 = factors(x, y)
        c1, c2 = np.cos(_PI * x), np.cos(_PI * y)
        return e * s1 * s2, e * ((2.0 - 2.0 * _PI ** 2) * s1 * s2
                                 + 2.0 * _PI * (c1 * s2 + s1 * c2))

    return _field(value, both)


def _sin2pi_sin2pi(scale):
    def value(x, y):
        return scale * np.sin(2 * _PI * x) * np.sin(2 * _PI * y)

    def both(x, y):
        v = value(x, y)
        return v, -8.0 * _PI ** 2 * v

    return _field(value, both)


def _exp_sum(scale):
    def value(x, y):
        return scale * np.exp(x + y)

    def both(x, y):
        e = np.exp(x + y)
        return scale * e, 2.0 * scale * e

    return _field(value, both)


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
    lap = sympy.diff(expr, x1, 2) + sympy.diff(expr, x2, 2)
    f_val = sympy.lambdify((x1, x2), expr, "numpy")
    f_lap = sympy.lambdify((x1, x2), lap, "numpy")

    def value(x, y):
        return np.broadcast_to(f_val(x, y), np.shape(x)).astype(float)

    def both(x, y):
        return value(x, y), np.broadcast_to(f_lap(x, y), np.shape(x)).astype(float)

    return _field(value, both)


def make_problem(y, phi, lam, bounds=None, seed=42):
    """Derive (f, y_d, u) from exact (y, phi) and self-check the PDEs.

    The problem's ``sample`` derives all five fields from one
    ``with_laplacian`` call of y and one of phi, by the formulas of the
    callables, so the arrays have the callables' bits.
    """

    def control(phi_values):
        raw = -phi_values / lam
        return raw if box is None else project_box(raw, box)

    def u_exact(p):
        return control(phi.value(p))

    def f(p):
        return -y.laplacian(p) - u_exact(p)

    def y_d(p):
        return y.value(p) + phi.laplacian(p)

    def sample(p):
        y_p, lap_y = y.with_laplacian(p)
        phi_p, lap_phi = phi.with_laplacian(p)
        u = control(phi_p)
        return FieldSample(f=-lap_y - u, y_d=y_p + lap_phi,
                           exact=ExactTriple(y=y_p, phi=phi_p, u=u))

    try:
        prob = ControlProblem(
            f=f, y_d=y_d, lam=lam, bounds=bounds,
            exact=ExactTriple(y=y.value, phi=phi.value, u=u_exact),
            state_boundary=y.value, sampler=sample)
    except ValueError as exc:
        raise PresetError(str(exc)) from None
    # u_exact reads the box, made once ControlProblem has checked the bounds
    box = None if bounds is None else AdmissibleBox(*bounds)

    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.05, 0.95, size=(32, 2))
    state_res = np.abs(-y.laplacian(pts) - f(pts) - u_exact(pts))
    adj_res = np.abs(-phi.laplacian(pts) - y.value(pts) + y_d(pts))
    scale = 1.0 + np.abs(y.value(pts)).max()
    if state_res.max() > 1e-8 * scale or adj_res.max() > 1e-8 * scale:
        raise PresetError("manufactured data failed the PDE self-check")
    return prob


def problem_from_preset(preset_id, lam=None, bounds=None):
    p = get_preset(preset_id)
    lam = p.lam if lam is None else lam
    bounds = p.bounds if bounds is None else bounds
    return make_problem(p.y, p.phi, lam, bounds=bounds)
