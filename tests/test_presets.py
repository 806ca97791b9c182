import numpy as np
import pytest

from hho_control.cli import ConfigError, ExperimentConfig, run_level
from hho_control.control_unconstrained import ControlProblem
from hho_control.presets import (PresetError, get_preset, make_problem,
                                 parse_expression, preset_ids,
                                 problem_from_preset)


@pytest.mark.parametrize("pid", ["uc1-default", "uc31-default", "uc32-default",
                                 "wc-default"])
def test_manufactured_pdes_hold_at_samples(pid):
    prob = problem_from_preset(pid)
    preset = get_preset(pid)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.02, 0.98, size=(64, 2))
    y, lap_y = preset.y.with_laplacian(pts)
    lap_phi = preset.phi.with_laplacian(pts)[1]
    scale = 1.0 + np.abs(y).max()
    state = -lap_y - prob.f(pts) - prob.exact.u(pts)
    adjoint = -lap_phi - y + prob.y_d(pts)
    assert np.abs(state).max() < 1e-8 * scale
    assert np.abs(adjoint).max() < 1e-8 * scale


def test_aliases_resolve():
    assert get_preset("uc2-default") is get_preset("uc1-default")
    assert get_preset("wc1-default") is get_preset("wc-default")


def test_unknown_preset():
    with pytest.raises(PresetError, match="unknown preset"):
        get_preset("nope")


def test_preset_ids_sorted_and_stable():
    assert preset_ids() == sorted(preset_ids())
    assert "uc1-default" in preset_ids()


def test_constrained_preset_clamps_exact_control():
    prob = problem_from_preset("wc-default")
    pts = np.random.default_rng(3).uniform(0.05, 0.95, size=(200, 2))
    u = prob.exact.u(pts)
    assert (u >= -250.0).all() and (u <= -10.0).all()
    assert (u == -250.0).any() or (u == -10.0).any()  # the box binds somewhere


def test_state_trace_is_always_lifted():
    # y = sin(32 pi x1) vanishes at 33 equispaced points of every edge, yet
    # its trace on x2 = 0 and x2 = 1 is not zero: the lift must not be
    # dropped, and at Cartesian 64 it cuts the L2 error of y by a factor 4
    y = parse_expression("sin(32*pi*x1)")
    prob = make_problem(y, parse_expression("sin(pi*x1)*sin(pi*x2)"), 1e-2)
    cfg = ExperimentConfig(scheme="uc1", degree=1, preset="uc1-default",
                           levels=[64])
    record = run_level(cfg, prob, 64)
    assert record.err_y_l2_recon < 0.03      # 0.070 without the lift
    assert prob.state_boundary is y
    for pid in preset_ids():
        prob = problem_from_preset(pid)
        assert prob.state_boundary is get_preset(pid).y


def test_expression_grammar_roundtrip():
    field = parse_expression("100*exp(x1 + x2)")
    pts = np.array([[0.25, 0.5], [0.7, 0.1]])
    expected = 100.0 * np.exp(pts[:, 0] + pts[:, 1])
    value, lap = field.with_laplacian(pts)
    assert np.abs(value - expected).max() < 1e-12 * expected.max()
    assert np.abs(lap - 2 * expected).max() < 1e-12 * expected.max()
    assert np.array_equal(field(pts), value)


def test_expression_symbolic_laplacian_trig():
    field = parse_expression("sin(pi*x1)*sin(pi*x2)")
    pts = np.array([[0.3, 0.6]])
    expected = -2 * np.pi ** 2 * np.sin(np.pi * 0.3) * np.sin(np.pi * 0.6)
    assert abs(field.with_laplacian(pts)[1][0] - expected) < 1e-12


def test_expression_rejects_disallowed_terms():
    for text in ["log(x1)", "__import__('os')", "x3", "sin", "sin(x1, x2)",
                 "sin(x=x1)", "x1^2", "x1 % 2", "1j*x1", "True*x1", "'x1'",
                 "x1.real", "[x1][0]", "x1 if x2 else x1", "lambda: x1",
                 "(x1 := 2)", "x1 < x2", "E*x1", "", "x1,",
                 "-" * 100000 + "x1"]:
        with pytest.raises(PresetError):
            parse_expression(text)


def test_expression_is_checked_before_sympy_evaluates_it(tmp_path):
    # sympify runs its text as Python: a call that would parse as x1 once
    # wrote this file and passed.  Every term of the grammar still parses.
    target = tmp_path / "written"
    with pytest.raises(PresetError):
        parse_expression(f"__import__('pathlib').Path({str(target)!r})"
                         f".write_text('x') and x1")
    assert not target.exists()
    field = parse_expression(" -x1**(-2.5e-1) + +3*pi/exp(cos(x2)) - sin(1)")
    x1, x2 = 0.3, 0.6
    want = -x1 ** -0.25 + 3 * np.pi / np.exp(np.cos(x2)) - np.sin(1)
    assert abs(field(np.array([[x1, x2]]))[0] - want) < 1e-14


def test_expression_that_evaluates_to_infinity_is_rejected():
    # x1/0 passes the grammar; sympy evaluates it to zoo*x1, which the
    # whitelist walk rejects
    with pytest.raises(PresetError, match="disallowed term zoo"):
        parse_expression("x1/0")


@pytest.mark.parametrize("exact_y, exact_phi", [("exp(1000)*x1", "x1"),
                                                ("x1", "exp(1000)*x1")])
def test_non_finite_data_fail_the_self_check_at_construction(exact_y,
                                                             exact_phi):
    # exp(1000) overflows at every sample point.  A NaN residual once passed
    # the self-check, and the run failed only at its first level.  The
    # overflow raises no warning, which ``filterwarnings = error`` would
    # turn into an exception.
    y, phi = parse_expression(exact_y), parse_expression(exact_phi)
    with pytest.raises(PresetError, match="not finite"):
        make_problem(y, phi, 1e-2)
    with pytest.raises(ConfigError, match="not finite"):
        ExperimentConfig(scheme="uc1", degree=1, exact_y=exact_y,
                         exact_phi=exact_phi)


def test_inline_problem_self_check():
    y = parse_expression("sin(2*pi*x1)*sin(2*pi*x2)")
    phi = parse_expression("exp(x1+x2)*sin(pi*x1)*sin(pi*x2)")
    prob = make_problem(y, phi, 1e-2)
    pts = np.random.default_rng(0).uniform(0.1, 0.9, size=(16, 2))
    resid = -y.with_laplacian(pts)[1] - prob.f(pts) - prob.exact.u(pts)
    assert np.abs(resid).max() < 1e-10


def test_lambda_must_be_positive():
    y = parse_expression("x1*x2")
    for lam in (0.0, float("inf"), float("nan"), "0.1", True):
        with pytest.raises(PresetError, match="lambda"):
            make_problem(y, y, lam)
        with pytest.raises(ValueError, match="regularization"):
            ControlProblem(f=y, y_d=y, lam=lam)


@pytest.mark.parametrize("bounds", [(1,), 5.0, ("a", "b"), (1.0, 2.0, 3.0)])
def test_bounds_must_be_a_real_pair(bounds):
    # a malformed box once escaped as IndexError or TypeError, or passed
    y = parse_expression("x1*x2")
    with pytest.raises(PresetError, match="bounds"):
        make_problem(y, y, 1e-2, bounds=bounds)
    with pytest.raises(ValueError, match="bounds"):
        ControlProblem(f=y, y_d=y, lam=1e-2, bounds=bounds)
