"""Group axioms, dual actions, and orbit transversals for both shipped groups.

The dual action is checked against its defining property (the character
identity), not against the closed forms used internally, so these tests stay
honest if the internal formulas are rewritten.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hywbench.grids import Grid1D, modular_on_grid
from hywbench.groups import DualSamplingConfig, GroupElement, character_value, make_group

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def close_to(x, y, tol=1e-12):
    """Both coordinates of two group elements agree to tol."""
    return np.max(np.abs(x.n - y.n)) <= tol and abs(x.h - y.h) <= tol


def identity(model):
    """The identity element of model."""
    return GroupElement(np.zeros(model.dim_N), 0.0)


def axb_element(b, t):
    model, _ = make_group("axb")
    return model, GroupElement(np.array([b]), t)


def heis_element(y, z, x):
    model, _ = make_group("heisenberg")
    return model, GroupElement(np.array([y, z]), x)


@given(finite, finite, finite, finite, finite, finite)
def test_axb_associative(b1, t1, b2, t2, b3, t3):
    model, x = axb_element(b1, t1)
    _, y = axb_element(b2, t2)
    _, z = axb_element(b3, t3)
    left = model.multiply(model.multiply(x, y), z)
    right = model.multiply(x, model.multiply(y, z))
    assert close_to(left, right, tol=1e-9)


@given(finite, finite, finite, finite, finite, finite)
def test_heisenberg_associative(y1, z1, x1, y2, z2, x2):
    model, a = heis_element(y1, z1, x1)
    _, b = heis_element(y2, z2, x2)
    _, c = heis_element(z2, x1, y1)
    left = model.multiply(model.multiply(a, b), c)
    right = model.multiply(a, model.multiply(b, c))
    assert close_to(left, right, tol=1e-9)


@pytest.mark.parametrize("name", ["axb", "heisenberg"])
@given(data=st.data())
def test_identity_and_inverse(name, data):
    model, _ = make_group(name)
    n = np.array([data.draw(finite) for _ in range(model.dim_N)])
    t = data.draw(finite)
    x = GroupElement(n, t)
    e = identity(model)
    assert close_to(model.multiply(x, e), x)
    assert close_to(model.multiply(e, x), x)
    assert close_to(model.multiply(x, model.inverse(x)), e, tol=1e-9)
    assert close_to(model.multiply(model.inverse(x), x), e, tol=1e-9)


@given(finite, finite, finite, finite, finite)
def test_axb_t_form_is_the_paper_b_a_form(b1, t1, b2, t2, omega):
    """With a = e^t the t-form law is the paper's (b, a)(b', a') = (b + a b', a a'),
    (b, a)^-1 = (-b/a, 1/a), Delta = 1/a, and the dual action is omega/a."""
    model, x = axb_element(b1, t1)
    _, y = axb_element(b2, t2)
    a1, a2 = math.exp(t1), math.exp(t2)
    xy, inv = model.multiply(x, y), model.inverse(x)
    assert xy.n[0] == pytest.approx(b1 + a1 * b2, rel=1e-12, abs=1e-12)
    assert math.exp(xy.h) == pytest.approx(a1 * a2, rel=1e-12)
    assert inv.n[0] == pytest.approx(-b1 / a1, rel=1e-12, abs=1e-12)
    assert math.exp(inv.h) == pytest.approx(1.0 / a1, rel=1e-12)
    assert model.modular(x) == pytest.approx(1.0 / a1, rel=1e-12)
    moved = model.dual_action(t1, np.array([omega]))[0]
    assert moved == pytest.approx(omega / a1, rel=1e-12, abs=1e-12)


@given(finite, finite, finite, finite, finite, finite)
def test_heisenberg_t_form_is_the_triple_product(y1, z1, x1, y2, z2, x2):
    """(x,y,z)(x',y',z') = (x+x', y+y', z+z'+x y') with n = (y, z) and t = x."""
    model, a = heis_element(y1, z1, x1)
    _, b = heis_element(y2, z2, x2)
    ab = model.multiply(a, b)
    np.testing.assert_allclose(ab.n, [y1 + y2, z1 + z2 + x1 * y2], rtol=1e-12, atol=1e-12)
    assert ab.h == pytest.approx(x1 + x2, rel=1e-12, abs=1e-12)


def test_heisenberg_is_noncommutative():
    model, a = heis_element(1.0, 0.0, 0.0)
    _, b = heis_element(0.0, 0.0, 1.0)
    ab, ba = model.multiply(a, b), model.multiply(b, a)
    # the commutator lands in the center: z differs by x*y = 1
    assert abs(ab.n[1] - ba.n[1] - (-1.0)) < 1e-12 or abs(ba.n[1] - ab.n[1] - (-1.0)) < 1e-12
    assert not close_to(ab, ba)


@given(finite, finite, finite, finite)
def test_axb_modular_is_homomorphism(b1, t1, b2, t2):
    model, x = axb_element(b1, t1)
    _, y = axb_element(b2, t2)
    xy = model.multiply(x, y)
    assert model.modular(xy) == pytest.approx(model.modular(x) * model.modular(y), rel=1e-12)


def test_axb_modular_value():
    model, x = axb_element(3.0, 2.0)
    assert model.modular(x) == pytest.approx(np.exp(-2.0), rel=1e-14)


def test_heisenberg_unimodular():
    model, x = heis_element(1.0, -2.0, 0.7)
    assert np.all(modular_on_grid(model, Grid1D(-4.0, 4.0, 16)) == 1.0)
    assert model.modular(x) == 1.0


@pytest.mark.parametrize("name", ["axb", "heisenberg"])
@given(data=st.data())
@settings(max_examples=50)
def test_dual_action_defining_character_identity(name, data):
    """chi_{t.omega}(n) must equal chi_omega(alpha(t)^-1 n alpha(t)), alpha(t)^-1 = alpha(-t)."""
    model, _ = make_group(name)
    omega = np.array([data.draw(finite) for _ in range(model.dim_N)])
    n = np.array([data.draw(finite) for _ in range(model.dim_N)])
    t = data.draw(st.floats(min_value=-2.0, max_value=2.0))
    moved = model.dual_action(t, omega)
    conjugated = model.conjugation_action(-t, n)
    assert character_value(moved, n) == pytest.approx(
        character_value(omega, conjugated), abs=1e-9
    )


@pytest.mark.parametrize("name", ["axb", "heisenberg"])
@given(data=st.data())
@settings(max_examples=50)
def test_dual_action_is_an_action(name, data):
    model, _ = make_group(name)
    omega = np.array([data.draw(finite) for _ in range(model.dim_N)])
    t1 = data.draw(st.floats(min_value=-2.0, max_value=2.0))
    t2 = data.draw(st.floats(min_value=-2.0, max_value=2.0))
    once = model.dual_action(t1, model.dual_action(t2, omega))
    combined = model.dual_action(t1 + t2, omega)
    np.testing.assert_allclose(once, combined, rtol=1e-10, atol=1e-12)


def test_axb_dual_action_closed_form():
    model, _ = make_group("axb")
    np.testing.assert_allclose(model.dual_action(math.log(4.0), np.array([2.0])), [0.5])


def test_heisenberg_dual_action_closed_form():
    model, _ = make_group("heisenberg")
    np.testing.assert_allclose(model.dual_action(0.5, np.array([1.0, 2.0])), [0.0, 2.0])
    np.testing.assert_allclose(model.dual_action(-1.0, np.array([0.0, 3.0])), [3.0, 3.0])


@pytest.mark.parametrize("name", ["axb", "heisenberg"])
def test_array_dual_action_equals_scalar_calls(name):
    """The orbit map over a whole quotient grid, one row per point, is the
    stack of the scalar calls bit for bit, at every transversal point."""
    from hywbench.verify import default_grids, default_sampling_config

    model, dual = make_group(name)
    _, h_grid = default_grids(name)
    ts = h_grid.points()
    params, _ = dual.transversal(default_sampling_config(name))
    for sigma0 in params:
        rows = model.dual_action(ts, sigma0)
        scalar = np.stack([model.dual_action(t, sigma0) for t in ts])
        assert rows.shape == (h_grid.n, model.dim_N)
        assert np.array_equal(rows, scalar)


@given(finite, finite, finite, finite)
def test_character_is_multiplicative(w1, w2, n1, n2):
    omega = np.array([w1, w2])
    a, b = np.array([n1, n2]), np.array([n2, -n1])
    val = character_value(omega, a + b)
    assert val == pytest.approx(character_value(omega, a) * character_value(omega, b), abs=1e-9)
    assert abs(abs(character_value(omega, a)) - 1.0) < 1e-12


# -- transversals -----------------------------------------------------------------


def test_axb_transversal_two_unit_atoms():
    _, dual = make_group("axb")
    params, weights = dual.transversal(None)
    np.testing.assert_allclose(params, [[1.0], [-1.0]])
    np.testing.assert_allclose(weights, [1.0, 1.0])


def test_heisenberg_transversal_weights():
    _, dual = make_group("heisenberg")
    cfg = DualSamplingConfig(lambda_points=8, lambda_min=0.1, lambda_max=0.9)
    params, weights = dual.transversal(cfg)
    lam = params[:, 1]
    step = (0.9 - 0.1) / 4
    assert params.shape == (8, 2)
    np.testing.assert_allclose(params[:, 0], 0.0)
    np.testing.assert_allclose(lam, -lam[::-1])  # symmetric about 0
    np.testing.assert_allclose(lam[lam > 0], 0.1 + (np.arange(4) + 0.5) * step)
    np.testing.assert_allclose(weights, np.abs(lam) * step)
    # quadrature mass of |lambda| d lambda over both signed intervals
    assert weights.sum() == pytest.approx(0.9**2 - 0.1**2, rel=1e-12)


def test_heisenberg_transversal_default_config():
    _, dual = make_group("heisenberg")
    params, weights = dual.transversal(None)
    assert params.shape == (64, 2)
    assert np.all(weights > 0)


def test_sampling_config_validation():
    with pytest.raises(ValueError):
        DualSamplingConfig(lambda_points=7)
    with pytest.raises(ValueError):
        DualSamplingConfig(lambda_min=0.0)
    with pytest.raises(ValueError):
        DualSamplingConfig(lambda_min=2.0, lambda_max=1.0)


def test_make_group_rejects_unknown():
    with pytest.raises(ValueError):
        make_group("so3")


def test_package_root_holds_only_make_group():
    """Every other name is imported from the module that defines it, so the
    package root holds make_group, the version and the submodules."""
    import hywbench

    public = {
        name
        for name, value in vars(hywbench).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert public == {"make_group"}
    assert hywbench.__all__ == ["make_group"] and hywbench.__version__
