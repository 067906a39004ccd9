import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierwalk import (
    DEFAULT_IC,
    THETA0,
    CoinField,
    DisorderSpec,
    PoleProximalError,
    absorbed_amplitude,
    evolve_absorbing,
)
from hierwalk import rgflow
from hierwalk.rgflow import COND_LIMIT, _resolvent


def build_coin(theta):
    """The 2x2 coin [[sin, cos], [cos, -sin]] of angle theta, in (right-mover, left-mover) order."""
    s, c = math.sin(theta), math.cos(theta)
    return np.array([[s, c], [c, -s]], dtype=complex)


HADAMARD = build_coin(THETA0)
SYMMETRIC_IC = np.array([1 / math.sqrt(2), 1j / math.sqrt(2)])
UP_IC = np.array([1.0, 0.0])


# Oracle: the recursion on the full 2x2 matrices (S^A, S^B, S^M), with no
# assumption about which of their entries stay zero.
def _adjugate2(m):
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex), complex(det)


def _norm1(m):
    return float(np.max(np.sum(np.abs(m), axis=0)))


def _matrix_resolvent(coin, sm, cond_limit):
    adj, det = _adjugate2(coin)
    if det == 0:
        raise PoleProximalError("coin matrix is singular", float("inf"))
    m = adj / det - sm
    adj_m, det_m = _adjugate2(m)
    if det_m == 0:
        raise PoleProximalError("resolvent is singular at this z", float("inf"))
    g = adj_m / det_m
    cond = _norm1(m) * _norm1(g)
    if not np.isfinite(cond) or cond > cond_limit:
        raise PoleProximalError("pole-proximal z", cond)
    return g


def matrix_amplitude(l, field, z, psi, cond_limit=COND_LIMIT, level_coin=None):
    """Oracle; level_coin(k) gives the level-k 2x2 coin, by default build_coin of its angle."""
    if level_coin is None:
        def level_coin(k):
            return build_coin(field.level_angle(k))
    sa = np.array([[z, 0], [0, 0]], dtype=complex)
    sb = np.array([[0, 0], [0, z]], dtype=complex)
    sm = np.zeros((2, 2), dtype=complex)
    for k in range(l - 1):
        g = _matrix_resolvent(level_coin(k), sm, cond_limit)
        sa, sb, sm = sa @ g @ sa, sb @ g @ sb, sm + sa @ g @ sb + sb @ g @ sa
    g = _matrix_resolvent(level_coin(l - 1), sm, cond_limit)
    return sa @ g @ psi, sb @ g @ psi


class UniformLevels:
    """Stand-in field whose every level carries one angle, including angles no CoinField draws."""

    def __init__(self, theta, n_levels):
        self.theta = theta
        self.n_levels = n_levels
        self.half_width = 2 ** (n_levels - 1)

    def level_angle(self, k):
        return self.theta


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PoleProximalError as err:
        return err


def test_matches_matrix_recursion_on_random_fields():
    rng = np.random.default_rng(12345)
    poles = 0
    for _ in range(400):
        l = int(rng.integers(1, 13))
        field = CoinField(
            float(rng.uniform(0.05, 1.0)),
            DisorderSpec(model="hierarchical", W=float(rng.uniform(0.0, math.pi)),
                         seed=int(rng.integers(0, 2 ** 63))),
            2 ** l,
        )
        z = complex(*rng.uniform(-0.9, 0.9, 2))
        if abs(z) > 0.9:
            z *= 0.9 / abs(z)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        cond_limit = float(rng.choice([COND_LIMIT, 2.1]))  # typical worst conditions are 1.1-2.6
        got = _outcome(absorbed_amplitude, l, field, z, psi, cond_limit)
        want = _outcome(matrix_amplitude, l, field, z, psi, cond_limit)
        if isinstance(want, PoleProximalError):
            poles += 1
            assert isinstance(got, PoleProximalError)
            assert got.condition == pytest.approx(want.condition, rel=1e-9)
            continue
        assert not isinstance(got, PoleProximalError), got
        for rg, oracle in zip(got, want):
            np.testing.assert_allclose(rg, oracle, rtol=1e-12, atol=0)
            assert np.count_nonzero(rg) <= 1  # right holds only up, left only down
    assert 0 < poles < 400  # both outcomes exercised


def test_matches_matrix_recursion_on_asymmetric_real_coins(monkeypatch):
    # Every coin the package builds is symmetric (c01 == c10), which makes G symmetric and
    # hides a swap of g01 and g10. Rotations are real, invertible, and have c01 = -c10.
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(200):
        l = int(rng.integers(2, 10))
        angles = rng.uniform(0.1, math.pi - 0.1, l)
        coins = [np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
                 for a in angles]
        monkeypatch.setattr(rgflow, "_level_coin", lambda field, k: tuple(coins[k].ravel()))
        field = UniformLevels(THETA0, l)  # its level angles go unused
        z = complex(*rng.uniform(-0.6, 0.6, 2))
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        got = _outcome(absorbed_amplitude, l, field, z, psi)
        want = _outcome(matrix_amplitude, l, field, z, psi, COND_LIMIT,
                        lambda k: coins[k].astype(complex))
        if isinstance(want, PoleProximalError):
            assert isinstance(got, PoleProximalError)
            continue
        assert not isinstance(got, PoleProximalError), got
        for rg, oracle in zip(got, want):
            np.testing.assert_allclose(rg, oracle, rtol=1e-12, atol=0)
        checked += 1
    assert checked > 150


def test_resolvent_matches_matrix_resolvent():
    # general coins: a level coin is symmetric, which keeps m_ab == m_ba in the recursion
    rng = np.random.default_rng(7)
    for _ in range(200):
        coin = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m_ab, m_ba = rng.normal(size=2) + 1j * rng.normal(size=2)
        sm = np.array([[0, m_ab], [m_ba, 0]])
        got = _resolvent(tuple(coin.ravel()), m_ab, m_ba, COND_LIMIT)
        want = _matrix_resolvent(coin, sm, COND_LIMIT)
        np.testing.assert_allclose(got, want.ravel(), rtol=1e-12, atol=0)


def test_rg_init_examples():
    # l = 1 runs no step: the bare shifts z diag(1,0), z diag(0,1) close on C_0
    field = CoinField(1.0, DisorderSpec(), 2)
    coined = HADAMARD @ SYMMETRIC_IC
    for z in (1.0, 0.5j, 0.0):
        right, left = absorbed_amplitude(1, field, z, SYMMETRIC_IC)
        np.testing.assert_allclose(right, [z * coined[0], 0], atol=1e-15)
        np.testing.assert_allclose(left, [0, z * coined[1]], atol=1e-15)
        assert right[1] == 0 and left[0] == 0


def test_rg_step_hadamard_closed_form():
    # one Hadamard step leaves a = w, b = -w, m_ab = m_ba = w with w = z^2/sqrt 2
    z = 0.3 + 0.2j
    field = CoinField(1.0, DisorderSpec(), 4)
    w = z * z / math.sqrt(2)
    g = np.linalg.inv(np.linalg.inv(HADAMARD) - np.array([[0, w], [w, 0]]))
    right, left = absorbed_amplitude(2, field, z, SYMMETRIC_IC)
    np.testing.assert_allclose(right, [w * (g @ SYMMETRIC_IC)[0], 0], atol=1e-15)
    np.testing.assert_allclose(left, [0, -w * (g @ SYMMETRIC_IC)[1]], atol=1e-15)


def test_rg_step_transmission_coin_stays_diagonal():
    z = 0.41 - 0.13j
    field = UniformLevels(math.pi / 2, 5)  # coin [[1, 0], [0, -1]]: free passage
    for l in range(1, 5):
        right, left = absorbed_amplitude(l, field, z, SYMMETRIC_IC)
        assert right[1] == 0 and left[0] == 0
        # the renormalized hop is just the doubled traversal, up to the sign of C = diag(1, -1)
        assert right[0] == pytest.approx(z ** (2 ** (l - 1)) * SYMMETRIC_IC[0], abs=1e-14)
        assert abs(left[1]) == pytest.approx(abs(z) ** (2 ** (l - 1)) / math.sqrt(2), abs=1e-14)


def test_rg_step_z_zero_stays_zero():
    field = CoinField(1.0, DisorderSpec(), 64)
    for l in range(1, 7):
        right, left = absorbed_amplitude(l, field, 0.0, SYMMETRIC_IC)
        assert np.all(right == 0) and np.all(left == 0)


def test_rg_step_flags_ill_conditioned_resolvent():
    coin = tuple(HADAMARD.ravel().real)
    with pytest.raises(PoleProximalError) as err:
        _resolvent(coin, 0j, 0j, cond_limit=1.0)
    assert err.value.condition > 1.0
    with pytest.raises(PoleProximalError):
        absorbed_amplitude(3, CoinField(1.0, DisorderSpec(), 8), 0.9, SYMMETRIC_IC, cond_limit=1.0)


def test_rg_step_flags_singular_coin():
    with pytest.raises(PoleProximalError, match="coin matrix is singular"):
        _resolvent((0.0, 0.0, 0.0, 0.0), 0j, 0j, COND_LIMIT)
    # identity coin with m_ab m_ba = 1: C^{-1} - S^M has determinant 0
    with pytest.raises(PoleProximalError, match="resolvent is singular"):
        _resolvent((1.0, 0.0, 0.0, 1.0), 1 + 0j, 1 + 0j, COND_LIMIT)


def test_homogeneity_minimal_order_doubles():
    # the right-wall amplitude after k steps scales as z^(2^k) at small |z|:
    # each step doubles the shortest traversal
    z0 = 1e-2
    lam = 2.0
    field = CoinField(0.7, DisorderSpec(model="hierarchical", W=0.9, seed=21), 16)
    for k in range(1, 4):
        r_a, _ = absorbed_amplitude(k + 1, field, z0, UP_IC)
        r_b, _ = absorbed_amplitude(k + 1, field, lam * z0, UP_IC)
        assert abs(r_b[0]) / abs(r_a[0]) == pytest.approx(lam ** (2 ** k), rel=1e-2)


def test_absorbed_amplitude_cost_grows_with_levels_not_sites():
    # a 2^40 half width must not be tabulated site by site
    field = CoinField(0.8, DisorderSpec(model="hierarchical", W=0.5, seed=3), 2 ** 40)
    right, left = absorbed_amplitude(40, field, 0.3 + 0.1j, DEFAULT_IC)
    assert np.all(np.isfinite(right)) and np.all(np.isfinite(left))


def test_absorbed_amplitude_l1_closed_form():
    z = 0.37 + 0.11j
    field = CoinField(1.0, DisorderSpec(), 2)
    right, left = absorbed_amplitude(1, field, z, np.array([1.0, 0.0]))
    # no recursion steps: the wall amplitude is z times the coined spinor
    assert right[0] == pytest.approx(z / math.sqrt(2), abs=1e-14)
    assert right[1] == 0
    assert left[1] == pytest.approx(z / math.sqrt(2), abs=1e-14)
    assert left[0] == 0


def test_absorbed_amplitude_matches_series_oracle_homogeneous():
    field = CoinField(1.0, DisorderSpec(), 4)
    z = 0.5
    rec = evolve_absorbing(field, 2, np.array([1.0, 0.0]), 64)
    r_sim, l_sim = rec.generating_function(z)
    r_rg, l_rg = absorbed_amplitude(2, field, z, np.array([1.0, 0.0]))
    assert np.abs(r_rg - r_sim).max() < 1e-9
    assert np.abs(l_rg - l_sim).max() < 1e-9


def test_absorbed_amplitude_matches_series_oracle_disordered():
    field = CoinField(0.6, DisorderSpec(model="hierarchical", W=0.4, seed=313), 8)
    z = 0.3
    rec = evolve_absorbing(field, 3, SYMMETRIC_IC, 200)
    r_sim, l_sim = rec.generating_function(z)
    r_rg, l_rg = absorbed_amplitude(3, field, z, SYMMETRIC_IC)
    assert np.abs(r_rg - r_sim).max() < 1e-9
    assert np.abs(l_rg - l_sim).max() < 1e-9


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4),
    st.floats(0.25, 1.0),
    st.floats(0.0, math.pi),
    st.integers(0, 2 ** 32),
    st.floats(-0.6, 0.6),
    st.floats(-0.6, 0.6),
)
def test_series_oracle_equivalence_property(l, eps, W, seed, z_re, z_im):
    z = complex(z_re, z_im)
    if abs(z) > 0.6:
        return
    field = CoinField(eps, DisorderSpec(model="hierarchical", W=W, seed=seed), 2 ** l)
    T = 200
    rec = evolve_absorbing(field, l, SYMMETRIC_IC, T)
    r_sim, l_sim = rec.generating_function(z)
    r_rg, l_rg = absorbed_amplitude(l, field, z, SYMMETRIC_IC)
    # analytic truncation bound, padded with float slack (the bound itself
    # underflows double precision at T = 200)
    bound = max(abs(z) ** T / (1 - abs(z)) if abs(z) < 1 else np.inf, 1e-12)
    assert np.abs(r_rg - r_sim).max() < bound
    assert np.abs(l_rg - l_sim).max() < bound


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 4),
    st.floats(0.3, 1.0),
    st.floats(0.0, math.pi),
    st.integers(0, 2 ** 16),
    st.floats(0.05, 0.9),
)
def test_wall_amplitude_norm_bound(l, eps, W, seed, zabs):
    # |psi_bar(z)|^2 <= 1/(1-|z|^2) for generating functions of sub-unit-norm
    # arrival sequences
    field = CoinField(eps, DisorderSpec(model="hierarchical", W=W, seed=seed), 2 ** l)
    try:
        right, left = absorbed_amplitude(l, field, complex(zabs), SYMMETRIC_IC)
    except PoleProximalError:
        return
    cap = 1.0 / (1.0 - zabs ** 2) + 1e-9
    assert np.sum(np.abs(right) ** 2) <= cap
    assert np.sum(np.abs(left) ** 2) <= cap


def test_absorbed_amplitude_rejects_extensive_field():
    field = CoinField(1.0, DisorderSpec(model="extensive", W=0.5, seed=1), 8)
    with pytest.raises(ValueError):
        absorbed_amplitude(2, field, 0.3, SYMMETRIC_IC)


def test_absorbed_amplitude_rejects_small_field():
    field = CoinField(1.0, DisorderSpec(), 2)  # levels 0..1 only
    with pytest.raises(ValueError):
        absorbed_amplitude(3, field, 0.3, SYMMETRIC_IC)


def test_absorbed_amplitude_rejects_bad_l():
    field = CoinField(1.0, DisorderSpec(), 8)
    with pytest.raises(ValueError):
        absorbed_amplitude(0, field, 0.3, SYMMETRIC_IC)


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.3, math.inf), -math.inf])
def test_absorbed_amplitude_rejects_non_finite_z(z):
    field = CoinField(1.0, DisorderSpec(), 8)
    with pytest.raises(ValueError, match="z must be finite"):
        absorbed_amplitude(2, field, z, SYMMETRIC_IC)


def test_absorbed_amplitude_rejects_unnormalized_spinor():
    field = CoinField(1.0, DisorderSpec(), 8)
    with pytest.raises(ValueError, match="normalized"):
        absorbed_amplitude(2, field, 0.3, np.array([1.0, 1.0]))
