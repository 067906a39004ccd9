import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierwalk import (
    THETA0,
    CoinField,
    DisorderSpec,
    PoleProximalError,
    absorbed_amplitude,
    build_coin,
    evolve_absorbing,
    rg_init,
    rg_step,
)

HADAMARD = build_coin(THETA0)
SYMMETRIC_IC = np.array([1 / math.sqrt(2), 1j / math.sqrt(2)])


def test_rg_init_examples():
    tri = rg_init(1.0)
    np.testing.assert_array_equal(tri.SA, np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_array_equal(tri.SB, np.diag([0.0, 1.0]).astype(complex))
    np.testing.assert_array_equal(tri.SM, np.zeros((2, 2)))
    assert tri.k == 0

    zero = rg_init(0.0)
    assert np.all(zero.SA == 0) and np.all(zero.SB == 0) and np.all(zero.SM == 0)

    tri_i = rg_init(0.5j)
    assert tri_i.SA[0, 0] == 0.5j
    assert tri_i.SB[1, 1] == 0.5j


def test_rg_step_hadamard_closed_form():
    z = 0.3 + 0.2j
    tri = rg_step(rg_init(z), HADAMARD)
    w = z * z / math.sqrt(2)
    np.testing.assert_allclose(tri.SA, [[w, 0], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(tri.SB, [[0, 0], [0, -w]], atol=1e-15)
    np.testing.assert_allclose(tri.SM, [[0, w], [w, 0]], atol=1e-15)
    assert tri.k == 1
    assert np.isfinite(tri.max_condition)


def test_rg_step_transmission_coin_stays_diagonal():
    z = 0.41 - 0.13j
    coin = build_coin(math.pi / 2)  # [[1, 0], [0, -1]]
    tri = rg_init(z)
    for k in range(1, 4):
        tri = rg_step(tri, coin)
        assert tri.SA[0, 1] == 0 and tri.SA[1, 0] == 0 and np.all(tri.SA[1] == 0)
        assert tri.SB[0, 1] == 0 and tri.SB[1, 0] == 0 and np.all(tri.SB[0] == 0)
        np.testing.assert_allclose(tri.SM, np.zeros((2, 2)), atol=1e-15)
        # free passage: the renormalized hop is just the doubled traversal
        assert tri.SA[0, 0] == pytest.approx(z ** (2 ** k), abs=1e-14)


def test_rg_step_z_zero_stays_zero():
    tri = rg_init(0.0)
    for _ in range(5):
        tri = rg_step(tri, HADAMARD)
    assert np.all(tri.SA == 0) and np.all(tri.SB == 0) and np.all(tri.SM == 0)


def test_rg_step_rejects_bad_coin_shape():
    with pytest.raises(ValueError):
        rg_step(rg_init(0.1), np.eye(3))


def test_rg_step_flags_ill_conditioned_resolvent():
    tri = rg_init(0.9)
    with pytest.raises(PoleProximalError) as err:
        rg_step(tri, HADAMARD, cond_limit=1.0)
    assert err.value.condition > 1.0


def test_rg_step_flags_singular_coin():
    with pytest.raises(PoleProximalError):
        rg_step(rg_init(0.2), np.zeros((2, 2)))


def test_homogeneity_minimal_order_doubles():
    # entries of S_k^A scale as z^(2^k) at small |z|: each step doubles the
    # shortest traversal
    z0 = 1e-2
    lam = 2.0
    field = CoinField(0.7, DisorderSpec(model="hierarchical", W=0.9, seed=21), 16)
    tri_a, tri_b = rg_init(z0), rg_init(lam * z0)
    for k in range(1, 4):
        tri_a = rg_step(tri_a, field.level_coin(k - 1))
        tri_b = rg_step(tri_b, field.level_coin(k - 1))
        ratio = abs(tri_b.SA[0, 0]) / abs(tri_a.SA[0, 0])
        assert ratio == pytest.approx(lam ** (2 ** k), rel=1e-2)


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
