import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierwalk import (
    THETA0,
    CoinField,
    DisorderSpec,
    build_coin,
    draw_base_angles,
    field_from_config,
    hierarchy_index,
)

HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def test_hierarchy_index_examples():
    assert (hierarchy_index(12).i, hierarchy_index(12).j) == (2, 1)
    assert (hierarchy_index(5).i, hierarchy_index(5).j) == (0, 2)
    assert (hierarchy_index(-8).i, hierarchy_index(-8).j) == (3, -1)


def test_hierarchy_index_zero_rejected():
    with pytest.raises(ValueError):
        hierarchy_index(0)


def test_hierarchy_roundtrip_exhaustive():
    for x in range(-(2 ** 16), 2 ** 16 + 1):
        if x == 0:
            continue
        h = hierarchy_index(x)
        assert (2 * h.j + 1) << h.i == x
        assert h.site == x


@given(st.integers(min_value=-(2 ** 40), max_value=2 ** 40).filter(lambda x: x != 0))
def test_hierarchy_roundtrip_and_oddness(x):
    h = hierarchy_index(x)
    assert h.i >= 0
    assert (x >> h.i) % 2 != 0  # quotient 2j+1 is odd, so the pair is unique
    assert h.site == x


def test_build_coin_hadamard():
    np.testing.assert_allclose(build_coin(THETA0), HADAMARD, atol=1e-15)


def test_build_coin_full_transmission():
    c = build_coin(math.pi / 2)
    np.testing.assert_allclose(c, [[1, 0], [0, -1]], atol=1e-15)


def test_build_coin_full_reflection():
    c = build_coin(0.0)
    np.testing.assert_allclose(c, [[0, 1], [1, 0]], atol=1e-15)


def test_build_coin_unitary_bulk():
    rng = np.random.default_rng(1)
    worst = 0.0
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, 10_000):
        c = build_coin(theta)
        worst = max(worst, np.abs(c.conj().T @ c - np.eye(2)).max())
    assert worst < 1e-12


@given(st.floats(-10, 10))
def test_build_coin_unitary_property(theta):
    c = build_coin(theta)
    assert np.abs(c.conj().T @ c - np.eye(2)).max() < 1e-12


def test_draw_none_is_constant():
    spec = DisorderSpec(model="none", W=1.0, seed=99)
    np.testing.assert_array_equal(draw_base_angles(spec, 7), np.full(7, THETA0))


def test_draw_zero_width_is_constant():
    spec = DisorderSpec(model="hierarchical", W=0.0, seed=5)
    np.testing.assert_array_equal(draw_base_angles(spec, 9), np.full(9, THETA0))


def test_draw_range_and_seed_sensitivity():
    spec = DisorderSpec(model="hierarchical", W=math.pi / 2, seed=42)
    table = draw_base_angles(spec, 64)
    assert np.all(table >= THETA0 - math.pi / 2)
    assert np.all(table <= THETA0 + math.pi / 2)
    other = draw_base_angles(DisorderSpec(model="hierarchical", W=math.pi / 2, seed=43), 64)
    assert np.any(table != other)


def test_disorder_spec_rejects_bad_W():
    with pytest.raises(ValueError):
        DisorderSpec(model="hierarchical", W=-0.1, seed=0)
    with pytest.raises(ValueError):
        DisorderSpec(model="hierarchical", W=math.pi + 0.1, seed=0)


def test_disorder_spec_rejects_unknown_model():
    with pytest.raises(ValueError):
        DisorderSpec(model="gaussian", W=0.1, seed=0)


def test_coin_angle_barrier_decay():
    f = CoinField(0.6, DisorderSpec(), 64)
    assert f.angle(12) == pytest.approx(THETA0 * 0.36, rel=1e-14)
    assert f.angle(12) == pytest.approx(0.2827, abs=1e-4)


def test_epsilon_one_is_hadamard_everywhere():
    f = CoinField(1.0, DisorderSpec(), 64)
    for x in (-64, -5, -1, 1, 2, 12, 64):
        assert f.angle(x) == THETA0
        np.testing.assert_allclose(f.coin(x), HADAMARD, atol=1e-15)


def test_hierarchical_level_draw_shared_across_signs():
    f = CoinField(0.8, DisorderSpec(model="hierarchical", W=0.3, seed=11), 64)
    assert f.angle(6) == f.angle(-6)  # both level 1, one draw per level
    assert f.angle(6) == f.level_angle(1)


def test_field_determinism():
    spec = DisorderSpec(model="extensive", W=1.5, seed=2024)
    a = CoinField(0.7, spec, 256)
    b = CoinField(0.7, spec, 256)
    np.testing.assert_array_equal(a.angle_table(), b.angle_table())


def test_angle_table_matches_scalar_path():
    f = CoinField(0.7, DisorderSpec(model="hierarchical", W=0.9, seed=3), 128)
    tab = f.angle_table()
    for x in range(-128, 129):
        if x == 0:
            assert tab[128] == 0.0
        else:
            assert tab[x + 128] == f.angle(x)


def test_origin_is_identity():
    f = CoinField(0.5, DisorderSpec(), 16)
    np.testing.assert_array_equal(f.coin(0), np.eye(2))
    with pytest.raises(ValueError):
        f.angle(0)


def test_out_of_range_rejected():
    f = CoinField(0.5, DisorderSpec(), 16)
    with pytest.raises(ValueError):
        f.angle(17)
    with pytest.raises(ValueError):
        f.angle(-17)


def test_epsilon_validation():
    with pytest.raises(ValueError):
        CoinField(0.0, DisorderSpec(), 16)
    with pytest.raises(ValueError):
        CoinField(1.2, DisorderSpec(), 16)


def test_extensive_site_draws_differ_within_level():
    f = CoinField(1.0, DisorderSpec(model="extensive", W=1.0, seed=8), 64)
    assert f.angle(1) != f.angle(3)  # same level, independent site draws
    with pytest.raises(ValueError):
        f.level_angle(0)


def test_trig_slice_matches_angles():
    f = CoinField(0.9, DisorderSpec(model="extensive", W=0.4, seed=6), 32)
    tab = f.angle_table()
    for cone in (0, 1, 2, 3, 7, 8, 31, 32):
        s, c = f.trig_slice(cone)
        sites = np.arange(-cone, cone + 1, 2)
        np.testing.assert_array_equal(s, np.sin(tab[sites + 32]))
        np.testing.assert_array_equal(c, np.cos(tab[sites + 32]))


@settings(max_examples=25)
@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1))
def test_distinct_seeds_differ_somewhere(seed_a, seed_b):
    if seed_a == seed_b:
        return
    wa = draw_base_angles(DisorderSpec(model="extensive", W=math.pi, seed=seed_a), 32)
    wb = draw_base_angles(DisorderSpec(model="extensive", W=math.pi, seed=seed_b), 32)
    assert np.any(wa != wb)


def test_field_from_config():
    f = field_from_config({
        "epsilon": "0.8", "disorder_model": "hierarchical",
        "W": "0.5", "seed": "7", "half_width": "1024",
    })
    assert f.epsilon == 0.8
    assert f.disorder == DisorderSpec(model="hierarchical", W=0.5, seed=7)
    assert f.half_width == 1024


def test_field_from_config_rejects_bad_input():
    with pytest.raises(ValueError):
        field_from_config({"epsilon": "0.8", "half_width": "100"})  # not a power of two
    with pytest.raises(ValueError):
        field_from_config({"epsilon": "0.8", "half_width": "64", "foo": "1"})
    with pytest.raises(ValueError):
        field_from_config({"half_width": "64"})
