import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierwalk import (
    THETA0,
    CoinField,
    DisorderSpec,
    draw_base_angles,
    evolve_state,
    field_from_config,
)
from hierwalk.coins import require_epsilon

from angle_oracle import hierarchy_index, site_angles

HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def site_trig(field, x):
    """(sin, cos) of site x's angle, read from the field's table of x's parity."""
    cone = field.half_width - (x + field.half_width) % 2
    s, c = field.trig_slice(cone)
    return s[(x + cone) // 2], c[(x + cone) // 2]


def build_coin(field, x):
    """The 2x2 coin [[sin, cos], [cos, -sin]] that the walks apply at site x, in (right, left) order."""
    s, c = site_trig(field, x)
    return np.array([[s, c], [c, -s]])


def assert_unitary_coins(field):
    L = field.half_width
    for cone in (L, L - 1):
        s, c = field.trig_slice(cone)
        assert np.abs(s * s + c * c - 1.0).max() < 1e-15
    for x in range(-L, L + 1):
        if x:
            coin = build_coin(field, x)
            assert np.abs(coin.T @ coin - np.eye(2)).max() < 1e-12


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
    f = CoinField(1.0, DisorderSpec(), 8)
    for x in (-8, -3, 1, 2, 7):
        np.testing.assert_allclose(build_coin(f, x), HADAMARD, atol=1e-15)


def test_build_coin_full_transmission():
    """Level-0 angles drawn up to pi/2: the coin nears [[1, 0], [0, -1]] as its angle does."""
    f = CoinField(1.0, DisorderSpec(model="extensive", W=math.pi / 4, seed=1), 4096)
    sites = np.arange(-4095, 4096, 2)  # odd: level 0, where epsilon^0 = 1
    x = int(sites[np.argmax(site_angles(f, sites))])
    gap = math.pi / 2 - site_angles(f, [x])[0]
    assert 0 < gap < 1e-3
    np.testing.assert_allclose(build_coin(f, x), [[1, 0], [0, -1]], rtol=0, atol=gap)


def test_build_coin_full_reflection():
    """High-level angles vanish as epsilon^i: the coin becomes the swap [[0, 1], [1, 0]]."""
    f = CoinField(1e-4, DisorderSpec(model="hierarchical", W=0.5, seed=2), 64)
    for x in (-64, -32, 32, 64):  # levels 5 and 6
        np.testing.assert_allclose(build_coin(f, x), [[0, 1], [1, 0]], atol=1e-15)


def test_build_coin_unitary_bulk():
    for model, W in (("hierarchical", math.pi), ("extensive", math.pi)):
        assert_unitary_coins(CoinField(0.7, DisorderSpec(model=model, W=W, seed=1), 4096))


@settings(max_examples=25, deadline=None)
@given(st.floats(1e-3, 1.0), st.floats(0.0, math.pi), st.integers(0, 2 ** 64 - 1),
       st.sampled_from(["hierarchical", "extensive"]))
def test_build_coin_unitary_property(epsilon, W, seed, model):
    assert_unitary_coins(CoinField(epsilon, DisorderSpec(model=model, W=W, seed=seed), 64))


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
    (theta,) = site_angles(f, [12])  # level 2
    assert theta == f.level_angle(2) == pytest.approx(THETA0 * 0.36, rel=1e-14)
    assert theta == pytest.approx(0.2827, abs=1e-4)
    assert site_trig(f, 12) == (np.sin(theta), np.cos(theta))


def test_epsilon_one_is_hadamard_everywhere():
    f = CoinField(1.0, DisorderSpec(), 64)
    for x in (-64, -5, -1, 1, 2, 12, 64):
        assert site_angles(f, [x])[0] == f.level_angle(hierarchy_index(x).i) == THETA0
        np.testing.assert_allclose(build_coin(f, x), HADAMARD, atol=1e-15)


def test_hierarchical_level_draw_shared_across_signs():
    f = CoinField(0.8, DisorderSpec(model="hierarchical", W=0.3, seed=11), 64)
    assert site_trig(f, 6) == site_trig(f, -6)  # both level 1, one draw per level
    theta6, theta_6 = site_angles(f, [6, -6])
    assert theta6 == theta_6 == f.level_angle(1)


def test_field_determinism():
    spec = DisorderSpec(model="extensive", W=1.5, seed=2024)
    a = CoinField(0.7, spec, 256)
    b = CoinField(0.7, spec, 256)
    for cone in (256, 255):
        for ta, tb in zip(a.trig_slice(cone), b.trig_slice(cone)):
            assert ta.tobytes() == tb.tobytes()


def test_angle_table_matches_scalar_path():
    """The oracle's angle table is each site's level angle, level from hierarchy_index."""
    f = CoinField(0.7, DisorderSpec(model="hierarchical", W=0.9, seed=3), 128)
    tab = site_angles(f, range(-128, 129))
    for x in range(-128, 129):
        if x == 0:
            assert tab[128] == 0.0
        else:
            assert tab[x + 128] == f.level_angle(hierarchy_index(x).i)


def test_origin_is_identity():
    f = CoinField(0.5, DisorderSpec(), 16)
    with pytest.raises(ValueError, match="identity coin"):
        hierarchy_index(0)
    # the walk's first step passes both components of the origin through unmixed
    state = evolve_state(f, [1.0, 0.0], 1)
    assert state.spinor_at(1) == (1.0, 0.0) and state.spinor_at(-1) == (0.0, 0.0)


def test_out_of_range_rejected():
    f = CoinField(0.5, DisorderSpec(), 16)
    with pytest.raises(ValueError):
        f.trig_slice(17)
    with pytest.raises(ValueError):
        f.trig_slice(-1)


def test_epsilon_validation():
    with pytest.raises(ValueError):
        CoinField(0.0, DisorderSpec(), 16)
    with pytest.raises(ValueError):
        CoinField(1.2, DisorderSpec(), 16)
    for epsilon in (True, np.True_):  # not epsilon = 1.0
        with pytest.raises(ValueError, match="epsilon must be a number"):
            CoinField(epsilon, DisorderSpec(), 16)


@pytest.mark.parametrize("half_width", [2.5, 9.9, 16.0, "16", True, np.True_])
def test_half_width_must_be_an_integer(half_width):
    """Never truncated to an integer, and True is not half_width = 1."""
    with pytest.raises(ValueError, match="half_width must be an integer"):
        CoinField(0.5, DisorderSpec(), half_width)


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", True, np.True_])
def test_seed_must_be_an_integer(seed):
    """Refused when the spec is made, not at the draw, and True is not seed = 1."""
    with pytest.raises(ValueError, match="seed must be an integer"):
        DisorderSpec("hierarchical", 1.0, seed)


@pytest.mark.parametrize("W", [True, np.True_])
def test_W_must_not_be_a_bool(W):
    """True is not W = 1.0: refused when the spec is made, as epsilon is."""
    with pytest.raises(ValueError, match="W must be a number, got"):
        DisorderSpec("hierarchical", W, 1)


def test_numpy_integers_are_taken_as_half_width_and_seed():
    spec = DisorderSpec("hierarchical", 1.0, np.uint64(2 ** 64 - 1))
    f = CoinField(0.5, spec, np.int64(16))
    assert f.half_width == 16 and type(f.half_width) is int
    g = CoinField(0.5, DisorderSpec("hierarchical", 1.0, 2 ** 64 - 1), 16)
    assert f.trig_slice(16)[0].tobytes() == g.trig_slice(16)[0].tobytes()


@pytest.mark.parametrize("value", [True, np.True_, 3.0, 1.5, "3", None])
def test_cone_level_and_count_must_be_integers(value):
    """Refused by name: True is not cone, level or count 1, and 3.0 is not 3."""
    f = CoinField(0.7, DisorderSpec("hierarchical", 1.0, 3), 16)
    with pytest.raises(ValueError, match="cone must be an integer"):
        f.trig_slice(value)
    with pytest.raises(ValueError, match="level must be an integer"):
        f.level_angle(value)
    with pytest.raises(ValueError, match="count must be an integer"):
        draw_base_angles(f.disorder, value)


@pytest.mark.parametrize("value", ["0.5", None, b"0.5", 0.5j])
def test_epsilon_and_W_must_be_numbers(value):
    with pytest.raises(ValueError, match="epsilon must be a number, got"):
        require_epsilon(value)
    with pytest.raises(ValueError, match="epsilon must be a number, got"):
        CoinField(value, DisorderSpec(), 16)
    with pytest.raises(ValueError, match="W must be a number, got"):
        DisorderSpec("hierarchical", value, 1)


def test_numpy_numbers_are_taken_as_cone_level_count_epsilon_and_W():
    f = CoinField(0.7, DisorderSpec("hierarchical", 1.0, 3), 16)
    for int_type in (np.int32, np.int64, np.uint8):
        assert f.trig_slice(int_type(3))[0].tobytes() == f.trig_slice(3)[0].tobytes()
        assert f.level_angle(int_type(2)) == f.level_angle(2)
        assert draw_base_angles(f.disorder, int_type(3)).tobytes() == draw_base_angles(f.disorder, 3).tobytes()
    for epsilon in (np.float64(0.5), np.float32(0.5), np.int64(1), 1):
        assert require_epsilon(epsilon) == float(epsilon)
    for W in (np.float64(0.5), np.float32(0.5), np.int64(1), 0):
        assert DisorderSpec("hierarchical", W, 1).W == W


def test_extensive_site_draws_differ_within_level():
    f = CoinField(1.0, DisorderSpec(model="extensive", W=1.0, seed=8), 64)
    theta1, theta3 = site_angles(f, [1, 3])
    assert theta1 != theta3  # same level, independent site draws
    assert site_trig(f, 1) == (np.sin(theta1), np.cos(theta1))
    assert site_trig(f, 3) == (np.sin(theta3), np.cos(theta3))
    with pytest.raises(ValueError):
        f.level_angle(0)


def test_trig_slice_matches_angles():
    f = CoinField(0.9, DisorderSpec(model="extensive", W=0.4, seed=6), 32)
    tab = site_angles(f, range(-32, 33))
    for cone in (0, 1, 2, 3, 7, 8, 31, 32):
        s, c = f.trig_slice(cone)
        sites = np.arange(-cone, cone + 1, 2)
        np.testing.assert_array_equal(s, np.sin(tab[sites + 32]))
        np.testing.assert_array_equal(c, np.cos(tab[sites + 32]))


@pytest.mark.parametrize("half_width", [1, 2, 1024, 8192])
@pytest.mark.parametrize("model, W", [
    ("none", 0.0), ("hierarchical", 1.0), ("extensive", math.pi / 4), ("hierarchical", 3.0),
    # the origin's draw is negative at half_width 1, 2 and 8192: its angle is +0.0, not base * 0
    ("extensive", 3.0),
], ids=["none", "hierarchical", "extensive", "obtuse", "extensive_obtuse"])
def test_trig_tables_are_sin_and_cos_of_the_angle_table(model, W, half_width):
    """Per-level (or per-parity) trig tables hold np.sin and np.cos of each parity's site angles, byte for byte."""
    f = CoinField(0.6, DisorderSpec(model=model, W=W, seed=0), half_width)
    tab = site_angles(f, range(-half_width, half_width + 1))
    for cone, sites in ((half_width, tab[0::2]), (half_width - 1, tab[1::2])):  # both parities
        s, c = f.trig_slice(cone)
        assert s.tobytes() == np.sin(sites).tobytes()
        assert c.tobytes() == np.cos(sites).tobytes()


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
    with pytest.raises(ValueError, match="config key W"):
        field_from_config({"epsilon": "0.8", "W": "", "half_width": "64"})
    with pytest.raises(ValueError, match="config key seed"):
        field_from_config({"epsilon": "0.8", "seed": "1.5", "half_width": "64"})
