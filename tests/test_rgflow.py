import math
import platform
import struct
import weakref

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
from hierwalk.rgflow import COND_LIMIT, _inverse_entries

import rg_oracle


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


@pytest.fixture(params=["compiled", "python"])
def recursion(request, monkeypatch):
    """absorbed_amplitude runs the library's compiled recursion, or its Python loop, as where the
    library cannot be had."""
    if request.param == "python":
        monkeypatch.setattr(rgflow, "_load_recursion", lambda: None)
    elif rgflow._load_recursion() is None:
        pytest.skip("the compiled recursion cannot be built here")
    return request.param


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PoleProximalError as err:
        return err


def test_matches_matrix_recursion_on_random_fields(recursion):
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


def _bytes_or_pole(fn, *args):
    """The wall vectors' bytes, or the refusal's message and condition."""
    out = _outcome(fn, *args)
    if isinstance(out, PoleProximalError):
        return str(out), out.condition
    return tuple(v.tobytes() for v in out)


def test_matches_step_by_step_recursion_byte_for_byte(recursion):
    # 800 fields x 5 z: each field's table is built at its first z and read at the others
    rng = np.random.default_rng(2022)
    spinors = (DEFAULT_IC, SYMMETRIC_IC, UP_IC, np.array([0.6, -0.8j]))
    outcomes = {True: 0, False: 0}
    for n in range(800):
        l = int(rng.integers(1, 13))
        field = CoinField(float(rng.uniform(0.05, 1.0)),
                          DisorderSpec(model="hierarchical", W=float(rng.uniform(0.0, math.pi)),
                                       seed=int(rng.integers(0, 2 ** 63))),
                          2 ** l)
        psi = spinors[n % len(spinors)]
        for _ in range(5):
            z = 1.2 * math.sqrt(rng.uniform()) * complex(np.exp(2j * math.pi * rng.uniform()))
            cond_limit = float(rng.choice([COND_LIMIT, 2.1]))
            got = _bytes_or_pole(absorbed_amplitude, l, field, z, psi, cond_limit)
            want = _bytes_or_pole(rg_oracle.absorbed_amplitude, l, field, z, psi, cond_limit)
            assert got == want, (l, z, cond_limit)  # the condition compared by ==
            outcomes[isinstance(want[1], float)] += 1
    assert min(outcomes.values()) > 100  # both refused and computed z points


def test_table_lives_and_dies_with_its_field(recursion):
    # CPython hands a dropped field's address to the next field: a table found by id()
    # would give the next field the old coins, and one found by value would be shared
    rng = np.random.default_rng(99)
    ids = set()
    for n in range(240):
        l = 1 + n % 12
        field = CoinField(0.7, DisorderSpec(model="hierarchical", W=math.pi * n / 240, seed=5), 2 ** l)
        ids.add(id(field))
        for z in (0.3 + 0.1j, complex(*rng.uniform(-0.5, 0.5, 2))):
            assert (_bytes_or_pole(absorbed_amplitude, l, field, z, DEFAULT_IC)
                    == _bytes_or_pole(rg_oracle.absorbed_amplitude, l, field, z, DEFAULT_IC))
        twin = CoinField(0.7, DisorderSpec(model="hierarchical", W=math.pi * n / 240, seed=5), 2 ** l)
        assert rgflow._level_inverses(twin) is not rgflow._level_inverses(field)
        dropped = weakref.ref(field)
        del field, twin
        assert dropped() is None  # freed at once, and its table with it
    if platform.python_implementation() == "CPython":
        assert len(ids) < 240  # ids were reused


def _coin_table(monkeypatch, coins):
    """Make coins[k] the level-k coin of every field, through the recursion's per-field table.

    Its entries are Python numbers, as the package's own tables hold: both
    paths compute in CPython's arithmetic, while numpy scalars would divide
    in numpy's.
    """
    table = rgflow._LevelTable(_inverse_entries(*np.asarray(c).ravel().tolist()) for c in coins)
    monkeypatch.setattr(rgflow, "_level_inverses", lambda field: table)


def test_matches_matrix_recursion_on_asymmetric_real_coins(monkeypatch, recursion):
    # Every coin the package builds is symmetric (c01 == c10), which makes G symmetric and
    # hides a swap of g01 and g10. Rotations are real, invertible, and have c01 = -c10.
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(200):
        l = int(rng.integers(2, 10))
        angles = rng.uniform(0.1, math.pi - 0.1, l)
        coins = [np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
                 for a in angles]
        _coin_table(monkeypatch, coins)
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


def test_resolvent_matches_matrix_resolvent(monkeypatch, recursion):
    # general complex coins: a level coin is real and symmetric, which keeps m_ab == m_ba.
    # At l = 2 the closing resolvent meets m_ab = z^2 g01 and m_ba = z^2 g10 of the first
    # coin's G, two unrelated complex numbers; the unit spinors read G's columns one at a time.
    rng = np.random.default_rng(7)
    for _ in range(200):
        coins = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
        _coin_table(monkeypatch, coins)
        field = UniformLevels(THETA0, 2)  # its level angles go unused
        z = complex(*rng.normal(size=2))
        for psi in (UP_IC, np.array([0.0, 1.0])):
            got = absorbed_amplitude(2, field, z, psi, math.inf)
            want = matrix_amplitude(2, field, z, psi, math.inf, lambda k: coins[k])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            # and byte for byte the step-by-step recursion on the same coins
            plain = rg_oracle.absorbed_amplitude(2, field, z, psi, math.inf,
                                                 lambda field, k: tuple(coins[k].ravel().tolist()))
            assert [v.tobytes() for v in got] == [v.tobytes() for v in plain]


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


def test_rg_step_flags_ill_conditioned_resolvent(recursion):
    # at l = 1, S^M = 0 and G = C: the condition is ||C^-1||_1 ||C||_1 = 2 for the Hadamard coin
    with pytest.raises(PoleProximalError) as err:
        absorbed_amplitude(1, CoinField(1.0, DisorderSpec(), 2), 0.3, SYMMETRIC_IC, cond_limit=1.0)
    assert err.value.condition == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(PoleProximalError):
        absorbed_amplitude(3, CoinField(1.0, DisorderSpec(), 8), 0.9, SYMMETRIC_IC, cond_limit=1.0)


def test_rg_step_flags_singular_coin(monkeypatch, recursion):
    field = UniformLevels(THETA0, 2)  # its level angles go unused
    _coin_table(monkeypatch, [np.zeros((2, 2))])
    with pytest.raises(PoleProximalError, match="coin matrix is singular"):
        absorbed_amplitude(1, field, 0.3, SYMMETRIC_IC)
    # the swap coin [[0, 1], [1, 0]] at z = 1 leaves m_ab = m_ba = 1, so the identity
    # coin's C^{-1} - S^M has determinant 0
    _coin_table(monkeypatch, [np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)])
    with pytest.raises(PoleProximalError, match="resolvent is singular") as err:
        absorbed_amplitude(2, field, 1.0, SYMMETRIC_IC)
    assert err.value.condition == math.inf


def _bytes_or_refusal(fn, *args):
    """The wall vectors' bytes, or the refusal's type, message and the bits of its condition."""
    try:
        return tuple(v.tobytes() for v in fn(*args))
    except ArithmeticError as err:
        return type(err).__name__, str(err), struct.pack("<d", getattr(err, "condition", 0.0))


def _check_coins_against_oracle(monkeypatch, coins, l, z, cond_limit=COND_LIMIT):
    """absorbed_amplitude on these level coins, against the byte oracle: its outcome."""
    _coin_table(monkeypatch, coins)
    field = UniformLevels(THETA0, len(coins))  # its level angles go unused
    got = _bytes_or_refusal(absorbed_amplitude, l, field, z, SYMMETRIC_IC, cond_limit)
    want = _bytes_or_refusal(rg_oracle.absorbed_amplitude, l, field, z, SYMMETRIC_IC, cond_limit,
                             lambda field, k: tuple(np.asarray(coins[k]).ravel().tolist()))
    assert got == want
    return got


def test_singular_coin_is_met_after_the_levels_before_it(monkeypatch, recursion):
    # the Hadamard coin's resolvent at level 0 has condition 2 (S^M = 0); level 1 is singular
    coins = [HADAMARD.real, np.zeros((2, 2))]
    assert len(_check_coins_against_oracle(monkeypatch, coins, 1, 0.3)) == 2  # level 1 unread
    assert _check_coins_against_oracle(monkeypatch, coins, 2, 0.3)[1] == "coin matrix is singular"
    refused = _check_coins_against_oracle(monkeypatch, coins, 2, 0.3, 1.0)
    assert refused[1].startswith("resolvent condition 2.000e+00 exceeds 1.0e+00")


@pytest.mark.parametrize("coin, refusal", [
    ([[1.0, 0.0], [1e308, 1.0]], "PoleProximalError"),  # condition 1e308 * 1e308 = inf
    ([[math.inf, 0.0], [0.0, 1.0]], "PoleProximalError"),  # inf * 0 in C^{-1}: condition nan
    ([[math.nan, 1.0], [1.0, 0.0]], "PoleProximalError"),  # every modulus NaN: condition nan
    ([[1e-154, 0.0], [0.0, 1e-154]], None),  # 1 / det(C^{-1} - S^M) is subnormal
    # |q01| = 1.5e308 sqrt 2 overflows: Python's abs() raises, and so must the compiled recursion
    ([[1.0, -1.5e308 * (1 + 1j)], [0.0, 1.0]], "OverflowError"),
])
def test_non_finite_arithmetic_keeps_the_oracles_bits(monkeypatch, recursion, coin, refusal):
    outcome = _check_coins_against_oracle(monkeypatch, [np.array(coin)], 1, 0.3 + 0.2j, math.inf)
    assert (outcome[0] if len(outcome) == 3 else None) == refusal


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


@pytest.mark.parametrize("l", [True, 2.5, 3.0, "3", None, np.True_])
def test_absorbed_amplitude_refuses_a_non_integer_l(l, recursion):
    # checked before the compiled recursion, which takes l as an int32; True is not l = 1
    with pytest.raises(ValueError, match="l must be an integer"):
        absorbed_amplitude(l, CoinField(1.0, DisorderSpec(), 8), 0.3, SYMMETRIC_IC)


def test_absorbed_amplitude_takes_a_numpy_integer_l(recursion):
    field = CoinField(0.8, DisorderSpec(model="hierarchical", W=0.5, seed=2), 8)
    assert (_bytes_or_pole(absorbed_amplitude, np.int64(3), field, 0.3, SYMMETRIC_IC)
            == _bytes_or_pole(absorbed_amplitude, 3, field, 0.3, SYMMETRIC_IC))


def test_absorbed_amplitude_returns_two_fresh_wall_vectors(recursion):
    """(up, +0.0) and (+0.0, down) as complex128 2-vectors, sharing no memory with each other or the next call's."""
    field = CoinField(0.8, DisorderSpec(model="hierarchical", W=0.5, seed=2), 16)
    for l in (1, 4):
        right, left = absorbed_amplitude(l, field, 0.3 - 0.2j, SYMMETRIC_IC)
        for vec in (right, left):
            assert type(vec) is np.ndarray and vec.shape == (2,) and vec.dtype == np.complex128
        assert right[1:].tobytes() == left[:1].tobytes() == bytes(16)  # +0.0, as hierwalk rg prints it
        assert right[0] != 0 and left[1] != 0
        later = absorbed_amplitude(l, field, 0.1j, SYMMETRIC_IC)
        for vec in (right, left):
            assert not any(np.shares_memory(vec, other) for other in (right, left, *later) if other is not vec)
        kept = right.tobytes(), left.tobytes()
        right[:] = left[:] = 7.0
        assert absorbed_amplitude(l, field, 0.3 - 0.2j, SYMMETRIC_IC)[0].tobytes() == kept[0]
        assert later[0][1] == later[1][0] == 0


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.3, math.inf), -math.inf,
                               math.nan, complex(1.0, math.nan)])
@pytest.mark.parametrize("side", ["recursion", "walk"])
def test_non_finite_z_is_refused(side, z):
    # the recursion and the walk's generating function refuse it alike, without a numpy warning
    field = CoinField(1.0, DisorderSpec(), 8)
    with pytest.raises(ValueError, match="z must be finite"):
        if side == "recursion":
            absorbed_amplitude(2, field, z, SYMMETRIC_IC)
        else:
            evolve_absorbing(field, 2, SYMMETRIC_IC, 8).generating_function(z)


def test_absorbed_amplitude_rejects_unnormalized_spinor():
    field = CoinField(1.0, DisorderSpec(), 8)
    with pytest.raises(ValueError, match="normalized"):
        absorbed_amplitude(2, field, 0.3, np.array([1.0, 1.0]))
