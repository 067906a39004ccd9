import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierwalk import (
    DEFAULT_IC,
    CoinField,
    DisorderSpec,
    default_sample_times,
    evolve,
    evolve_absorbing,
    evolve_state,
)

RIGHT_IC = np.array([1.0, 0.0])


def hadamard_field(half_width=256):
    return CoinField(1.0, DisorderSpec(), half_width)


def dense_reference_run(field, psi_ic, t_max):
    """Site-indexed reference evolution, written independently of the kernel.

    Full arrays over [-L, L], explicit python loop over sites; no light-cone or
    parity bookkeeping at all.
    """
    L = field.half_width
    up = {0: complex(psi_ic[0])}
    down = {0: complex(psi_ic[1])}
    for _ in range(t_max):
        new_up, new_down = {}, {}
        for x in set(up) | set(down):
            u = up.get(x, 0j)
            d = down.get(x, 0j)
            if x == 0:
                cu, cd = u, d
            else:
                th = field.angle(x)
                cu = math.sin(th) * u + math.cos(th) * d
                cd = math.cos(th) * u - math.sin(th) * d
            if abs(x + 1) <= L:
                new_up[x + 1] = new_up.get(x + 1, 0j) + cu
            if abs(x - 1) <= L:
                new_down[x - 1] = new_down.get(x - 1, 0j) + cd
        up, down = new_up, new_down
    return up, down


def test_init_localized_examples():
    state = evolve_state(hadamard_field(), RIGHT_IC, 0)
    assert state.t == 0
    assert state.norm() == pytest.approx(1.0)
    assert state.spinor_at(0) == (1.0 + 0j, 0j)
    sym = evolve_state(hadamard_field(), DEFAULT_IC, 0)
    assert sym.norm() == pytest.approx(1.0)


def test_init_rejects_unnormalized():
    with pytest.raises(ValueError):
        evolve_state(hadamard_field(), np.array([1.0, 1.0]), 0)
    with pytest.raises(ValueError):
        evolve_state(hadamard_field(), np.array([0.5, 0.5]), 0)


def test_one_step_identity_coin_at_origin():
    state = evolve_state(hadamard_field(), DEFAULT_IC, 1)
    assert state.t == 1
    up1, down1 = state.spinor_at(1)
    upm1, downm1 = state.spinor_at(-1)
    assert up1 == pytest.approx(DEFAULT_IC[0])
    assert down1 == 0j
    assert downm1 == pytest.approx(DEFAULT_IC[1])
    assert upm1 == 0j


def test_two_step_hadamard_by_hand():
    state = evolve_state(hadamard_field(), RIGHT_IC, 2)
    rho = {x: abs(u) ** 2 + abs(d) ** 2
           for x in range(-3, 4)
           for u, d in [state.spinor_at(x)]}
    assert rho[2] == pytest.approx(0.5, abs=1e-14)
    assert rho[0] == pytest.approx(0.5, abs=1e-14)
    assert sum(v for x, v in rho.items() if x not in (0, 2)) == pytest.approx(0.0, abs=1e-14)


def test_norm_conserved_1024_steps():
    f = CoinField(0.7, DisorderSpec(model="hierarchical", W=0.8, seed=3), 1024)
    state = evolve_state(f, DEFAULT_IC, 1024)
    assert abs(state.norm() - 1.0) < 1e-12


def test_parity_symmetric_density_hadamard():
    f = hadamard_field(128)
    for t in range(1, 129):
        rho = evolve_state(f, DEFAULT_IC, t).density()
        np.testing.assert_allclose(rho, rho[::-1], atol=1e-12)


def test_light_cone_exact_zero_outside():
    f = CoinField(0.6, DisorderSpec(model="extensive", W=0.5, seed=9), 64)
    state = evolve_state(f, DEFAULT_IC, 40)
    for x in (41, 55, -41, -64):
        assert state.spinor_at(x) == (0j, 0j)
    # wrong parity class inside the cone is exactly empty too
    for x in (1, -3, 39):
        assert state.spinor_at(x) == (0j, 0j)


def test_matches_dense_reference():
    rng = np.random.default_rng(12)
    for model in ("none", "hierarchical", "extensive"):
        f = CoinField(
            float(rng.uniform(0.3, 1.0)),
            DisorderSpec(model=model, W=float(rng.uniform(0, math.pi)), seed=int(rng.integers(1000))),
            64,
        )
        state = evolve_state(f, DEFAULT_IC, 48)
        ref_up, ref_down = dense_reference_run(f, DEFAULT_IC, 48)
        for x in range(-48, 49):
            u, d = state.spinor_at(x)
            assert u == pytest.approx(ref_up.get(x, 0j), abs=1e-13)
            assert d == pytest.approx(ref_down.get(x, 0j), abs=1e-13)


def test_step_rejects_cone_beyond_lattice():
    f = hadamard_field(4)
    assert evolve_state(f, DEFAULT_IC, 4).t == 4
    with pytest.raises(ValueError):
        evolve_state(f, DEFAULT_IC, 5)


def test_evolve_rejects_horizon_beyond_lattice():
    f = hadamard_field(16)
    with pytest.raises(ValueError):
        evolve(f, DEFAULT_IC, 17)


def test_evolve_validates_sample_times():
    f = hadamard_field(16)
    with pytest.raises(ValueError):
        evolve(f, DEFAULT_IC, 16, [4, 4, 8])
    with pytest.raises(ValueError):
        evolve(f, DEFAULT_IC, 16, [0, 4])
    with pytest.raises(ValueError):
        evolve(f, DEFAULT_IC, 16, [4, 32])


def test_sigma_one_at_t1_symmetric():
    f = hadamard_field(8)
    series = evolve(f, DEFAULT_IC, 1, [1])
    assert series.sigma[0] == pytest.approx(1.0, abs=1e-14)


def test_default_sample_times_grid():
    ts = default_sample_times(64)
    assert ts == (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
    ts = default_sample_times(2 ** 13)
    assert ts[0] == 1 and ts[-1] == 2 ** 13
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_ballistic_sigma_over_t_constant():
    f = hadamard_field(2 ** 10)
    series = evolve(f, DEFAULT_IC, 2 ** 10)
    ratio = series.sigma[-4:] / series.t[-4:]
    assert np.all(ratio > 0.0) and np.all(ratio < 1.0)
    assert ratio.std() < 0.02  # already settled near its limit


def test_hierarchy_exponent_at_short_horizon():
    from hierwalk import extrapolation_points, fit_inv_dw, predicted_inv_dw

    f = CoinField(0.6, DisorderSpec(), 2 ** 12)
    series = evolve(f, DEFAULT_IC, 2 ** 12)
    fit = fit_inv_dw(extrapolation_points(series))
    assert abs(fit.inv_dw - predicted_inv_dw(0.6)) < 0.1


def test_series_metadata_comes_from_field():
    f = CoinField(0.9, DisorderSpec(model="extensive", W=0.2, seed=77), 64)
    series = evolve(f, DEFAULT_IC, 64)
    assert (series.epsilon, series.W, series.model, series.seed) == (0.9, 0.2, "extensive", 77)


# --- absorbing walls ---------------------------------------------------------


def test_absorbing_l1_single_step():
    f = hadamard_field(4)
    rec = evolve_absorbing(f, 1, RIGHT_IC, 5)
    assert rec.right[0, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert rec.left[0, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    # single interior site: everything is absorbed at t = 1
    assert np.all(rec.right[1:] == 0)
    assert np.all(rec.left[1:] == 0)


def test_absorbing_wall_spinor_structure():
    f = CoinField(0.8, DisorderSpec(model="hierarchical", W=0.6, seed=4), 16)
    rec = evolve_absorbing(f, 3, DEFAULT_IC, 64)
    assert np.all(rec.right[:, 1] == 0)  # only right-movers reach x = 2^l
    assert np.all(rec.left[:, 0] == 0)   # only left-movers reach x = 0


def test_absorbing_total_probability_reaches_one():
    f = CoinField(0.8, DisorderSpec(), 16)
    rec = evolve_absorbing(f, 3, DEFAULT_IC, 1024)
    cum = rec.cumulative_absorbed()
    assert cum[-1] == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 4),
    st.floats(0.3, 1.0),
    st.floats(0.0, math.pi),
    st.integers(0, 2 ** 32),
)
def test_absorbed_probability_monotone_and_bounded(l, eps, W, seed):
    f = CoinField(eps, DisorderSpec(model="hierarchical", W=W, seed=seed), 2 ** l)
    rec = evolve_absorbing(f, l, DEFAULT_IC, 128)
    cum = rec.cumulative_absorbed()
    assert np.all(np.diff(cum) >= -1e-15)
    assert cum[-1] <= 1.0 + 1e-12


def test_absorbing_rejects_bad_arguments():
    f = hadamard_field(16)
    with pytest.raises(ValueError):
        evolve_absorbing(f, 0, DEFAULT_IC, 10)
    with pytest.raises(ValueError):
        evolve_absorbing(f, 1, DEFAULT_IC, 0)
    with pytest.raises(ValueError):
        evolve_absorbing(f, 5, DEFAULT_IC, 10)  # interior site 31 beyond half_width 16
