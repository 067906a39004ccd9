import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierwalk import (
    DEFAULT_IC,
    CoinField,
    DisorderSpec,
    FitResult,
    SigmaSeries,
    classify,
    classify_estimate,
    evolve_state,
    extrapolation_points,
    fit_inv_dw,
    predicted_inv_dw,
    sigma,
)


def make_series(t, s, **meta):
    defaults = dict(epsilon=1.0, W=0.0, model="none", seed=0)
    defaults.update(meta)
    return SigmaSeries(t=np.asarray(t), sigma=np.asarray(s, dtype=float), **defaults)


def power_law_series(A, inv_d, t_max=2 ** 12):
    t = np.unique(np.geomspace(2, t_max, 40).astype(int))
    return make_series(t, A * t.astype(float) ** inv_d)


def power_law_points(A, inv_d, t_max=2 ** 12):
    # direct (t, X, Y) rows; unlike SigmaSeries this imposes no sigma <= t cap,
    # so unphysical amplitudes like A = 3 can still probe the fit
    t = np.unique(np.geomspace(2, t_max, 40).astype(int)).astype(float)
    log_t = np.log(t)
    return np.column_stack([t, 1.0 / log_t, np.log(A * t ** inv_d) / log_t])


# --- sigma -------------------------------------------------------------------


def test_sigma_zero_at_start():
    assert sigma(evolve_state(CoinField(1.0, DisorderSpec(), 8), DEFAULT_IC, 0)) == 0.0


def test_sigma_one_after_one_step():
    f = CoinField(1.0, DisorderSpec(), 8)
    assert sigma(evolve_state(f, DEFAULT_IC, 1)) == pytest.approx(1.0, abs=1e-14)


def test_sigma_two_step_right_mover():
    f = CoinField(1.0, DisorderSpec(), 8)
    state = evolve_state(f, np.array([1.0, 0.0]), 2)
    # density 1/2 at x=0 and 1/2 at x=2: mean 1, variance 1
    assert sigma(state) == pytest.approx(1.0, abs=1e-14)


def test_sigma_agrees_with_evolve_sampling():
    from hierwalk import evolve

    f = CoinField(0.7, DisorderSpec(model="hierarchical", W=0.5, seed=2), 128)
    series = evolve(f, DEFAULT_IC, 128, [1, 7, 32, 128])
    for t, s in zip(series.t, series.sigma):
        assert s == pytest.approx(sigma(evolve_state(f, DEFAULT_IC, int(t))), abs=1e-12)


# --- SigmaSeries validation ---------------------------------------------------


def test_series_rejects_unsorted_times():
    with pytest.raises(ValueError):
        make_series([4, 2, 8], [1, 1, 1])


def test_series_rejects_negative_sigma():
    with pytest.raises(ValueError):
        make_series([2, 4], [1.0, -0.5])


def test_series_rejects_superluminal_sigma():
    with pytest.raises(ValueError):
        make_series([2, 4], [1.0, 5.0])


# --- extrapolation points -----------------------------------------------------


def test_extrapolation_ballistic_line():
    series = make_series([2, 4, 8, 16], [2.0, 4.0, 8.0, 16.0])
    pts = extrapolation_points(series)
    np.testing.assert_allclose(pts[:, 2], 1.0, atol=1e-14)


def test_extrapolation_diffusive_line():
    t = np.array([2, 4, 8, 16, 64, 256])
    series = make_series(t, np.sqrt(t.astype(float)))
    pts = extrapolation_points(series)
    np.testing.assert_allclose(pts[:, 2], 0.5, atol=1e-14)


def test_extrapolation_affine_relation_exact():
    t = np.array([33, 64, 100, 1000, 4096])  # 3 t^0.6855 <= t from t = 33 on
    series = make_series(t, 3.0 * t.astype(float) ** 0.6855)
    pts = extrapolation_points(series)
    np.testing.assert_allclose(pts[:, 2], 0.6855 + math.log(3.0) * pts[:, 1], atol=1e-12)


def test_extrapolation_drops_t1_and_zero_sigma():
    series = make_series([1, 2, 4, 8], [1.0, 0.0, 4.0, 8.0])
    pts = extrapolation_points(series)
    np.testing.assert_array_equal(pts[:, 0], [4.0, 8.0])


# --- fit ----------------------------------------------------------------------


def test_fit_exact_affine_data():
    X = np.array([0.1, 0.2, 0.3, 0.5])
    t = np.exp(1.0 / X)
    Y = 0.5 + 2.0 * X
    fit = fit_inv_dw(np.column_stack([t, X, Y]), window=(0.0, np.inf))
    assert fit.inv_dw == pytest.approx(0.5, abs=1e-12)
    assert fit.log_amplitude == pytest.approx(2.0, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("A", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("d", [1.0, 1.5, 2.0, 4.0])
def test_fit_recovers_power_laws(A, d):
    fit = fit_inv_dw(power_law_points(A, 1.0 / d))
    assert fit.inv_dw == pytest.approx(1.0 / d, abs=1e-6)
    assert fit.log_amplitude == pytest.approx(math.log(A), abs=1e-6)


@pytest.mark.parametrize("A", [0.3, 1.0])
@pytest.mark.parametrize("d", [1.0, 2.0, 4.0])
def test_fit_recovers_power_laws_via_series(A, d):
    # physically admissible amplitudes ride the full SigmaSeries path
    fit = fit_inv_dw(extrapolation_points(power_law_series(A, 1.0 / d)))
    assert fit.inv_dw == pytest.approx(1.0 / d, abs=1e-6)
    assert fit.log_amplitude == pytest.approx(math.log(A), abs=1e-6)


def test_fit_diffusive_oracle_exact():
    t = np.arange(2, 300)
    series = make_series(t, np.sqrt(t.astype(float)))
    fit = fit_inv_dw(extrapolation_points(series), window=(2, 299))
    assert fit.inv_dw == pytest.approx(0.5, abs=1e-12)


def test_fit_default_window_is_last_four_octaves():
    fit = fit_inv_dw(extrapolation_points(power_law_series(1.0, 0.5, t_max=4096)))
    assert fit.window == (256.0, 4096.0)


def test_fit_rejects_too_few_points():
    pts = np.array([[4.0, 0.7, 1.0], [8.0, 0.5, 1.0]])
    with pytest.raises(ValueError):
        fit_inv_dw(pts, window=(2, 10))


@settings(max_examples=50)
@given(
    st.floats(-1.0, 1.5),
    st.floats(-3.0, 3.0),
)
def test_fit_recovery_property(intercept, slope):
    t = np.geomspace(4, 4096, 24)
    X = 1.0 / np.log(t)
    Y = intercept + slope * X
    fit = fit_inv_dw(np.column_stack([t, X, Y]), window=(4, 4096))
    assert fit.inv_dw == pytest.approx(intercept, abs=1e-9)
    assert fit.log_amplitude == pytest.approx(slope, abs=1e-8)


# --- predicted exponent --------------------------------------------------------


def test_predicted_inv_dw_values():
    assert predicted_inv_dw(1.0) == pytest.approx(1.0, abs=1e-15)
    assert predicted_inv_dw(0.8) == pytest.approx(0.8483, abs=1e-4)
    assert predicted_inv_dw(0.6) == pytest.approx(0.6855, abs=1e-4)


def test_predicted_inv_dw_vanishes_for_high_barriers():
    assert predicted_inv_dw(1e-6) < 1e-1
    assert predicted_inv_dw(1e-12) < predicted_inv_dw(1e-6)


def test_predicted_inv_dw_rejects_out_of_range():
    for eps in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            predicted_inv_dw(eps)


# --- classification -------------------------------------------------------------


def test_classify_examples():
    assert classify_estimate(0.01, 0.005) == "localized"
    assert classify_estimate(0.35, 0.03) == "transporting"
    assert classify_estimate(0.05, 0.02) == "inconclusive"


def test_classify_fit_result():
    fit = FitResult(inv_dw=0.4, log_amplitude=0.0, stderr=0.01, window=(1, 2), n_points=5)
    assert classify(fit) == "transporting"
    assert classify(fit, threshold=0.5) == "localized"
