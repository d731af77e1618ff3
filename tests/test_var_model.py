import itertools

import numpy as np
import pytest

from varanom import (
    AnomalyScenario,
    DesignError,
    ParameterError,
    TimeSeriesPanel,
    VarParams,
    build_regression_view,
    generate_dense_stationary,
    generate_sparse_offdiag,
    simulate,
    simulate_episodes,
    simulate_with_anomaly,
)
from varanom.var_model import companion_matrix, lag_design, spectral_radius


def test_white_noise_covariance():
    params = VarParams((np.zeros((2, 2)),), np.eye(2))
    panel = simulate(params, 10000, seed=1)
    cov = panel.values.T @ panel.values / panel.n_rows
    assert np.abs(cov - np.eye(2)).max() < 0.1


def test_ar1_moments():
    params = VarParams((np.array([[0.5]]),), np.array([[1.0]]))
    panel = simulate(params, 50000, seed=2)
    x = panel.values[:, 0]
    var = x.var()
    acf1 = np.corrcoef(x[1:], x[:-1])[0, 1]
    assert abs(var - 4.0 / 3.0) < 0.05
    assert abs(acf1 - 0.5) < 0.02


def test_null_moments_at_scale():
    params = VarParams((np.zeros((2, 2)),), np.array([[1.0, 0.3], [0.3, 2.0]]))
    panel = simulate(params, 50000, seed=4)
    mean = panel.values.mean(axis=0)
    cov = panel.values.T @ panel.values / panel.n_rows
    assert np.abs(mean).max() < 0.05
    assert np.abs(cov - params.noise_cov).max() < 0.05


def test_explosive_parameters_rejected():
    with pytest.raises(ParameterError):
        VarParams((np.array([[1.1]]),), np.array([[1.0]]))


def test_noise_cov_must_be_positive_definite():
    with pytest.raises(ParameterError):
        VarParams((np.zeros((2, 2)),), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ParameterError):
        VarParams((np.zeros((2, 2)),), np.array([[1.0, 0.5], [0.4, 1.0]]))


def test_null_scenario_matches_plain_simulation_bytewise():
    base = generate_dense_stationary(3, seed=5)
    scenario = AnomalyScenario(base, np.zeros((3, 3)), (40, 60), 120, burn_in=50)
    a = simulate_with_anomaly(scenario, seed=9)
    b = simulate(base, 120, burn_in=50, seed=9)
    assert np.array_equal(a.values, b.values)


def _per_row_draws(base, episodes, n_rows, burn_in, seed):
    """The VAR recursion with one RNG call per row for that row's shock."""
    p, q = base.p, base.q
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(base.noise_cov)
    state = np.zeros(p * q)
    out = np.empty((n_rows, p))
    for t in range(-burn_in, n_rows):
        theta = base.stacked
        for (eta1, eta2), delta in episodes:
            if eta1 <= t + 1 <= eta2:
                theta = base.stacked + delta
        x = theta @ state + chol @ rng.standard_normal(p)
        state = np.concatenate([x, state[:-p]])
        if t >= 0:
            out[t] = x
    return out


def test_simulation_matches_per_row_draws_bytewise():
    # one stacked product chol @ shock per row, bitwise the per-row product;
    # under the identity covariance the Cholesky factor is exactly I. Each
    # row is written in place and its lag vector read as a view, bitwise the
    # allocating recursion at every order
    a = np.random.default_rng(3).standard_normal((3, 3))
    lag = generate_dense_stationary(3, seed=4).coeffs[0] / 2
    for lags, cov in itertools.product(
        ((lag,), (lag, lag), (lag / 1.5,) * 3), (a @ a.T + 0.5 * np.eye(3), np.eye(3))
    ):
        q = len(lags)
        delta = np.zeros((3, 3 * q))
        delta[0, 1], delta[2, 3 * q - 2] = 0.3, -0.2
        episodes = [((20, 45), delta), ((70, 90), -delta)]
        law = VarParams(lags, cov)
        assert simulate(law, 120, burn_in=25, seed=5).values.tobytes() == (
            _per_row_draws(law, [], 120, 25, 5).tobytes()
        )
        assert simulate_episodes(law, episodes, 120, burn_in=25, seed=6).values.tobytes() == (
            _per_row_draws(law, episodes, 120, 25, 6).tobytes()
        )


def test_case1_style_scenario_shape():
    base = generate_dense_stationary(10, seed=0)
    delta = np.zeros((10, 10))
    delta[0, 1] = 0.35
    window = (int(500 * 5 / 11), int(500 * 6 / 11))
    assert window[1] - window[0] == 45
    scenario = AnomalyScenario(base, delta, window, 500)
    panel = simulate_with_anomaly(scenario, seed=3)
    assert panel.values.shape == (500, 10)


def test_window_must_end_before_horizon():
    base = generate_dense_stationary(2, seed=1)
    with pytest.raises(ParameterError):
        AnomalyScenario(base, np.zeros((2, 2)), (10, 100), 100)


def test_anomalous_regime_must_be_stationary():
    base = generate_dense_stationary(2, seed=1, radius=0.9)
    delta = np.full((2, 2), 0.9)
    with pytest.raises(ParameterError):
        AnomalyScenario(base, delta, (10, 20), 100)


def test_regression_view_round_trip():
    base = generate_dense_stationary(4, seed=7)
    panel = simulate(base, 200, seed=11)
    view = build_regression_view(panel, base.stacked, 20, 80, 1)
    rebuilt = view.residuals + view.lagged @ base.stacked.T
    assert np.abs(rebuilt - panel.values[19:80]).max() < 1e-12


def test_regression_view_dimensions():
    base = generate_dense_stationary(10, seed=3)
    panel = simulate(base, 200, seed=4)
    view = build_regression_view(panel, base.stacked, 50, 79, 1)
    assert view.residuals.shape == (30, 10)
    assert view.lagged.shape == (30, 10)
    assert view.response.shape == (300,)


def test_regression_view_hand_example():
    # rows are x_1, x_2, x_3; responses at t = 2, 3 use lags 1, 2
    panel = TimeSeriesPanel(np.array([[1.0], [2.0], [5.0]]))
    theta = np.array([[0.5]])
    view = build_regression_view(panel, theta, 2, 3, 1)
    assert np.allclose(view.residuals[:, 0], [1.5, 4.0])
    assert np.allclose(view.lagged[:, 0], [1.0, 2.0])


def test_response_vectorisation_is_column_major():
    base = generate_dense_stationary(3, seed=2)
    panel = simulate(base, 50, seed=2)
    view = build_regression_view(panel, base.stacked, 10, 19, 1)
    assert np.array_equal(view.response, view.residuals.ravel(order="F"))
    # the full design is the block-diagonal Kronecker lift
    full = view.full_design()
    assert np.array_equal(full, np.kron(np.eye(3), view.lagged))


def test_regression_view_needs_lags():
    base = generate_dense_stationary(2, seed=1)
    panel = simulate(base, 50, seed=1)
    with pytest.raises(DesignError):
        build_regression_view(panel, base.stacked, 1, 10, 1)
    with pytest.raises(DesignError):
        build_regression_view(panel, base.stacked, 10, 51, 1)


def test_var2_regression_view_and_simulation():
    a1 = np.array([[0.3, 0.1], [0.0, 0.2]])
    a2 = np.array([[0.2, 0.0], [0.1, 0.1]])
    params = VarParams((a1, a2), np.eye(2))
    panel = simulate(params, 5000, seed=13)
    view = build_regression_view(panel, params.stacked, 3, 5000, 2)
    assert view.lagged.shape == (4998, 4)
    # residuals under the true coefficients behave like the innovations
    cov = view.residuals.T @ view.residuals / view.n_times
    assert np.abs(cov - np.eye(2)).max() < 0.1


def test_companion_spectral_radius_var2():
    a1 = np.array([[0.5]])
    a2 = np.array([[0.4]])
    comp = companion_matrix((a1, a2))
    assert comp.shape == (2, 2)
    assert spectral_radius((a1, a2)) < 1.0
    with pytest.raises(ParameterError):
        VarParams((np.array([[0.9]]), np.array([[0.4]])), np.array([[1.0]]))


def test_lag_design_alignment():
    values = np.arange(10.0)[:, None]
    Z, Y = lag_design(values, 2)
    assert Z.shape == (8, 2)
    assert np.array_equal(Y[:, 0], np.arange(2.0, 10.0))
    assert np.array_equal(Z[0], [1.0, 0.0])
    assert np.array_equal(Z[-1], [8.0, 7.0])


def test_generate_dense_stationary_contract():
    params = generate_dense_stationary(10, seed=42)
    assert spectral_radius(params.coeffs) < 1.0
    again = generate_dense_stationary(10, seed=42)
    assert np.array_equal(params.coeffs[0], again.coeffs[0])
    assert np.all(params.coeffs[0] != 0.0)
    # magnitude comparable to a stationary coefficient matrix, not degenerate
    assert 0.05 < np.abs(params.coeffs[0]).max() < 1.0


def test_generate_sparse_offdiag():
    params = generate_sparse_offdiag(20, -0.6)
    a = params.coeffs[0]
    assert np.count_nonzero(a) == 19
    assert np.array_equal(np.nonzero(a)[0], np.arange(19))
    assert np.array_equal(np.nonzero(a)[1], np.arange(1, 20))
    assert np.allclose(a[np.arange(19), np.arange(1, 20)], -0.6)
    # strictly upper triangular, hence nilpotent and stationary for any value
    assert spectral_radius((generate_sparse_offdiag(20, 0.6).coeffs[0],)) == 0.0
    assert np.count_nonzero(generate_sparse_offdiag(2, 0.0).coeffs[0]) == 0


def test_episode_windows_must_be_disjoint():
    base = generate_dense_stationary(3, seed=6)
    delta = np.zeros((3, 3))
    with pytest.raises(ParameterError):
        simulate_episodes(base, [((10, 30), delta), ((25, 40), delta)], 100)


def test_post_anomaly_regime_reverts():
    base = generate_dense_stationary(4, seed=8)
    delta = np.zeros((4, 4))
    delta[0, 0] = 0.2
    scenario = AnomalyScenario(base, delta, (500, 600), 4000, burn_in=200)
    panel = simulate_with_anomaly(scenario, seed=21)
    fresh = simulate(base, 4000, burn_in=200, seed=22)
    tail = panel.values[602:]
    ref = fresh.values[602:]
    tail_cov = tail.T @ tail / len(tail)
    ref_cov = ref.T @ ref / len(ref)
    assert np.abs(tail_cov - ref_cov).max() < 0.3 * max(1.0, np.abs(ref_cov).max())


def test_panel_validation():
    with pytest.raises(ParameterError):
        TimeSeriesPanel(np.array([[1.0, np.nan]]))
    with pytest.raises(ParameterError):
        TimeSeriesPanel(np.ones((3, 2)), timestamps=np.array([3, 2, 1]))
    panel = TimeSeriesPanel(np.ones((3, 2)), timestamps=np.array([1, 2, 5]))
    assert panel.n_rows == 3 and panel.n_series == 2
