"""Signal generation, Fourier resampling, complexity statistic oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serialcast.datagen import (SignalSpec, adf_statistic, dataset_complexity, derive_seed,
                                dickey_fuller_design, forecastability, gen_signal, resample,
                                schwert_lag, value_flip)
from serialcast.errors import InputError


class TestGenSignal:
    def test_linear(self):
        out = gen_signal(SignalSpec(kind="linear", slope=1.0, length=4))
        np.testing.assert_array_equal(out, [0, 1, 2, 3])

    def test_step(self):
        out = gen_signal(SignalSpec(kind="step", amplitude=1.0, location=2, length=4))
        np.testing.assert_array_equal(out, [0, 0, 1, 1])

    def test_impulse(self):
        out = gen_signal(SignalSpec(kind="impulse", amplitude=2.0, location=1, length=3))
        np.testing.assert_array_equal(out, [0, 2, 0])

    def test_additive_composite(self):
        sin = SignalSpec(kind="sinusoidal", period=8.0, length=16)
        lin = SignalSpec(kind="linear", slope=0.1, length=16)
        combo = SignalSpec(kind="composite", combine="additive", components=(sin, lin), length=16)
        np.testing.assert_allclose(gen_signal(combo),
                                   gen_signal(sin) + gen_signal(lin))

    def test_multiplicative_composite(self):
        sin = SignalSpec(kind="sinusoidal", period=8.0, length=16)
        exp = SignalSpec(kind="exponential", rate=0.05, length=16)
        combo = SignalSpec(kind="composite", combine="multiplicative",
                           components=(sin, exp), length=16)
        np.testing.assert_allclose(gen_signal(combo),
                                   gen_signal(sin) * gen_signal(exp))

    def test_noise_deterministic_by_seed(self):
        spec = SignalSpec(kind="linear", slope=0.0, length=32, noise_sigma=1.0, seed=42)
        np.testing.assert_array_equal(gen_signal(spec), gen_signal(spec))
        other = SignalSpec(kind="linear", slope=0.0, length=32, noise_sigma=1.0, seed=43)
        assert not np.array_equal(gen_signal(spec), gen_signal(other))

    def test_invalid_specs(self):
        with pytest.raises(InputError):
            SignalSpec(kind="sinusoidal", period=0.0)
        with pytest.raises(InputError):
            SignalSpec(kind="unknown")
        with pytest.raises(InputError):
            SignalSpec(length=0)
        with pytest.raises(InputError):
            SignalSpec(noise_sigma=-1.0)
        with pytest.raises(InputError):
            SignalSpec(kind="composite", combine="additive")


class TestResample:
    def test_identity(self):
        x = np.random.default_rng(0).normal(size=32)
        np.testing.assert_allclose(resample(x, 1.0), x, atol=1e-9)

    def test_sinusoid_doubles_exactly(self):
        t = np.arange(64)
        x = np.sin(2 * np.pi * t / 8.0)
        up = resample(x, 2.0)
        expected = np.sin(2 * np.pi * np.arange(128) / 16.0)
        assert up.size == 128
        np.testing.assert_allclose(up, expected, atol=1e-6)

    def test_up_down_round_trip(self):
        t = np.arange(64)
        x = np.sin(2 * np.pi * t / 8.0) + 0.5 * np.cos(2 * np.pi * t / 16.0)
        back = resample(resample(x, 2.0), 0.5)
        np.testing.assert_allclose(back, x, atol=1e-6)

    def test_parseval_on_retained_band(self):
        rng = np.random.default_rng(1)
        # band-limited signal: only low bins populated
        spec = np.zeros(33, dtype=complex)
        spec[1:8] = rng.normal(size=7) + 1j * rng.normal(size=7)
        x = np.fft.irfft(spec, n=64)
        y = resample(x, 0.5)
        # all retained bins: energy per sample is preserved
        ex = (np.abs(np.fft.rfft(x)[1:8]) ** 2).sum() / 64**2
        ey = (np.abs(np.fft.rfft(y)[1:8]) ** 2).sum() / 32**2
        np.testing.assert_allclose(ex, ey, rtol=1e-6)

    def test_factor_bounds(self):
        x = np.ones(32)
        with pytest.raises(InputError):
            resample(x, 0.05)
        with pytest.raises(InputError):
            resample(x, 9.0)

    def test_too_short_inputs(self):
        with pytest.raises(InputError):
            resample(np.ones(3), 2.0)
        with pytest.raises(InputError):
            resample(np.ones(8), 0.125)  # would give 1 point


class TestValueFlip:
    def test_involution(self):
        x = np.random.default_rng(2).normal(size=16)
        np.testing.assert_array_equal(value_flip(value_flip(x)), x)

    def test_exact_negation(self):
        np.testing.assert_array_equal(value_flip([1.0, -2.0]), [-1.0, 2.0])

    def test_normalized_flip_is_negated_for_zero_mean(self):
        from serialcast.tokenizer import renormalize

        rng = np.random.default_rng(3)
        x = rng.normal(size=64)
        x -= x.mean()
        n1 = renormalize(x)[0]
        n2 = renormalize(value_flip(x))[0]
        np.testing.assert_allclose(n2, -n1, atol=1e-9)


def ols_normal_equations(design: np.ndarray, y: np.ndarray):
    """Independent oracle: solve via normal equations, return (beta, t_gamma)."""
    xtx = design.T @ design
    beta = np.linalg.solve(xtx, design.T @ y)
    resid = y - design @ beta
    n, p = design.shape
    s2 = float(resid @ resid) / (n - p)
    cov = s2 * np.linalg.inv(xtx)
    return beta, float(beta[1] / np.sqrt(cov[1, 1]))


class TestAdf:
    def test_white_noise_strongly_stationary(self):
        x = np.random.default_rng(4).normal(size=500)
        stat = adf_statistic(x, lag_order=0)
        assert stat < -10.0
        _, oracle = ols_normal_equations(*dickey_fuller_design(x, 0))
        assert np.isclose(stat, oracle, atol=1e-8)

    def test_random_walk_fails_rejection(self):
        x = np.random.default_rng(5).normal(size=500).cumsum()
        stat = adf_statistic(x, lag_order=0)
        assert stat > -2.0
        _, oracle = ols_normal_equations(*dickey_fuller_design(x, 0))
        assert np.isclose(stat, oracle, atol=1e-8)

    def test_exact_trend_is_degenerate(self):
        # dx is constant 1: a perfect fit, so the t-ratio is pure rounding noise
        assert adf_statistic(np.arange(1.0, 101.0), lag_order=0) == float("-inf")

    def test_noisy_trend_reported_with_small_gamma(self):
        rng = np.random.default_rng(12)
        x = np.arange(500.0) + 0.05 * rng.normal(size=500)
        stat = adf_statistic(x, lag_order=0)
        beta, oracle = ols_normal_equations(*dickey_fuller_design(x, 0))
        assert np.isfinite(stat) and np.isclose(stat, oracle, atol=1e-8)
        assert abs(beta[1]) < 1e-3  # gamma-hat near 0 under the no-trend spec

    def test_negative_lag_rejected(self):
        # a lag of -1 would index dx[-1], the last difference, as x_{t+1}'s
        x = np.random.default_rng(3).normal(size=100).cumsum()
        with pytest.raises(InputError, match="lag order"):
            dickey_fuller_design(x, -1)
        with pytest.raises(InputError):
            adf_statistic(x, lag_order=-1)

    def test_oracle_agreement_with_lags(self):
        rng = np.random.default_rng(6)
        for lag in (1, 3, 5):
            x = rng.normal(size=400).cumsum() + 0.1 * rng.normal(size=400)
            stat = adf_statistic(x, lag_order=lag)
            _, oracle = ols_normal_equations(*dickey_fuller_design(x, lag))
            assert np.isclose(stat, oracle, atol=1e-8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("length", [64, 100, 157, 256, 400])
    def test_float32_sinusoid_never_nan(self, length):
        # a noise-free tone stored as float32, as a shard holds it: in float64
        # the fit is exact, but after rounding X'X is too ill-conditioned to invert
        t = np.arange(length)
        for period in (7.3, 16.0, 31.4, 100.0):
            for phase in (0.0, 1.0, 2.5):
                x = np.sin(2 * np.pi * t / period + phase).astype(np.float32)
                for lag in (None, 0, 2):
                    stat = adf_statistic(x, lag_order=lag)
                    assert stat == float("-inf") or np.isfinite(stat), (period, phase, lag)

    def test_constant_series_degenerate(self):
        assert adf_statistic(np.full(100, 3.0), lag_order=0) == float("-inf")

    def test_short_series_rejected(self):
        with pytest.raises(InputError):
            adf_statistic(np.ones(8), lag_order=0)

    def test_schwert_rule(self):
        assert schwert_lag(100) == 12
        assert schwert_lag(2880) == int(np.floor(12 * (2880 / 100) ** 0.25))


class TestForecastability:
    def test_pure_tone_near_one(self):
        t = np.arange(256)
        x = np.sin(2 * np.pi * t * 8 / 256)  # exactly bin 8
        assert forecastability(x) > 0.99

    def test_white_noise_low(self):
        x = np.random.default_rng(7).normal(size=1024)
        assert forecastability(x) < 0.2

    def test_constant_is_zero(self):
        assert forecastability(np.full(64, 2.5)) == 0.0

    def test_huge_spike_is_flat_without_overflow(self):
        x = np.zeros(40)
        x[17] = 4.7e153  # squared rfft magnitudes summed would overflow to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert forecastability(x) == pytest.approx(0.0, abs=1e-9)
            assert forecastability(np.zeros(40)) == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_bounds(self, seed):
        x = np.random.default_rng(seed).normal(size=64).cumsum()
        assert 0.0 <= forecastability(x) <= 1.0

    def test_monotone_in_noise(self):
        t = np.arange(512)
        tone = np.sin(2 * np.pi * t * 16 / 512)
        rng = np.random.default_rng(8)
        noise = rng.normal(size=512)
        scores = [forecastability(tone + s * noise) for s in (0.0, 0.1, 0.5, 2.0, 8.0)]
        assert all(a >= b for a, b in zip(scores, scores[1:]))


class TestDatasetComplexity:
    def test_single_variate_passthrough(self):
        x = np.random.default_rng(9).normal(size=300)
        point = dataset_complexity([x], lag_order=0)
        assert np.isclose(point.adf, adf_statistic(x, 0))
        assert np.isclose(point.forecastability, forecastability(x))

    def test_equal_lengths_average(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=200), rng.normal(size=200).cumsum()
        point = dataset_complexity([a, b], lag_order=0)
        assert np.isclose(point.adf, (adf_statistic(a, 0) + adf_statistic(b, 0)) / 2)

    def test_length_weighted_recount(self):
        rng = np.random.default_rng(11)
        variates = [rng.normal(size=n) for n in (120, 350, 80)]
        point = dataset_complexity(variates, lag_order=0)
        total = sum(v.size for v in variates)
        adf = sum(v.size / total * adf_statistic(v, 0) for v in variates)
        fc = sum(v.size / total * forecastability(v) for v in variates)
        assert np.isclose(point.adf, adf, atol=1e-12)
        assert np.isclose(point.forecastability, fc, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            dataset_complexity([])


class TestDeriveSeed:
    def test_deterministic_and_branching(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2) != derive_seed(1, 3)
        assert derive_seed(1, 2) != derive_seed(2, 2)
        assert 0 <= derive_seed(0, 0) < 2**63
