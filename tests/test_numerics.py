"""Layer-primitive contracts and the finite-difference oracle itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serialcast import autodiff as ad
from serialcast.autodiff import Tensor, l2_normalize, rmsnorm
from serialcast.backbone import rope_angle_table, scaled_masked_softmax
from serialcast.errors import ConfigError, InputError, NumericError
from serialcast.trainer import compare_gradients, finite_diff_gradient

finite_vec = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=16)


class TestRmsnorm:
    def test_zero_input(self):
        out = rmsnorm(Tensor(np.zeros(2)), Tensor(np.ones(2)), 1e-6)
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

    def test_hand_evaluated(self):
        out = rmsnorm(Tensor(np.array([3.0, 4.0])), Tensor(np.ones(2)), 0.0)
        expected = np.array([3.0, 4.0]) / np.sqrt(12.5)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        np.testing.assert_allclose(out.data, [0.848528137, 1.131370850], atol=1e-8)

    def test_constant_vector_unit_rms(self):
        for c in (2.5, -0.3):
            out = rmsnorm(Tensor(np.full(5, c)), Tensor(np.ones(5)), 0.0)
            np.testing.assert_allclose(out.data, np.sign(c) * np.ones(5), atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            rmsnorm(Tensor(np.array([np.nan, 1.0])), Tensor(np.ones(2)))

    @given(finite_vec)
    @settings(max_examples=50, deadline=None)
    def test_unit_rms_property(self, values):
        x = np.asarray(values)
        if np.sqrt((x**2).mean()) < 1e-100:  # eps=0 contract needs non-underflowing input
            return
        out = rmsnorm(Tensor(x), Tensor(np.ones(x.size)), 0.0).data
        assert np.isclose(np.sqrt((out**2).mean()), 1.0, atol=1e-9)


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize(Tensor(np.array([3.0, 4.0]))).data,
                                   [0.6, 0.8], atol=1e-12)

    def test_idempotent_on_unit(self):
        v = np.array([0.6, 0.8])
        np.testing.assert_allclose(l2_normalize(Tensor(v)).data, v, atol=1e-12)

    def test_zero_guard(self):
        np.testing.assert_array_equal(l2_normalize(Tensor(np.zeros(3))).data, np.zeros(3))

    @given(finite_vec)
    @settings(max_examples=50, deadline=None)
    def test_unit_norm_or_zero(self, values):
        x = np.asarray(values)
        out = l2_normalize(Tensor(x)).data
        n = np.linalg.norm(out)
        assert np.isclose(n, 1.0, atol=1e-9) or (np.linalg.norm(x) < 1e-10 and n < 1.0)


def rotary_rotate(v, position: int, theta_base: float = 10000.0) -> Tensor:
    """Reference rotation of one vector: interleaved pairs (v[2m], v[2m+1])
    turn counterclockwise by position * theta_base^(-2m/d)."""
    v = ad.astensor(v)
    if position < 0:
        raise InputError("rotary position must be >= 0")
    cos, sin = rope_angle_table(np.array([position]), v.shape[-1], theta_base)
    return ad.rope_rotate(v, cos[0], sin[0])


class TestRotary:
    def test_zero_position_identity(self):
        v = np.random.default_rng(0).normal(size=8)
        np.testing.assert_allclose(rotary_rotate(Tensor(v), 0).data, v, atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        for t in (1, 5, 117):
            v = rng.normal(size=12)
            out = rotary_rotate(Tensor(v), t).data
            assert np.isclose(np.linalg.norm(out), np.linalg.norm(v), atol=1e-12)

    def test_quarter_turn_2d(self):
        # pair frequency for d=2 is 1, so rotating [1,0] by angle pi/2 -> [0,1]
        out = ad.rope_rotate(Tensor(np.array([1.0, 0.0])), np.cos(np.pi / 2), np.sin(np.pi / 2))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_integer_position_2d(self):
        out = rotary_rotate(Tensor(np.array([1.0, 0.0])), 1)
        np.testing.assert_allclose(out.data, [np.cos(1.0), np.sin(1.0)], atol=1e-12)

    def test_composition_additive(self):
        rng = np.random.default_rng(2)
        v = Tensor(rng.normal(size=6))
        a, b = 3, 9
        left = rotary_rotate(rotary_rotate(v, a), b).data
        right = rotary_rotate(v, a + b).data
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ConfigError):
            rope_angle_table(np.arange(3), 5)

    def test_negative_position_rejected(self):
        with pytest.raises(InputError):
            rotary_rotate(Tensor(np.zeros(4)), -1)


class TestScaledMaskedSoftmax:
    def test_single_entry(self):
        out = scaled_masked_softmax(Tensor(np.array([[0.7]])), 2.0)
        np.testing.assert_array_equal(out.data, [[1.0]])

    def test_symmetric_row(self):
        scores = Tensor(np.array([[0.0, 0.0], [0.3, 0.3]]))
        out = ad.softmax(scores, scale=1.5)
        np.testing.assert_allclose(out.data, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_closed_form_row(self):
        scores = Tensor(np.array([[0.0, np.log(3.0)], [0.0, np.log(3.0)]]))
        out = ad.softmax(scores, scale=1.0)
        np.testing.assert_allclose(out.data[0], [0.25, 0.75], atol=1e-12)

    def test_causal_zeros_and_row_sums(self):
        rng = np.random.default_rng(3)
        out = scaled_masked_softmax(Tensor(rng.normal(size=(6, 6))), 3.0).data
        assert (out[np.triu_indices(6, k=1)] == 0.0).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_large_tau_never_unmasks(self):
        out = scaled_masked_softmax(Tensor(np.full((3, 3), 50.0)), 1e6).data
        assert (out[np.triu_indices(3, k=1)] == 0.0).all()

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(InputError):
            scaled_masked_softmax(Tensor(np.ones((2, 2))), 0.0)


class TestFiniteDiff:
    def test_quadratic(self):
        theta = Tensor(np.array([3.0]), requires_grad=True)
        fd = finite_diff_gradient(lambda p: float((p["theta"].data ** 2).sum()),
                                  {"theta": theta}, 1e-5)
        np.testing.assert_allclose(fd["theta"], [6.0], atol=1e-8)

    def test_constant_loss(self):
        theta = Tensor(np.ones(4), requires_grad=True)
        fd = finite_diff_gradient(lambda p: 1.25, {"theta": theta}, 1e-5)
        np.testing.assert_array_equal(fd["theta"], np.zeros(4))

    def test_epsilon_range_enforced(self):
        theta = Tensor(np.ones(1), requires_grad=True)
        for eps in (1e-7, 1e-3):
            with pytest.raises(InputError):
                finite_diff_gradient(lambda p: 0.0, {"theta": theta}, eps)

    def test_requires_float64(self):
        theta = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        with pytest.raises(InputError):
            finite_diff_gradient(lambda p: 0.0, {"theta": theta}, 1e-5)

    def test_nondeterministic_rejected(self):
        theta = Tensor(np.ones(1), requires_grad=True)
        state = {"n": 0}

        def noisy(p):
            state["n"] += 1
            return float(state["n"])

        with pytest.raises(InputError):
            finite_diff_gradient(noisy, {"theta": theta}, 1e-5)

    @pytest.mark.parametrize("coords", [0, -1])
    def test_coords_below_one_rejected(self, coords):
        # zero coordinates would compare nothing and pass every family
        theta = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(InputError, match="coords per tensor"):
            finite_diff_gradient(lambda p: 0.0, {"theta": theta}, 1e-5, coords_per_tensor=coords)

    def test_coordinate_sampling_marks_nan(self):
        theta = Tensor(np.arange(10.0), requires_grad=True)
        fd = finite_diff_gradient(lambda p: float((p["theta"].data ** 2).sum()),
                                  {"theta": theta}, 1e-5, coords_per_tensor=3)
        assert np.isnan(fd["theta"]).sum() == 7
        done = ~np.isnan(fd["theta"])
        np.testing.assert_allclose(fd["theta"][done], 2 * np.arange(10.0)[done], atol=1e-7)


class TestCompareGradients:
    def test_pass_and_fail(self):
        ok = compare_gradients({"w": np.array([1.0, 2.0])}, {"w": np.array([1.0, 2.0 + 1e-9])})
        assert ok[0].passed and ok[0].max_rel_err == 0.0
        bad = compare_gradients({"w": np.array([1.0])}, {"w": np.array([1.1])})
        assert not bad[0].passed

    def test_tiny_grads_pass_on_absolute_floor(self):
        rep = compare_gradients({"w": np.array([1e-9])}, {"w": np.array([3e-9])})[0]
        assert rep.passed and rep.max_abs_err < 1e-7

    def test_nan_coordinates_skipped(self):
        rep = compare_gradients({"w": np.array([1.0, 5.0])},
                                {"w": np.array([1.0, np.nan])})[0]
        assert rep.passed
