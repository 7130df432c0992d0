"""Scalar sigmoid gates and the affine fusion projection, read from the
forward cache: y = [Y_0 | Y_1] (head l's output is Y_l W_V^l), gamma and
h, with the gated z = [gamma_0 Y_0 | gamma_1 Y_1] formed from y and gamma
as the backward forms it (the cache does not keep it)."""

import numpy as np
import pytest
from conftest import forward_cache

from fgpan.params import init_params
from fgpan.training import _gated

COORDS = [(0, 0), (0, 1), (1, 1), (3, 2), (2, 3)]
PROTOS = np.eye(4)[:2]


def head_outputs(cache, params):
    """Each head's (M, d) output Y_l W_V^l."""
    d = params.dim
    return [cache["y"][:, l * d:(l + 1) * d] @ head.W_V
            for l, head in enumerate(params.lwa.heads)]


def gated(cache, params):
    """z = [gamma_0 Y_0 | gamma_1 Y_1] by the library's own multiply."""
    y = cache["y"]
    return _gated(y.reshape(y.shape[0], -1, params.dim), cache["gamma"])


def g_sum(cache, params):
    """The gated sum of head outputs, sum_l gamma_l Y_l W_V^l."""
    d = params.dim
    z = gated(cache, params)
    return sum(z[:, l * d:(l + 1) * d] @ head.W_V
               for l, head in enumerate(params.lwa.heads))


def run(params, seed=0, features=None):
    rng = np.random.default_rng(seed)
    if features is None:
        features = rng.standard_normal((len(COORDS), params.dim))
    return forward_cache(features, COORDS, params, PROTOS)


class TestGate:
    def test_zero_gate_is_half(self):
        """Fresh gates are zero, so every gamma is 0.5 and z halves each head."""
        params = init_params(4, 2, 2, seed=0)
        cache = run(params)
        np.testing.assert_array_equal(cache["gamma"], 0.5)
        np.testing.assert_array_equal(gated(cache, params), 0.5 * cache["y"])
        h0, h1 = head_outputs(cache, params)
        np.testing.assert_allclose(g_sum(cache, params), 0.5 * h0 + 0.5 * h1, rtol=1e-14)

    def test_sigmoid_of_two(self):
        params = init_params(4, 2, 2, seed=1)
        params.gates.b_g[:] = 2.0
        assert np.all(np.abs(run(params)["gamma"] - 0.8807970779778823) < 1e-5)

    def test_large_bias_saturates(self):
        params = init_params(4, 2, 2, seed=2)
        params.gates.b_g[:] = 20.0
        cache = run(params)
        assert np.all(np.abs(cache["gamma"] - 1.0) < 1e-8)
        np.testing.assert_allclose(gated(cache, params), cache["y"], rtol=1e-8)
        h0, h1 = head_outputs(cache, params)
        np.testing.assert_allclose(g_sum(cache, params), h0 + h1, rtol=1e-8)

    def test_gamma_strictly_open_interval(self):
        """Strict bounds hold on the float64-representable pre-saturation range."""
        rng = np.random.default_rng(0)
        for seed in range(50):
            params = init_params(4, 2, 2, seed=seed)
            params.gates.w_g[:] = rng.standard_normal((2, 4))
            params.gates.b_g[:] = rng.uniform(-25, 25, size=2)
            gamma = run(params, seed)["gamma"]
            assert np.all((gamma > 0.0) & (gamma < 1.0))

    def test_monotone_in_bias(self):
        rng = np.random.default_rng(1)
        params = init_params(4, 2, 2, seed=3)
        params.gates.w_g[:] = rng.standard_normal((2, 4))
        gammas = []
        for b in np.linspace(-4, 4, 30):
            params.gates.b_g[0] = b
            gammas.append(run(params)["gamma"][0])
        assert all(np.all(b > a) for a, b in zip(gammas, gammas[1:]))

    def test_dim_mismatch(self):
        """Gate weights of another feature dim are refused and leave the
        parameters as they were."""
        params = init_params(3, 2, 2, seed=0)
        before = params.flatten()
        with pytest.raises(ValueError, match=r"w_g must have shape \(2, 3\)"):
            params.gates.w_g = np.zeros((2, 2))
        np.testing.assert_array_equal(params.flatten(), before)


class TestFusion:
    def test_identity_projection_single_head(self):
        """With one head, W_f = I and b_f = 0, H equals the gated head output."""
        params = init_params(4, 2, 1, seed=4)
        cache = run(params)
        np.testing.assert_array_equal(gated(cache, params), 0.5 * cache["y"])
        np.testing.assert_array_equal(cache["h"], g_sum(cache, params))

    def test_two_equal_heads_double(self):
        """Two equal heads at gamma = 0.5 sum to one full head output."""
        params = init_params(4, 2, 2, seed=5)
        h0, h1 = params.lwa.heads
        h1.W_Q, h1.W_K, h1.W_V, h1.bias_table = h0.W_Q, h0.W_K, h0.W_V, h0.bias_table
        cache = run(params)
        np.testing.assert_allclose(cache["h"], head_outputs(cache, params)[0], rtol=1e-14)

    def test_zero_inputs_give_offset(self):
        """Zero features give zero head outputs, so H is b_f on every patch."""
        params = init_params(4, 2, 2, seed=6)
        params.fusion.b_f[:] = [0.25, -0.5, 1.0, 2.0]
        cache = run(params, features=np.zeros((len(COORDS), 4)))
        np.testing.assert_array_equal(cache["h"], np.tile(params.fusion.b_f, (len(COORDS), 1)))

    def test_affine_in_inputs(self):
        """H - b_f is W_f applied to each patch's gated sum."""
        rng = np.random.default_rng(2)
        params = init_params(4, 2, 2, seed=7)
        params.fusion.W_f = rng.standard_normal((4, 4))
        params.fusion.b_f[:] = rng.standard_normal(4)
        cache = run(params)
        for h, g in zip(cache["h"], g_sum(cache, params)):
            np.testing.assert_allclose(h - params.fusion.b_f, params.fusion.W_f @ g, atol=1e-12)

    def test_dim_mismatch(self):
        params = init_params(3, 2, 2, seed=0)
        with pytest.raises(ValueError, match=r"W_f must have shape \(3, 3\)"):
            params.fusion.W_f = np.eye(2)
        with pytest.raises(ValueError, match=r"b_f must have shape \(3,\)"):
            params.fusion.b_f = np.zeros(2)

    def test_gate_params_validated(self):
        """A gate leaf of the wrong shape, or a non-finite one, is refused."""
        params = init_params(2, 1, 1, seed=0)
        with pytest.raises(ValueError, match="w_g"):
            params.gates.w_g = np.zeros(3)
        vec = params.flatten()
        start = sum(arr.size for name, arr in params.leaves()[:4])
        vec[start] = np.nan
        with pytest.raises(ValueError, match="'gates.w_g' holds a non-finite value"):
            params.with_flat(vec)
