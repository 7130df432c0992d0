"""Scalar sigmoid gates and the affine fusion projection, read from the
forward cache (gamma, g_sum, h)."""

import numpy as np
import pytest
from conftest import forward_cache

from fgpan.fusion import FusionParams, GateParams
from fgpan.params import ModelParams, init_params

COORDS = [(0, 0), (0, 1), (1, 1), (3, 2), (2, 3)]
PROTOS = np.eye(4)[:2]


def run(params, seed=0, features=None):
    rng = np.random.default_rng(seed)
    if features is None:
        features = rng.standard_normal((len(COORDS), params.dim))
    return forward_cache(features, COORDS, params, PROTOS)


class TestGate:
    def test_zero_gate_is_half(self):
        """Fresh gates are zero, so every gamma is 0.5 and G halves each head."""
        cache = run(init_params(4, 2, 2, seed=0))
        np.testing.assert_array_equal(cache["gamma"], 0.5)
        h0, h1 = cache["heads_h"]
        np.testing.assert_allclose(cache["g_sum"], 0.5 * h0 + 0.5 * h1, rtol=1e-15)

    def test_sigmoid_of_two(self):
        params = init_params(4, 2, 2, seed=1)
        params.gates.b_g[:] = 2.0
        assert np.all(np.abs(run(params)["gamma"] - 0.8807970779778823) < 1e-5)

    def test_large_bias_saturates(self):
        params = init_params(4, 2, 2, seed=2)
        params.gates.b_g[:] = 20.0
        cache = run(params)
        assert np.all(np.abs(cache["gamma"] - 1.0) < 1e-8)
        h0, h1 = cache["heads_h"]
        np.testing.assert_allclose(cache["g_sum"], h0 + h1, rtol=1e-8)

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
        params = init_params(3, 2, 2, seed=0)
        with pytest.raises(ValueError, match="gate/fusion dimensions"):
            ModelParams(params.lwa, GateParams(np.zeros((2, 2)), np.zeros(2)),
                        params.fusion, params.temp, params.agg)


class TestFusion:
    def test_identity_projection_single_head(self):
        """With one head, W_f = I and b_f = 0, H equals the gated head output."""
        cache = run(init_params(4, 2, 1, seed=4))
        np.testing.assert_array_equal(cache["h"], cache["g_sum"])
        np.testing.assert_array_equal(cache["g_sum"], 0.5 * cache["heads_h"][0])

    def test_two_equal_heads_double(self):
        """Two equal heads at gamma = 0.5 sum to one full head output."""
        params = init_params(4, 2, 2, seed=5)
        params.lwa.heads[1] = params.lwa.heads[0]
        cache = run(params)
        np.testing.assert_array_equal(cache["h"], cache["heads_h"][0])

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
        for h, g in zip(cache["h"], cache["g_sum"]):
            np.testing.assert_allclose(h - params.fusion.b_f, params.fusion.W_f @ g, atol=1e-12)

    def test_dim_mismatch(self):
        params = init_params(3, 2, 2, seed=0)
        with pytest.raises(ValueError, match="gate/fusion dimensions"):
            ModelParams(params.lwa, params.gates, FusionParams(np.eye(2), np.zeros(2)),
                        params.temp, params.agg)

    def test_gate_params_validated(self):
        with pytest.raises(ValueError, match="w_g"):
            GateParams(np.zeros(3), np.zeros(1))
        with pytest.raises(ValueError, match="non-finite"):
            GateParams(np.full((1, 2), np.nan), np.zeros(1))
