"""Backbone contracts: attention, expert routing, blocks, full forward."""

from dataclasses import replace

import numpy as np
import pytest

from serialcast import autodiff as ad
from serialcast import backbone, inference, objectives
from serialcast.autodiff import Tensor, rmsnorm
from serialcast.backbone import (ModelConfig, Routing, attention_forward, init_params,
                                 model_forward, moe_forward, moe_block, rope_angle_table,
                                 scaled_masked_softmax, serial_block)
from serialcast.errors import ConfigError, InputError
from serialcast.tokenizer import make_batch


def reference_scores(h: np.ndarray, params, prefix: str, cfg: ModelConfig) -> np.ndarray:
    """Independent numpy recomputation of pre-tau attention scores (one head)."""
    wq = params[prefix + "attn.wq"].data
    wk = params[prefix + "attn.wk"].data
    n = h.shape[0]
    q = h @ wq
    k = h @ wk
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    k = k / np.linalg.norm(k, axis=-1, keepdims=True)
    cos, sin = rope_angle_table(np.arange(n), q.shape[-1], cfg.theta_base)

    def rot(v, c, s):
        out = np.empty_like(v)
        out[..., 0::2] = v[..., 0::2] * c - v[..., 1::2] * s
        out[..., 1::2] = v[..., 0::2] * s + v[..., 1::2] * c
        return out

    qr = rot(q, cos, sin)
    kr = rot(k, cos, sin)
    return qr @ kr.T


class TestAttention:
    def test_single_token_is_projected_value(self, tiny_cfg, tiny_params):
        rng = np.random.default_rng(0)
        h = Tensor(rng.normal(size=(1, 1, tiny_cfg.d_model)))
        out = attention_forward(h, tiny_params, "block0.", tiny_cfg)
        wv = tiny_params["block0.attn.wv"].data
        wo = tiny_params["block0.attn.wo"].data
        np.testing.assert_allclose(out.data, h.data @ wv @ wo, atol=1e-12)

    def test_scores_bounded_by_one(self, tiny_cfg, tiny_params):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(4, tiny_cfg.d_model))
        scores = reference_scores(h, tiny_params, "block0.", tiny_cfg)
        assert np.abs(scores).max() <= 1.0 + 1e-12

    def test_translation_invariant_scores(self, tiny_cfg, tiny_params):
        # identical content at every position -> scores constant on diagonals
        h = np.tile(np.random.default_rng(2).normal(size=tiny_cfg.d_model), (4, 1))
        scores = reference_scores(h, tiny_params, "block0.", tiny_cfg)
        for off in range(3):
            diag = np.diagonal(scores, offset=-off)
            np.testing.assert_allclose(diag, diag[0], atol=1e-9)

    def test_context_bound_enforced(self, tiny_cfg, tiny_params):
        batch = make_batch([np.arange(8.0)], tiny_cfg.patch_len, tiny_cfg.n_max + 1)
        with pytest.raises(ConfigError, match=f"exceeds the {tiny_cfg.n_max}-patch bound"):
            model_forward(batch, tiny_params, tiny_cfg, 0)
        # a larger n_max lifts the bound
        wider = replace(tiny_cfg, n_max=tiny_cfg.n_max + 1)
        trace = model_forward(batch, tiny_params, wider, 0)
        assert trace.embeddings[-1].shape == (1, wider.n_max, tiny_cfg.d_model)


def probe_moe_params(cfg: ModelConfig, logits: np.ndarray, dtype=np.float64):
    """MoE params whose expert j returns the j-th basis vector scaled by 1.

    Router weights are rigged so a d-dim input of ones/d produces the given
    logits; expert outputs are constant b2 = e_j, so the mixture output
    directly reveals the gates.
    """
    d, e = cfg.d_model, cfg.n_experts
    params = {}
    w = np.zeros((d, e))
    w[:, :] = logits[None, :] / d  # ones @ w = logits
    params["moe.router.w"] = Tensor(w)
    params["moe.w1"] = Tensor(np.zeros((e, d, cfg.d_ff)))
    params["moe.b1"] = Tensor(np.zeros((e, cfg.d_ff)))
    params["moe.w2"] = Tensor(np.zeros((e, cfg.d_ff, d)))
    params["moe.b2"] = Tensor(np.eye(e, d))  # expert j adds e_j
    return params


class TestMoE:
    def _gates_for(self, affinities, k, d=8):
        e = len(affinities)
        cfg = ModelConfig(d_model=d, patch_len=2, n_max=4, n_main_blocks=1, n_serial_blocks=0,
                          n_experts=e, top_k=k, n_heads=1, n_quantiles=1)
        logits = np.log(np.asarray(affinities))
        params = probe_moe_params(cfg, logits)
        u = Tensor(np.ones((1, 1, d)))
        out, aux = moe_forward(u, params, "moe.", cfg)
        return out.data[0, 0][:e], aux

    def test_topk_keeps_affinities_unrenormalized(self):
        gates, _ = self._gates_for([0.5, 0.3, 0.2], k=2, d=6)
        np.testing.assert_allclose(gates[:3], [0.5, 0.3, 0.0], atol=1e-12)

    def test_top_all_is_dense_mixture(self):
        gates, _ = self._gates_for([0.5, 0.3, 0.2], k=3, d=6)
        np.testing.assert_allclose(gates[:3], [0.5, 0.3, 0.2], atol=1e-12)

    def test_ties_resolve_to_lowest_index(self):
        gates, _ = self._gates_for([0.25, 0.25, 0.25, 0.25], k=2, d=8)
        np.testing.assert_allclose(gates, [0.25, 0.25, 0.0, 0.0], atol=1e-12)

    def test_gate_sparsity_invariant(self, tiny_cfg, tiny_params):
        rng = np.random.default_rng(5)
        u = Tensor(rng.normal(size=(2, 4, tiny_cfg.d_model)))
        out, routing = moe_forward(u, tiny_params, "block0.moe.", tiny_cfg)
        np.testing.assert_allclose(routing.affinity.data.sum(axis=-1), 1.0, atol=1e-9)
        assert routing.counts.sum() == tiny_cfg.top_k * 2 * 4

    def test_aux_accumulators_match_recount(self, tiny_cfg, tiny_params):
        rng = np.random.default_rng(6)
        u = rng.normal(size=(2, 4, tiny_cfg.d_model))
        _, routing = moe_forward(Tensor(u), tiny_params, "block0.moe.", tiny_cfg)
        # brute-force recount from scratch
        flat = u.reshape(-1, tiny_cfg.d_model)
        logits = flat @ tiny_params["block0.moe.router.w"].data
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        a = z / z.sum(axis=1, keepdims=True)
        e, k = tiny_cfg.n_experts, tiny_cfg.top_k
        counts = np.zeros(e)
        for row in a:
            for j in np.argsort(-row, kind="stable")[:k]:
                counts[j] += 1
        np.testing.assert_array_equal(routing.counts, counts)
        np.testing.assert_allclose(routing.affinity.data, a, atol=1e-12)

    def test_matches_per_expert_reference(self, tiny_cfg, tiny_params):
        rng = np.random.default_rng(10)
        u = rng.normal(size=(2, 4, tiny_cfg.d_model))
        out, _ = moe_forward(Tensor(u), tiny_params, "block0.moe.", tiny_cfg)
        flat = u.reshape(-1, tiny_cfg.d_model)
        logits = flat @ tiny_params["block0.moe.router.w"].data
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        a = z / z.sum(axis=1, keepdims=True)
        w1, b1, w2, b2 = (tiny_params["block0.moe." + f].data for f in ("w1", "b1", "w2", "b2"))
        expected = np.zeros_like(flat)
        for t, row in enumerate(flat):
            for j in np.argsort(-a[t], kind="stable")[:tiny_cfg.top_k]:
                h = row @ w1[j] + b1[j]
                expected[t] += a[t, j] * ((h / (1.0 + np.exp(-h))) @ w2[j] + b2[j])
        np.testing.assert_allclose(out.data.reshape(expected.shape), expected, atol=1e-12)

    @staticmethod
    def _graph_size(out: Tensor) -> int:
        seen, stack = set(), [out]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        return len(seen)

    def test_graph_size_independent_of_expert_count(self):
        sizes = []
        for e in (2, 8):
            cfg = ModelConfig(d_model=16, patch_len=4, n_max=8, n_main_blocks=1, n_serial_blocks=0,
                              n_experts=e, top_k=2, n_heads=1, n_quantiles=3)
            params = init_params(cfg, seed=0, dtype=np.float64)
            u = Tensor(np.random.default_rng(11).normal(size=(2, 8, 16)))
            out, _ = moe_forward(u, params, "block0.moe.", cfg)
            sizes.append(self._graph_size(out))
        assert sizes[0] == sizes[1]

    def test_stacked_expert_params(self, tiny_cfg, tiny_params):
        assert not [k for k in tiny_params if "expert" in k]
        e, d = tiny_cfg.n_experts, tiny_cfg.d_model
        assert tiny_params["block0.moe.w1"].shape == (e, d, 2 * d)
        assert tiny_params["block0.moe.b1"].shape == (e, 2 * d)
        assert tiny_params["block0.moe.w2"].shape == (e, 2 * d, d)
        assert tiny_params["block0.moe.b2"].shape == (e, d)
        assert len(init_params(ModelConfig(), seed=0)) == 116  # 340 with one tensor per expert


class TestAuxLoss:
    @staticmethod
    def _loss(affinity, counts) -> float:
        return float(objectives.mean_aux_loss([Routing(Tensor(affinity), np.asarray(counts))]).data)

    def test_uniform_gives_one(self):
        e = 8
        assert np.isclose(self._loss(np.full((e, e), 1 / e), np.full(e, 2)), 1.0, atol=1e-12)

    def test_degenerate_routing_k1(self):
        e = 5
        affinity = np.zeros((3, e))
        affinity[:, 0] = 1.0
        assert np.isclose(self._loss(affinity, [3, 0, 0, 0, 0]), e, atol=1e-12)

    def test_matches_formula_on_random(self):
        rng = np.random.default_rng(7)
        e = 6
        affinity = rng.dirichlet(np.ones(e), size=10)
        counts = rng.integers(0, 10, size=e) + 1
        expected = e * float((counts / counts.sum() * affinity.mean(axis=0)).sum())
        assert np.isclose(self._loss(affinity, counts), expected, atol=1e-12)


def identity_block_params(params, prefix):
    """Zero the attention output projection and expert outputs in place."""
    params[prefix + "attn.wo"].data[:] = 0.0
    params[prefix + "moe.w2"].data[:] = 0.0
    params[prefix + "moe.b2"].data[:] = 0.0


class TestBlocks:
    def test_identity_when_projections_zeroed(self, tiny_cfg, tiny_params):
        identity_block_params(tiny_params, "block0.")
        h = Tensor(np.random.default_rng(8).normal(size=(1, 3, tiny_cfg.d_model)))
        out, _ = moe_block(h, tiny_params, "block0.", tiny_cfg)
        np.testing.assert_allclose(out.data, h.data, atol=1e-12)

    def test_shape_preserved(self, tiny_cfg, tiny_params):
        h = Tensor(np.zeros((2, 4, tiny_cfg.d_model)))
        out, _ = moe_block(h, tiny_params, "block0.", tiny_cfg)
        assert out.shape == h.shape

    def test_serial_fusion_projects_first_half(self, tiny_cfg, tiny_params):
        d = tiny_cfg.d_model
        tiny_params["serial1.fusion.w"].data[:] = np.concatenate([np.eye(d), np.zeros((d, d))])
        identity_block_params(tiny_params, "serial1.block.")
        rng = np.random.default_rng(9)
        h_prev = Tensor(rng.normal(size=(1, 3, d)))
        h0 = Tensor(rng.normal(size=(1, 3, d)))
        out, _ = serial_block(h_prev, h0, 1, tiny_params, tiny_cfg)
        expected = rmsnorm(h_prev, tiny_params["serial1.norm_prev.g"], 1e-6).data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestModelForward:
    def test_depth_zero_trace(self, tiny_cfg, tiny_params, tiny_batch):
        trace = model_forward(tiny_batch, tiny_params, tiny_cfg, 0)
        assert trace.depth == 0
        assert len(trace.embeddings) == tiny_cfg.n_main_blocks + 1

    def test_depth_bound(self, tiny_cfg, tiny_params, tiny_batch):
        with pytest.raises(ConfigError):
            model_forward(tiny_batch, tiny_params, tiny_cfg, tiny_cfg.n_serial_blocks + 1)

    def test_prefix_property_bit_exact(self, tiny_cfg, tiny_params, tiny_batch):
        t1 = model_forward(tiny_batch, tiny_params, tiny_cfg, 1)
        t2 = model_forward(tiny_batch, tiny_params, tiny_cfg, 2)
        np.testing.assert_array_equal(t1.depth_outputs[1].data, t2.depth_outputs[1].data)
        np.testing.assert_array_equal(t1.depth_outputs[0].data, t2.depth_outputs[0].data)

    def test_block_invocation_count(self, tiny_cfg, tiny_params, tiny_batch):
        for depth in range(tiny_cfg.n_serial_blocks + 1):
            trace = model_forward(tiny_batch, tiny_params, tiny_cfg, depth)
            assert len(trace.aux) == tiny_cfg.n_main_blocks + depth

    def test_causality_exact(self, tiny_cfg, tiny_params):
        rng = np.random.default_rng(10)
        series = rng.normal(size=tiny_cfg.n_max * tiny_cfg.patch_len).cumsum()
        batch_a = make_batch([series], tiny_cfg.patch_len, tiny_cfg.n_max)
        depth = tiny_cfg.n_serial_blocks
        trace_a = model_forward(batch_a, tiny_params, tiny_cfg, depth)
        for i in range(tiny_cfg.n_max):
            batch_b = make_batch([series], tiny_cfg.patch_len, tiny_cfg.n_max)
            batch_b.patches[0, i, :] += 0.5  # perturb normalized patch i
            trace_b = model_forward(batch_b, tiny_params, tiny_cfg, depth)
            for ha, hb in zip(trace_a.embeddings[1:], trace_b.embeddings[1:]):
                np.testing.assert_array_equal(ha.data[0, :i], hb.data[0, :i])
                if i < tiny_cfg.n_max:
                    assert not np.array_equal(ha.data[0, i:], hb.data[0, i:])

    def test_causality_exact_float32(self):
        # the criterion-3 probe on an f32 model, standard and extended context;
        # d=34 leaves expert output columns past a full BLAS kernel tile
        for d_model in (32, 34):
            cfg = ModelConfig(d_model=d_model, patch_len=4, n_max=8, n_main_blocks=2,
                              n_serial_blocks=2, n_experts=4, top_k=2, n_heads=1, n_quantiles=3)
            params = init_params(cfg, seed=5, dtype=np.float32)
            for run_cfg, n_patches in ((cfg, cfg.n_max), (replace(cfg, n_max=16), 16)):
                series = np.sin(np.arange(n_patches * cfg.patch_len) / 3.0)
                trace_a = model_forward(make_batch([series], cfg.patch_len, n_patches), params,
                                        run_cfg, cfg.n_serial_blocks)
                for i in range(n_patches):
                    batch = make_batch([series], cfg.patch_len, n_patches)
                    batch.patches[0, i, :] += 0.25
                    trace_b = model_forward(batch, params, run_cfg, cfg.n_serial_blocks)
                    for ha, hb in zip(trace_a.embeddings[1:], trace_b.embeddings[1:]):
                        assert np.array_equal(ha.data[0, :i], hb.data[0, :i])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d_model,n_experts", [(16, 3), (18, 2), (36, 3)])
    def test_rows_independent_of_batch(self, dtype, d_model, n_experts):
        # batched inference relies on this; few experts leave router columns,
        # and d=18 leaves expert columns, outside a full BLAS kernel tile
        cfg = ModelConfig(d_model=d_model, patch_len=4, n_max=6, n_main_blocks=2,
                          n_serial_blocks=1, n_experts=n_experts, top_k=2, n_heads=1,
                          n_quantiles=3)
        params = init_params(cfg, seed=1, dtype=dtype)
        rng = np.random.default_rng(5)
        for b in (2, 3, 5):
            rows = [rng.normal(size=cfg.n_max * cfg.patch_len).cumsum() for _ in range(b)]
            batched = model_forward(make_batch(rows, cfg.patch_len, cfg.n_max), params, cfg, 1)
            for r, x in enumerate(rows):
                alone = model_forward(make_batch([x], cfg.patch_len, cfg.n_max), params, cfg, 1)
                for hb, ha in zip(batched.embeddings, alone.embeddings):
                    np.testing.assert_array_equal(hb.data[r], ha.data[0])

    def test_shift_variant_uses_future_embeddings(self, tiny_batch):
        cfg = ModelConfig(d_model=16, patch_len=4, n_max=4, n_main_blocks=2, n_serial_blocks=2,
                          n_experts=4, top_k=2, n_heads=1, n_quantiles=3, variant="shift_token")
        params = init_params(cfg, seed=1, dtype=np.float64)
        trace = model_forward(tiny_batch, params, cfg, cfg.n_serial_blocks)
        assert trace.depth == cfg.n_serial_blocks
        assert np.isfinite(trace.depth_outputs[-1].data).all()
        # shifting matters: serial variant on same params differs at depth >= 1
        cfg_serial = ModelConfig(d_model=16, patch_len=4, n_max=4, n_main_blocks=2,
                                 n_serial_blocks=2, n_experts=4, top_k=2, n_heads=1, n_quantiles=3)
        trace_s = model_forward(tiny_batch, params, cfg_serial, cfg.n_serial_blocks)
        assert not np.allclose(trace.depth_outputs[1].data, trace_s.depth_outputs[1].data)
        np.testing.assert_array_equal(trace.depth_outputs[0].data, trace_s.depth_outputs[0].data)


class TestConfigValidation:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=10, n_heads=3)

    def test_topk_bounds(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_experts=4, top_k=5)

    def test_default_heads(self):
        assert ModelConfig(d_model=128).n_heads == 2
        assert ModelConfig(d_model=32).n_heads == 1

    @pytest.mark.parametrize("key, value", [
        ("n_main_blocks", 0), ("n_main_blocks", -1), ("n_heads", -2), ("patch_len", 0),
        ("n_max", 0), ("d_model", 0), ("theta_base", 0.0), ("theta_base", -5.0),
        ("theta_base", float("nan")), ("theta_base", float("inf")), ("alpha", -1.0),
        ("alpha", float("nan")), ("alpha", float("inf")),
    ])
    def test_bad_key_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            ModelConfig(**{key: value})

    def test_native_horizon_paper_scale(self):
        cfg = ModelConfig(d_model=64, patch_len=16, n_serial_blocks=16, n_max=180)
        assert cfg.native_horizon == 272


def test_layers_called_through_module_globals(monkeypatch, tiny_cfg, tiny_params, tiny_batch,
                                              tiny_grid):
    # perfbench/tracing.py times these layers by replacing the module
    # attributes, which sees only calls made through the bare global name
    bound = [(backbone, "rmsnorm"), (backbone, "l2_normalize"),
             (backbone, "scaled_masked_softmax"), (backbone, "embed_patches"),
             (objectives, "patch_project"), (inference, "patch_project")]
    calls = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in bound:
        key = f"{module.__name__}.{name}"
        calls[key] = 0
        monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    trace = model_forward(tiny_batch, tiny_params, tiny_cfg, depth=tiny_cfg.n_serial_blocks)
    objectives.stage_loss("pretrain", trace, tiny_batch, tiny_params, tiny_cfg, tiny_grid)
    train = dict(calls)
    inference.forecast(np.sin(np.arange(20.0)), 8, tiny_params, tiny_cfg)
    served = {k: calls[k] - train[k] for k in calls}
    assert all(n > 0 for k, n in train.items() if k != "serialcast.inference.patch_project"), train
    assert all(n > 0 for k, n in served.items() if k != "serialcast.objectives.patch_project"), served


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
        # the rotary dimension is the head size, checked where the config is built
        with pytest.raises(ConfigError, match="must be even for rotary pairs"):
            ModelConfig(d_model=10, n_heads=2)

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

    def test_zero_tau_uniform_causal_average(self):
        # tau = 0 flattens every score but the mask still applies after scaling
        scores = Tensor(np.random.default_rng(5).normal(size=(2, 5, 5)))
        out = scaled_masked_softmax(scores, Tensor(np.zeros((2, 1, 1)))).data
        uniform = np.tril(np.ones((5, 5))) / np.arange(1, 6)[:, None]
        np.testing.assert_array_equal(out, np.broadcast_to(uniform, out.shape))
