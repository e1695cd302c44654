"""The parameter table: init, checkpoint validation and weight decay read one layout."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from serialcast import backbone, trainer
from serialcast.backbone import ModelConfig, init_params, param_table
from serialcast.errors import CheckpointError
from serialcast.trainer import decayed_names, validate_params

TOY = ModelConfig(d_model=64, patch_len=8, n_max=32, n_main_blocks=4, n_serial_blocks=4,
                  n_experts=8, top_k=2, n_quantiles=9)

# the toy config's decayed tensors under the earlier name-substring rule
# (decay unless the name ends in .b/.b1/.b2 or contains "norm" or "tau")
TOY_DECAYED = {
    'block0.attn.wk', 'block0.attn.wo', 'block0.attn.wq', 'block0.attn.wv',
    'block0.moe.router.w', 'block0.moe.w1', 'block0.moe.w2', 'block1.attn.wk',
    'block1.attn.wo', 'block1.attn.wq', 'block1.attn.wv', 'block1.moe.router.w',
    'block1.moe.w1', 'block1.moe.w2', 'block2.attn.wk', 'block2.attn.wo', 'block2.attn.wq',
    'block2.attn.wv', 'block2.moe.router.w', 'block2.moe.w1', 'block2.moe.w2',
    'block3.attn.wk', 'block3.attn.wo', 'block3.attn.wq', 'block3.attn.wv',
    'block3.moe.router.w', 'block3.moe.w1', 'block3.moe.w2', 'embedder.mlp_in.w',
    'embedder.mlp_out.w', 'embedder.skip.w', 'head.w', 'serial1.block.attn.wk',
    'serial1.block.attn.wo', 'serial1.block.attn.wq', 'serial1.block.attn.wv',
    'serial1.block.moe.router.w', 'serial1.block.moe.w1', 'serial1.block.moe.w2',
    'serial1.fusion.w', 'serial2.block.attn.wk', 'serial2.block.attn.wo',
    'serial2.block.attn.wq', 'serial2.block.attn.wv', 'serial2.block.moe.router.w',
    'serial2.block.moe.w1', 'serial2.block.moe.w2', 'serial2.fusion.w',
    'serial3.block.attn.wk', 'serial3.block.attn.wo', 'serial3.block.attn.wq',
    'serial3.block.attn.wv', 'serial3.block.moe.router.w', 'serial3.block.moe.w1',
    'serial3.block.moe.w2', 'serial3.fusion.w', 'serial4.block.attn.wk',
    'serial4.block.attn.wo', 'serial4.block.attn.wq', 'serial4.block.attn.wv',
    'serial4.block.moe.router.w', 'serial4.block.moe.w1', 'serial4.block.moe.w2',
    'serial4.fusion.w'
}

# a replacement value for every field that sets a parameter shape
SHAPE_FIELDS = {"d_model": 12, "patch_len": 5, "n_experts": 5, "n_heads": 1,
                "n_quantiles": 4, "n_main_blocks": 2, "n_serial_blocks": 3}

CASES = list(itertools.product(("serial", "shift_token"), (0, 1, 2), (1, 2, 3, 4), (2, 3, 4),
                               (np.float32, np.float64)))


@pytest.mark.parametrize("variant, n_serial, n_experts, patch_len, dtype", CASES)
def test_table_matches_init_and_validation(variant, n_serial, n_experts, patch_len, dtype):
    cfg = ModelConfig(d_model=8, patch_len=patch_len, n_max=4, n_main_blocks=1,
                      n_serial_blocks=n_serial, n_experts=n_experts, top_k=1, n_heads=2,
                      n_quantiles=3, variant=variant)
    table = param_table(cfg)
    params = init_params(cfg, seed=1, dtype=dtype)
    assert list(params) == list(table)
    assert all(params[k].shape == spec.shape for k, spec in table.items())
    assert all(p.data.dtype == dtype for p in params.values())
    validate_params(params, cfg)
    for field, value in SHAPE_FIELDS.items():
        with pytest.raises(CheckpointError, match="mismatch"):
            validate_params(params, replace(cfg, **{field: value}))


def test_validation_draws_nothing(monkeypatch):
    params = init_params(TOY, seed=0, dtype=np.float32)

    def forbidden(*args, **kwargs):
        raise AssertionError("validate_params must not build or draw a model")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(backbone, "init_params", forbidden)
    monkeypatch.setattr(trainer, "init_params", forbidden)
    validate_params(params, TOY)
    with pytest.raises(CheckpointError, match="shape mismatch for head.w"):
        validate_params(params, replace(TOY, n_quantiles=3))


def test_decayed_names_equal_earlier_rule():
    assert decayed_names(TOY) == TOY_DECAYED


def test_expert_draws_interleave_by_expert():
    # w1[0], w2[0], w1[1], w2[1]: one rng stream, expert by expert
    cfg = ModelConfig(d_model=8, patch_len=2, n_max=4, n_main_blocks=1, n_serial_blocks=0,
                      n_experts=2, top_k=1, n_heads=1, n_quantiles=1)
    params = init_params(cfg, seed=5)
    rng = np.random.default_rng(5)
    for spec in param_table(cfg).values():
        if spec.init in ("normal", "fusion"):
            rng.normal(size=spec.shape)
        if spec.init == "experts":
            break
    d, dff = cfg.d_model, cfg.d_ff
    for j in range(2):
        w1 = np.clip(rng.normal(0.0, 0.02, size=(d, dff)), -0.04, 0.04)
        w2 = np.clip(rng.normal(0.0, 0.02, size=(dff, d)), -0.04, 0.04)
        np.testing.assert_array_equal(params["block0.moe.w1"].data[j], w1)
        np.testing.assert_array_equal(params["block0.moe.w2"].data[j], w2)
