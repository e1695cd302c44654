"""Decoder-only stack: main mixture-of-experts blocks plus serial blocks.

Each main block is pre-RMSNorm attention (QK-normalized, rotary positions,
learnable per-head temperature, causal mask) followed by a sparse top-K
mixture-of-experts feed-forward. Serial blocks fuse the previous depth's
embeddings with the initial patch embeddings through a learned projection and
then apply one more such block; the j-th serial block's outputs predict the
patch shifted by j+1.

Parameters live in a flat name -> Tensor dict laid out by ``param_table``,
which init, checkpoint validation, weight decay and the gradient check all
read. Each expert family is one stacked tensor: ``moe.w1`` is (E, d, 2d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .numerics import Params, l2_normalize, rmsnorm, rope_table, scaled_masked_softmax
from .tokenizer import PatchBatch, embed_patches

RMS_EPS = 1e-6
INIT_STD = 0.02

VARIANT_SERIAL = "serial"  # fuse with the initial embeddings (default)
VARIANT_SHIFT = "shift_token"  # fuse with future-input embeddings, clamped at the end


@dataclass
class ModelConfig:
    d_model: int = 64
    patch_len: int = 8
    n_max: int = 32
    n_main_blocks: int = 4
    n_serial_blocks: int = 4
    n_experts: int = 8
    top_k: int = 2
    n_heads: int = 0  # 0 -> max(1, d_model // 64)
    n_quantiles: int = 9
    theta_base: float = 10000.0
    alpha: float = 0.01
    variant: str = VARIANT_SERIAL

    def __post_init__(self):
        for key, low in (("d_model", 1), ("patch_len", 1), ("n_max", 1), ("n_main_blocks", 1),
                         ("n_serial_blocks", 0), ("n_experts", 1), ("n_heads", 0),
                         ("n_quantiles", 1)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if not 0 < self.theta_base < np.inf:  # also false for nan
            raise ConfigError(f"theta_base must be finite and > 0, got {self.theta_base}")
        if not 0 <= self.alpha < np.inf:
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        self.n_heads = self.n_heads or max(1, self.d_model // 64)
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_head % 2 != 0:
            raise ConfigError(f"d_model / n_heads = {self.d_head} must be even for rotary pairs")
        if not 1 <= self.top_k <= self.n_experts:
            raise ConfigError(f"top_k must be in [1, n_experts = {self.n_experts}], "
                              f"got {self.top_k}")
        if self.variant not in (VARIANT_SERIAL, VARIANT_SHIFT):
            raise ConfigError(f"variant must be {VARIANT_SERIAL} or {VARIANT_SHIFT}, "
                              f"got {self.variant!r}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def d_ff(self) -> int:
        return 2 * self.d_model

    @property
    def native_horizon(self) -> int:
        """Steps covered by one forward pass: (H+1) * P."""
        return (self.n_serial_blocks + 1) * self.patch_len


@dataclass
class MoEAux:
    """Per-layer load-balance accumulators for one batch.

    ``assign_frac`` is the constant fraction of (token, slot) assignments per
    expert (1/K per slot); ``mean_affinity`` keeps the graph so the balance
    loss can push router probabilities around. Gradient flows through
    affinities only; the assignment counts are piecewise constant.
    """

    assign_frac: np.ndarray  # (E,), sums to 1
    mean_affinity: Tensor  # (E,), sums to 1


@dataclass
class ForwardTrace:
    embeddings: list[Tensor] = field(default_factory=list)  # h0, h1..hL, hL+1..hL+depth
    aux: list[MoEAux] = field(default_factory=list)
    n_main: int = 0

    @property
    def depth_outputs(self) -> list[Tensor]:
        """The outputs that predict patches: entry d, the last main block's at
        d = 0 and serial block d's after it, predicts the patch d+1 ahead."""
        return self.embeddings[self.n_main :]

    @property
    def depth(self) -> int:
        return len(self.embeddings) - self.n_main - 1


# -- parameters ----------------------------------------------------------


class ParamSpec(NamedTuple):
    shape: tuple[int, ...]
    init: str  # normal | zeros | ones | tau | fusion | experts
    per_expert: bool = False  # a stacked (E, ...) expert family


RANDOM_INITS = ("normal", "fusion", "experts")  # the inits that draw from the rng


def _block_table(pre: str, cfg: ModelConfig) -> dict[str, ParamSpec]:
    d, dff, e = cfg.d_model, cfg.d_ff, cfg.n_experts
    return {
        pre + "attn_norm.g": ParamSpec((d,), "ones"),
        **{pre + f"attn.{w}": ParamSpec((d, d), "normal") for w in ("wq", "wk", "wv", "wo")},
        pre + "attn.tau_raw": ParamSpec((cfg.n_heads,), "tau"),
        pre + "moe_norm.g": ParamSpec((d,), "ones"),
        pre + "moe.router.w": ParamSpec((d, e), "normal"),
        pre + "moe.w1": ParamSpec((e, d, dff), "experts", True),
        pre + "moe.b1": ParamSpec((e, dff), "zeros", True),
        pre + "moe.w2": ParamSpec((e, dff, d), "experts", True),
        pre + "moe.b2": ParamSpec((e, d), "zeros", True),
    }


def param_table(cfg: ModelConfig) -> dict[str, ParamSpec]:
    """Every parameter once, in draw order: name -> (shape, init rule).

    ``tau`` starts each head's temperature at sqrt(d_head); ``fusion`` is [I; 0]
    plus a truncated normal, so serial fusion starts near pass-through; and
    ``experts`` draws a block's w1 and w2 together: w1[0], w2[0], w1[1], ..."""
    d, p, q = cfg.d_model, cfg.patch_len, cfg.n_quantiles
    table = {}
    for name, fan_in in (("skip", 2 * p), ("mlp_in", 2 * p), ("mlp_out", d)):
        table[f"embedder.{name}.w"] = ParamSpec((fan_in, d), "normal")
        table[f"embedder.{name}.b"] = ParamSpec((d,), "zeros")
    for layer in range(cfg.n_main_blocks):
        table.update(_block_table(f"block{layer}.", cfg))
    for j in range(1, cfg.n_serial_blocks + 1):
        table[f"serial{j}.norm_prev.g"] = ParamSpec((d,), "ones")
        table[f"serial{j}.norm_h0.g"] = ParamSpec((d,), "ones")
        table[f"serial{j}.fusion.w"] = ParamSpec((2 * d, d), "fusion")
        table.update(_block_table(f"serial{j}.block.", cfg))
    table["head.w"] = ParamSpec((d, q * p), "normal")
    table["head.b"] = ParamSpec((q * p,), "zeros")
    return table


def _trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    return np.clip(rng.normal(0.0, std, size=shape), -2 * std, 2 * std)


def init_params(cfg: ModelConfig, seed: int = 0, dtype=np.float64) -> Params:
    """Fresh parameter dict, drawn from one rng in ``param_table`` order."""
    rng = np.random.default_rng(seed)
    fill = {"zeros": 0.0, "ones": 1.0, "tau": float(np.log(np.expm1(np.sqrt(cfg.d_head))))}
    params: Params = {}
    w2_draws = None  # drawn together with the block's w1
    for name, (shape, init, _) in param_table(cfg).items():
        if init == "normal":
            arr = _trunc_normal(rng, shape)
        elif init == "fusion":
            arr = np.eye(*shape) + _trunc_normal(rng, shape)
        elif init == "experts" and w2_draws is None:  # row j: w1[j], then w2[j]
            arr, w2_draws = np.split(_trunc_normal(rng, (shape[0], 2 * shape[1] * shape[2])), 2, 1)
        elif init == "experts":
            arr, w2_draws = w2_draws, None
        else:
            arr = np.full(shape, fill[init])
        params[name] = Tensor(arr.reshape(shape).astype(dtype), requires_grad=True)
    return params


# -- forward pieces ------------------------------------------------------


def attention_forward(h_in: Tensor, params: Params, prefix: str, cfg: ModelConfig) -> Tensor:
    """QK-normalized rotary causal attention; residual is added by the caller."""
    b, n, d = h_in.shape
    if n > cfg.n_max:
        raise ConfigError(f"context of {n} patches exceeds the {cfg.n_max}-patch bound")
    nh, dh = cfg.n_heads, cfg.d_head

    def split_heads(x: Tensor) -> Tensor:
        return ad.swapaxes(ad.reshape(x, (b, n, nh, dh)), 1, 2)  # (B, nh, N, dh)

    q = split_heads(ad.matmul(h_in, params[prefix + "attn.wq"]))
    k = split_heads(ad.matmul(h_in, params[prefix + "attn.wk"]))
    v = split_heads(ad.matmul(h_in, params[prefix + "attn.wv"]))

    cos, sin = rope_table(n, dh, cfg.theta_base, h_in.dtype)
    q = ad.rope_rotate(l2_normalize(q), cos, sin)
    k = ad.rope_rotate(l2_normalize(k), cos, sin)

    scores = ad.matmul(q, ad.swapaxes(k, -1, -2))  # (B, nh, N, N)
    tau = ad.reshape(ad.softplus(params[prefix + "attn.tau_raw"]), (nh, 1, 1))
    probs = scaled_masked_softmax(scores, tau)
    out = ad.matmul(probs, v)  # (B, nh, N, dh)
    out = ad.reshape(ad.swapaxes(out, 1, 2), (b, n, d))
    return ad.matmul(out, params[prefix + "attn.wo"])


def moe_forward(u: Tensor, params: Params, prefix: str, cfg: ModelConfig) -> tuple[Tensor, MoEAux]:
    """Sparse top-K expert mixture over stacked expert weights.

    Gates keep the selected softmax affinities un-renormalized; ties in the
    top-K cut are broken toward the lowest expert index. The (token, slot)
    pairs are sorted by expert once, so every expert runs on one contiguous
    segment of rows.
    """
    b, n, d = u.shape
    e, k = cfg.n_experts, cfg.top_k
    flat = ad.reshape(u, (b * n, d))
    # one (N, d) @ (d, E) product per row of the batch: with few experts the
    # BLAS edge kernels make a flat (B*N, d) product's rows depend on B
    logits = ad.reshape(ad.matmul(u, params[prefix + "router.w"]), (b * n, e))
    affinity = ad.softmax(logits)  # (BN, E)

    # stable sort on descending affinity -> equal scores keep index order
    order = np.argsort(-affinity.data, axis=-1, kind="stable")
    selected = order[:, :k].reshape(-1)  # (BN*K,) token-major

    counts = np.bincount(selected, minlength=e)
    aux = MoEAux(
        assign_frac=(counts / (k * b * n)).astype(u.dtype),
        mean_affinity=ad.tmean(affinity, axis=0),
    )

    # stable: each expert's rows stay in token order; slots[t] lists token t's
    # K rows in ascending row order, which is expert index order, so a token
    # sums its experts' outputs as a per-expert loop would
    pairs = np.argsort(selected, kind="stable")
    slots = np.empty_like(pairs)
    slots[pairs] = np.arange(pairs.size)
    slots = np.sort(slots.reshape(b * n, k), axis=1)
    hidden = ad.silu(ad.grouped_linear(ad.gather_slots(flat, slots), params[prefix + "w1"],
                                       params[prefix + "b1"], counts))
    y = ad.grouped_linear(hidden, params[prefix + "w2"], params[prefix + "b2"], counts)
    gates = ad.getitem(affinity, (pairs[:, None] // k, selected[pairs, None]))  # (BN*K, 1)
    out = ad.sum_slots(ad.mul(y, gates), slots)
    return ad.reshape(out, (b, n, d)), aux


def aux_loss(aux: MoEAux) -> Tensor:
    """Load-balance penalty E * sum_j f_j * P_j over the last (expert) axis;
    1.0 at perfect uniformity. Accumulators stacked to (L, E) give (L,)."""
    e = aux.assign_frac.shape[-1]
    return ad.mul(ad.tsum(ad.mul(aux.mean_affinity, aux.assign_frac), axis=-1), float(e))


def moe_block(h: Tensor, params: Params, prefix: str, cfg: ModelConfig) -> tuple[Tensor, MoEAux]:
    """u = MHA(RMSNorm(h)) + h;  h' = MoE(RMSNorm(u)) + u."""
    attn = attention_forward(rmsnorm(h, params[prefix + "attn_norm.g"], RMS_EPS),
                             params, prefix, cfg)
    u = ad.add(attn, h)
    moe_out, aux = moe_forward(rmsnorm(u, params[prefix + "moe_norm.g"], RMS_EPS),
                               params, prefix + "moe.", cfg)
    return ad.add(moe_out, u), aux


def serial_block(h_prev: Tensor, h0: Tensor, j: int, params: Params,
                 cfg: ModelConfig) -> tuple[Tensor, MoEAux]:
    """Fuse the previous depth with the initial embeddings, then one block."""
    if not (1 <= j <= cfg.n_serial_blocks):
        raise ConfigError(f"serial block index {j} outside 1..{cfg.n_serial_blocks}")
    pre = f"serial{j}."
    fused = ad.concat(
        [rmsnorm(h_prev, params[pre + "norm_prev.g"], RMS_EPS),
         rmsnorm(h0, params[pre + "norm_h0.g"], RMS_EPS)],
        axis=-1,
    )
    return moe_block(ad.matmul(fused, params[pre + "fusion.w"]), params, pre + "block.", cfg)


def _shift_embeddings(h0: Tensor, j: int, last: np.ndarray) -> Tensor:
    """h0 advanced by j positions (future inputs), clamped at each row's ``last``."""
    idx = np.minimum(np.arange(h0.shape[1]) + j, last[:, None])
    return ad.getitem(h0, (np.arange(len(last))[:, None], idx))


def model_forward(batch: PatchBatch, params: Params, cfg: ModelConfig, depth: int) -> ForwardTrace:
    """Embed, run all main blocks, then the first ``depth`` serial blocks.

    Deterministic: running at a larger depth reproduces every shallower
    serial output bit-exactly, so traces are prefix-stable.
    """
    if not (0 <= depth <= cfg.n_serial_blocks):
        raise ConfigError(f"depth {depth} outside 0..{cfg.n_serial_blocks}")
    dtype = params["head.w"].dtype
    values = (batch.input_patches * batch.input_masks).astype(dtype)  # pads forced to 0
    masks = batch.input_masks.astype(dtype)
    h0 = embed_patches(values, masks, params)

    trace = ForwardTrace(n_main=cfg.n_main_blocks)
    trace.embeddings.append(h0)
    h = h0
    for layer in range(cfg.n_main_blocks):
        h, aux = moe_block(h, params, f"block{layer}.", cfg)
        trace.embeddings.append(h)
        trace.aux.append(aux)
    for j in range(1, depth + 1):
        ref = _shift_embeddings(h0, j, batch.last_token) if cfg.variant == VARIANT_SHIFT else h0
        h, aux = serial_block(h, ref, j, params, cfg)
        trace.embeddings.append(h)
        trace.aux.append(aux)
    return trace
