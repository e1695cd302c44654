"""Decoder-only stack: main mixture-of-experts blocks plus serial blocks.

Each main block is pre-RMSNorm attention (QK-normalized, rotary positions,
learnable per-head temperature, causal mask) followed by a sparse top-K
mixture-of-experts feed-forward. Serial blocks fuse the previous depth's
embeddings with the initial patch embeddings through a learned projection and
then apply one more such block; the j-th serial block's outputs predict the
patch shifted by j+1.

Parameters live in a flat name -> Tensor dict so the optimizer, checkpoints
and the finite-difference harness can address every family uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, InputError
from .numerics import Params, l2_normalize, rmsnorm, rope_angle_table, scaled_masked_softmax
from .tokenizer import EmbedderParams, PatchBatch, embed_patches

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
        if self.n_heads == 0:
            self.n_heads = max(1, self.d_model // 64)
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_head % 2 != 0:
            raise ConfigError(f"head dimension {self.d_head} must be even for rotary pairs")
        if not (1 <= self.top_k <= self.n_experts):
            raise ConfigError(f"need 1 <= K={self.top_k} <= E={self.n_experts}")
        if self.n_serial_blocks < 0 or self.n_quantiles < 1:
            raise ConfigError("n_serial_blocks >= 0 and n_quantiles >= 1 required")
        if self.variant not in (VARIANT_SERIAL, VARIANT_SHIFT):
            raise ConfigError(f"unknown variant {self.variant!r}")

    @property
    def d_head(self) -> int:
        return self.d_model // max(self.n_heads, 1)

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
    def h0(self) -> Tensor:
        return self.embeddings[0]

    @property
    def h_main(self) -> Tensor:
        """Output of the last main block."""
        return self.embeddings[self.n_main]

    @property
    def serial_outputs(self) -> list[Tensor]:
        return self.embeddings[self.n_main + 1 :]

    @property
    def depth(self) -> int:
        return len(self.embeddings) - self.n_main - 1


# -- initialization ------------------------------------------------------


def _trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    return np.clip(rng.normal(0.0, std, size=shape), -2 * std, 2 * std)


def _inv_softplus(y: float) -> float:
    return float(np.log(np.expm1(y)))


def _init_block(params: Params, prefix: str, cfg: ModelConfig, rng, dtype):
    d, dff, e = cfg.d_model, cfg.d_ff, cfg.n_experts

    def mat(shape):
        return Tensor(_trunc_normal(rng, shape).astype(dtype), requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    params[prefix + "attn_norm.g"] = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
    for w in ("wq", "wk", "wv", "wo"):
        params[prefix + f"attn.{w}"] = mat((d, d))
    tau0 = _inv_softplus(np.sqrt(cfg.d_head))
    params[prefix + "attn.tau_raw"] = Tensor(np.full(cfg.n_heads, tau0, dtype=dtype), requires_grad=True)
    params[prefix + "moe_norm.g"] = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
    params[prefix + "moe.router.w"] = mat((d, e))
    for j in range(e):
        params[prefix + f"moe.expert{j}.w1"] = mat((d, dff))
        params[prefix + f"moe.expert{j}.b1"] = zeros(dff)
        params[prefix + f"moe.expert{j}.w2"] = mat((dff, d))
        params[prefix + f"moe.expert{j}.b2"] = zeros(d)


def init_params(cfg: ModelConfig, seed: int = 0, dtype=np.float64) -> Params:
    """Fresh parameter dict; serial fusion starts near pass-through."""
    rng = np.random.default_rng(seed)
    d, p, q = cfg.d_model, cfg.patch_len, cfg.n_quantiles
    params: Params = {}

    def mat(shape):
        return Tensor(_trunc_normal(rng, shape).astype(dtype), requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    params["embedder.skip.w"] = mat((2 * p, d))
    params["embedder.skip.b"] = zeros(d)
    params["embedder.mlp_in.w"] = mat((2 * p, d))
    params["embedder.mlp_in.b"] = zeros(d)
    params["embedder.mlp_out.w"] = mat((d, d))
    params["embedder.mlp_out.b"] = zeros(d)
    for layer in range(cfg.n_main_blocks):
        _init_block(params, f"block{layer}.", cfg, rng, dtype)
    for j in range(1, cfg.n_serial_blocks + 1):
        params[f"serial{j}.norm_prev.g"] = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
        params[f"serial{j}.norm_h0.g"] = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
        fusion = np.concatenate([np.eye(d), np.zeros((d, d))], axis=0)
        fusion = fusion + _trunc_normal(rng, (2 * d, d))
        params[f"serial{j}.fusion.w"] = Tensor(fusion.astype(dtype), requires_grad=True)
        _init_block(params, f"serial{j}.block.", cfg, rng, dtype)
    params["head.w"] = mat((d, q * p))
    params["head.b"] = zeros(q * p)
    return params


# -- forward pieces ------------------------------------------------------


def attention_forward(h_in: Tensor, params: Params, prefix: str, cfg: ModelConfig,
                      n_max: int | None = None) -> Tensor:
    """QK-normalized rotary causal attention; residual is added by the caller."""
    b, n, d = h_in.shape
    limit = cfg.n_max if n_max is None else n_max
    if n > limit:
        raise ConfigError(f"context of {n} patches exceeds the {limit}-patch bound")
    nh, dh = cfg.n_heads, cfg.d_head

    def split_heads(x: Tensor) -> Tensor:
        return ad.swapaxes(ad.reshape(x, (b, n, nh, dh)), 1, 2)  # (B, nh, N, dh)

    q = split_heads(ad.matmul(h_in, params[prefix + "attn.wq"]))
    k = split_heads(ad.matmul(h_in, params[prefix + "attn.wk"]))
    v = split_heads(ad.matmul(h_in, params[prefix + "attn.wv"]))

    cos, sin = rope_angle_table(np.arange(n), dh, cfg.theta_base)
    cos = cos.astype(h_in.dtype)
    sin = sin.astype(h_in.dtype)
    q = ad.rope_rotate(l2_normalize(q), cos, sin)
    k = ad.rope_rotate(l2_normalize(k), cos, sin)

    scores = ad.matmul(q, ad.swapaxes(k, -1, -2))  # (B, nh, N, N)
    tau = ad.reshape(ad.softplus(params[prefix + "attn.tau_raw"]), (nh, 1, 1))
    probs = scaled_masked_softmax(scores, tau, causal=True)
    out = ad.matmul(probs, v)  # (B, nh, N, dh)
    out = ad.reshape(ad.swapaxes(out, 1, 2), (b, n, d))
    return ad.matmul(out, params[prefix + "attn.wo"])


def _expert_ffn(x: Tensor, params: Params, prefix: str) -> Tensor:
    h = ad.silu(ad.add(ad.matmul(x, params[prefix + "w1"]), params[prefix + "b1"]))
    return ad.add(ad.matmul(h, params[prefix + "w2"]), params[prefix + "b2"])


def moe_forward(u: Tensor, params: Params, prefix: str, cfg: ModelConfig) -> tuple[Tensor, MoEAux]:
    """Sparse top-K expert mixture.

    Gates keep the selected softmax affinities un-renormalized; ties in the
    top-K cut are broken toward the lowest expert index.
    """
    b, n, d = u.shape
    e, k = cfg.n_experts, cfg.top_k
    flat = ad.reshape(u, (b * n, d))
    affinity = ad.softmax(ad.matmul(flat, params[prefix + "router.w"]), axis=-1)  # (BN, E)

    # stable sort on descending affinity -> equal scores keep index order
    order = np.argsort(-affinity.data, axis=-1, kind="stable")
    selected = order[:, :k]  # (BN, K)

    counts = np.bincount(selected.reshape(-1), minlength=e).astype(np.float64)
    aux = MoEAux(
        assign_frac=counts / (k * b * n),
        mean_affinity=ad.tmean(affinity, axis=0),
    )

    total = None
    token_ids = np.arange(b * n)
    for j in range(e):
        rows = token_ids[(selected == j).any(axis=1)]
        if rows.size == 0:
            continue
        gate = ad.reshape(ad.getitem(affinity, (rows, np.full(rows.size, j))), (rows.size, 1))
        if rows.size == 1:
            # single-row matmuls take a different BLAS path than the same row
            # inside a batch; pad to two rows so causality stays bit-exact
            padded = _expert_ffn(ad.take_rows(flat, np.repeat(rows, 2)), params,
                                 prefix + f"expert{j}.")
            y = ad.mul(ad.getitem(padded, slice(0, 1)), gate)
        else:
            y = ad.mul(_expert_ffn(ad.take_rows(flat, rows), params, prefix + f"expert{j}."), gate)
        contrib = ad.scatter_rows_add(y, rows, b * n)
        total = contrib if total is None else ad.add(total, contrib)
    if total is None:
        raise InputError("no tokens routed")
    return ad.reshape(total, (b, n, d)), aux


def aux_loss(aux: MoEAux) -> Tensor:
    """Load-balance penalty E * sum_j f_j * P_j; 1.0 at perfect uniformity."""
    e = aux.assign_frac.size
    return ad.mul(ad.tsum(ad.mul(aux.mean_affinity, aux.assign_frac)), float(e))


def moe_block(h: Tensor, params: Params, prefix: str, cfg: ModelConfig,
              n_max: int | None = None) -> tuple[Tensor, MoEAux]:
    """u = MHA(RMSNorm(h)) + h;  h' = MoE(RMSNorm(u)) + u."""
    attn = attention_forward(rmsnorm(h, params[prefix + "attn_norm.g"], RMS_EPS),
                             params, prefix, cfg, n_max=n_max)
    u = ad.add(attn, h)
    moe_out, aux = moe_forward(rmsnorm(u, params[prefix + "moe_norm.g"], RMS_EPS),
                               params, prefix + "moe.", cfg)
    return ad.add(moe_out, u), aux


def serial_block(h_prev: Tensor, h0: Tensor, j: int, params: Params, cfg: ModelConfig,
                 n_max: int | None = None) -> tuple[Tensor, MoEAux]:
    """Fuse the previous depth with the initial embeddings, then one block."""
    if not (1 <= j <= cfg.n_serial_blocks):
        raise ConfigError(f"serial block index {j} outside 1..{cfg.n_serial_blocks}")
    pre = f"serial{j}."
    fused = ad.concat(
        [rmsnorm(h_prev, params[pre + "norm_prev.g"], RMS_EPS),
         rmsnorm(h0, params[pre + "norm_h0.g"], RMS_EPS)],
        axis=-1,
    )
    return moe_block(ad.matmul(fused, params[pre + "fusion.w"]), params, pre + "block.", cfg, n_max=n_max)


def _shift_embeddings(h0: Tensor, j: int) -> Tensor:
    """h0 advanced by j positions (future inputs), clamped at the last token."""
    n = h0.shape[1]
    idx = np.minimum(np.arange(n) + j, n - 1)
    return ad.getitem(h0, (slice(None), idx))


def model_forward(batch: PatchBatch, params: Params, cfg: ModelConfig, depth: int,
                  n_max: int | None = None) -> ForwardTrace:
    """Embed, run all main blocks, then the first ``depth`` serial blocks.

    Deterministic: running at a larger depth reproduces every shallower
    serial output bit-exactly, so traces are prefix-stable.
    """
    if not (0 <= depth <= cfg.n_serial_blocks):
        raise ConfigError(f"depth {depth} outside 0..{cfg.n_serial_blocks}")
    dtype = params["head.w"].dtype
    values = (batch.input_patches * batch.input_masks).astype(dtype)  # pads forced to 0
    masks = batch.input_masks.astype(dtype)
    h0 = embed_patches(values, masks, EmbedderParams.from_params(params))

    trace = ForwardTrace(n_main=cfg.n_main_blocks)
    trace.embeddings.append(h0)
    h = h0
    for layer in range(cfg.n_main_blocks):
        h, aux = moe_block(h, params, f"block{layer}.", cfg, n_max=n_max)
        trace.embeddings.append(h)
        trace.aux.append(aux)
    for j in range(1, depth + 1):
        ref = _shift_embeddings(h0, j) if cfg.variant == VARIANT_SHIFT else h0
        h, aux = serial_block(h, ref, j, params, cfg, n_max=n_max)
        trace.embeddings.append(h)
        trace.aux.append(aux)
    return trace
