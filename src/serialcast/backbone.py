"""The model: patch embedder, main mixture-of-experts blocks, serial blocks
and the quantile head, each layer next to the parameters it reads.

The embedder maps each (patch, mask) pair to one token. Each main block is
pre-RMSNorm attention (QK-normalized, rotary positions, learnable per-head
temperature, causal mask) followed by a sparse top-K mixture-of-experts
feed-forward. Serial blocks fuse the previous depth's embeddings with the
initial patch embeddings through a learned projection and then apply one more
such block; the j-th serial block's outputs predict the patch shifted by j+1.
The shared linear head maps any depth's tokens to quantile patches.

Parameters live in a flat name -> Tensor dict laid out by ``param_table``,
which init, checkpoint validation, weight decay and the gradient check all
read. Each expert family is one stacked tensor: ``moe.w1`` is (E, d, 2d).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Params, Tensor, l2_normalize, rmsnorm
from .errors import ConfigError
from .tokenizer import PatchBatch

# The layers call rmsnorm, l2_normalize, scaled_masked_softmax and
# embed_patches by their bare module-level names, so that a wrapper set on
# this module (perfbench/tracing.py) sees every call.

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


class Routing(NamedTuple):
    """What one MoE layer's router did in one forward pass.

    ``affinity`` is the (T, E) router softmax over the T tokens the layer
    routed and keeps its graph; ``counts`` is the (E,) number of (token, slot)
    assignments per expert, summing to T * K.
    """

    affinity: Tensor
    counts: np.ndarray


@dataclass
class ForwardTrace:
    embeddings: list[Tensor] = field(default_factory=list)  # h0, h1..hL, hL+1..hL+depth
    aux: list[Routing] = field(default_factory=list)  # one per MoE layer
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


def embed_patches(patches, masks, params: Params) -> Tensor:
    """Residual patch embedder R^{2P} -> R^D: h0 = skip(z) + mlp_out(silu(mlp_in(z)))
    with z = concat(patch, mask), read from the ``embedder.*`` parameters.

    Masked positions must already hold value 0 so pad content cannot leak.
    """
    p = ad.astensor(patches)
    z = ad.concat([p, Tensor(np.asarray(masks, dtype=p.dtype))], axis=-1)

    def linear(x: Tensor, name: str) -> Tensor:
        return ad.add(ad.matmul(x, params[f"embedder.{name}.w"]), params[f"embedder.{name}.b"])

    skip = linear(z, "skip")
    hidden = ad.silu(linear(z, "mlp_in"))
    return ad.add(skip, linear(hidden, "mlp_out"))


# bounded: one entry per context length, head size and dtype in use
@functools.lru_cache(maxsize=256)
def rope_table(n: int, d: int, theta_base: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos/sin tables of shape (n, d//2) for positions 0..n-1, cast
    once to ``dtype``. Pair m rotates by angle position * theta_base^(-2m/d)."""
    freqs = theta_base ** (-2.0 * np.arange(d // 2) / d)
    angles = np.arange(n, dtype=np.float64)[:, None] * freqs[None, :]
    tables = tuple(t.astype(dtype) for t in (np.cos(angles), np.sin(angles)))
    for t in tables:
        t.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=256)
def causal_mask(n: int) -> np.ndarray:
    """Read-only (n, n) boolean mask: True where key index j <= query index i."""
    mask = np.tril(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


def scaled_masked_softmax(scores, tau) -> Tensor:
    """softmax(tau * scores) with entries j > i forced to exactly 0.

    tau scales the scores; the -inf substitution happens afterwards, so no
    tau >= 0 can un-mask an entry, and tau = 0 gives the uniform causal average.
    """
    return ad.softmax(scores, mask=causal_mask(scores.shape[-1]), scale=tau)


def attention_forward(h_in: Tensor, params: Params, prefix: str, cfg: ModelConfig) -> Tensor:
    """QK-normalized rotary causal attention; residual is added by the caller."""
    b, n, d = h_in.shape
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


def moe_forward(u: Tensor, params: Params, prefix: str, cfg: ModelConfig,
                rows: np.ndarray | None = None) -> tuple[Tensor, Routing]:
    """Sparse top-K expert mixture over stacked expert weights.

    Gates keep the selected softmax affinities un-renormalized; ties in the
    top-K cut are broken toward the lowest expert index. The (token, slot)
    pairs are sorted by expert once, so every expert runs on one contiguous
    segment of rows. Only the tokens ``rows`` (flat B*N indices, None for
    all) are routed; every other token's output is 0.
    """
    b, n, d = u.shape
    e, k = cfg.n_experts, cfg.top_k
    flat = ad.reshape(u, (b * n, d))
    # one (N, d) @ (d, E) product per row of the batch: with few experts the
    # BLAS edge kernels make a flat (B*N, d) product's rows depend on B
    logits = ad.reshape(ad.matmul(u, params[prefix + "router.w"]), (b * n, e))
    if rows is not None:
        flat, logits = ad.getitem(flat, rows), ad.getitem(logits, rows)
    affinity = ad.softmax(logits)  # (T, E)

    # stable sort on descending affinity -> equal scores keep index order
    order = np.argsort(-affinity.data, axis=-1, kind="stable")
    selected = order[:, :k].reshape(-1)  # (T*K,) token-major

    counts = np.bincount(selected, minlength=e)

    # stable: each expert's rows stay in token order; slots[t] lists token t's
    # K rows in ascending row order, which is expert index order, so a token
    # sums its experts' outputs as a per-expert loop would
    pairs = np.argsort(selected, kind="stable")
    slots = np.empty_like(pairs)
    slots[pairs] = np.arange(pairs.size)
    slots = np.sort(slots.reshape(-1, k), axis=1)
    hidden = ad.silu(ad.grouped_linear(ad.gather_slots(flat, slots), params[prefix + "w1"],
                                       params[prefix + "b1"], counts))
    y = ad.grouped_linear(hidden, params[prefix + "w2"], params[prefix + "b2"], counts)
    gates = ad.getitem(affinity, (pairs[:, None] // k, selected[pairs, None]))  # (T*K, 1)
    out = ad.sum_slots(ad.mul(y, gates), slots)
    if rows is not None:
        out = ad.put_rows(out, rows, b * n)
    return ad.reshape(out, (b, n, d)), Routing(affinity, counts)


def moe_block(h: Tensor, params: Params, prefix: str, cfg: ModelConfig,
              rows: np.ndarray | None = None) -> tuple[Tensor, Routing]:
    """u = MHA(RMSNorm(h)) + h;  h' = MoE(RMSNorm(u)) + u, the MoE term only
    at the tokens ``rows``."""
    attn = attention_forward(rmsnorm(h, params[prefix + "attn_norm.g"], RMS_EPS),
                             params, prefix, cfg)
    u = ad.add(attn, h)
    moe_out, routing = moe_forward(rmsnorm(u, params[prefix + "moe_norm.g"], RMS_EPS),
                                   params, prefix + "moe.", cfg, rows)
    return ad.add(moe_out, u), routing


def serial_block(h_prev: Tensor, h0: Tensor, j: int, params: Params, cfg: ModelConfig,
                 rows: np.ndarray | None = None) -> tuple[Tensor, Routing]:
    """Fuse the previous depth with the initial embeddings, then one block."""
    pre = f"serial{j}."
    fused = ad.concat(
        [rmsnorm(h_prev, params[pre + "norm_prev.g"], RMS_EPS),
         rmsnorm(h0, params[pre + "norm_h0.g"], RMS_EPS)],
        axis=-1,
    )
    return moe_block(ad.matmul(fused, params[pre + "fusion.w"]), params, pre + "block.", cfg,
                     rows)


def patch_project(h, params: Params, cfg: ModelConfig) -> Tensor:
    """Shared linear head D -> (Q, P); no monotonicity imposed at train time."""
    h = ad.astensor(h)
    y = ad.add(ad.matmul(h, params["head.w"]), params["head.b"])
    return ad.reshape(y, h.shape[:-1] + (cfg.n_quantiles, cfg.patch_len))


def _shift_embeddings(h0: Tensor, j: int, last: np.ndarray) -> Tensor:
    """h0 advanced by j positions (future inputs), clamped at each row's ``last``."""
    idx = np.minimum(np.arange(h0.shape[1]) + j, last[:, None])
    return ad.getitem(h0, (np.arange(len(last))[:, None], idx))


def model_forward(batch: PatchBatch, params: Params, cfg: ModelConfig, depth: int,
                  reads: np.ndarray | None = None) -> ForwardTrace:
    """Embed, run all main blocks, then the first ``depth`` serial blocks.

    Deterministic: running at a larger depth reproduces every shallower
    serial output bit-exactly, so traces are prefix-stable.

    Each block computes only the tokens that are read. Causal attention keeps
    a real token's output free of the pad tokens after ``last_token``, so the
    experts skip the pads, whose outputs then carry no expert term. A caller
    that reads one token per row from the deepest block gives their (B,)
    positions as ``reads``, and that block's experts run on them alone.
    """
    if not (0 <= depth <= cfg.n_serial_blocks):
        raise ConfigError(f"depth {depth} outside 0..{cfg.n_serial_blocks}")
    if batch.n_input > cfg.n_max:
        raise ConfigError(f"context of {batch.n_input} patches exceeds the {cfg.n_max}-patch bound")
    dtype = params["head.w"].dtype
    values = (batch.input_patches * batch.input_masks).astype(dtype)  # pads forced to 0
    masks = batch.input_masks.astype(dtype)
    h0 = embed_patches(values, masks, params)

    last, n = batch.last_token, batch.n_input
    real = np.arange(n) <= last[:, None]
    rows = [None if real.all() else np.flatnonzero(real)] * (cfg.n_main_blocks + depth)
    if reads is not None:
        rows[-1] = np.arange(len(last)) * n + reads

    trace = ForwardTrace(n_main=cfg.n_main_blocks)
    trace.embeddings.append(h0)
    h = h0
    for layer in range(cfg.n_main_blocks):
        h, routing = moe_block(h, params, f"block{layer}.", cfg, rows[layer])
        trace.embeddings.append(h)
        trace.aux.append(routing)
    for j in range(1, depth + 1):
        ref = _shift_embeddings(h0, j, last) if cfg.variant == VARIANT_SHIFT else h0
        h, routing = serial_block(h, ref, j, params, cfg, rows[cfg.n_main_blocks + j - 1])
        trace.embeddings.append(h)
        trace.aux.append(routing)
    return trace
