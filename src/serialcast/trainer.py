"""Training loop, two-stage pipeline, checkpointing, gradient-check harness.

Optimization is adaptive-moment estimation with decoupled weight decay
(norm gains, biases and temperatures excluded), linear warmup and cosine
decay. Every step's batch is drawn with an rng derived statelessly from
(seed, step), so resuming from a checkpoint reproduces the interrupted
trajectory exactly.

Checkpoint format "SFCK" (little-endian): magic, u32 version, u32 tensor
count, per-tensor index records (name, dtype code, shape, payload offset),
u64 payload length, raw payload, then an optional training-state extension
with the optimizer moments and step counter. Save -> load -> save is
byte-identical.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor
from .backbone import ModelConfig, init_params, model_forward
from .datagen import RESAMPLE_FACTORS, derive_seed, resample, value_flip
from .dataloader import MixtureSampler, ShardManifest, WindowSampler
from .errors import CheckpointError, ConfigError, InputError, SamplerError
from .numerics import (GradCheckReport, Params, compare_gradients, finite_diff_gradient,
                       zero_grads)
from .objectives import QuantileGrid, default_grid, stage_loss
from .tokenizer import PatchBatch, make_supervised_batch

CKPT_MAGIC = b"SFCK"
CKPT_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_CODE_DTYPES = {0: np.dtype(np.float64), 1: np.dtype(np.float32)}


@dataclass
class TrainConfig:
    stage: str = "pretrain"
    steps: int = 1000
    batch_size: int = 8
    peak_lr: float = 5e-3
    warmup_frac: float = 0.03
    lr_floor_frac: float = 0.1
    weight_decay: float = 0.1
    clip_norm: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.95
    adam_eps: float = 1e-8
    alpha: float = 0.01
    seed: int = 0
    precision: str = "f32"
    resample_prob: float = 0.3
    flip_prob: float = 0.5
    n_max_override: int = 0  # posttrain context extension target (0 = keep)
    checkpoint_interval: int = 0  # 0 = only at the end
    out_dir: str = "runs"

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1:
            raise InputError("steps >= 0 and batch_size >= 1 required")
        if self.peak_lr <= 0:
            raise InputError("peak_lr must be > 0")
        if self.stage not in ("pretrain", "posttrain"):
            raise InputError(f"unknown stage {self.stage!r}")
        if self.precision not in ("f32", "f64"):
            raise InputError("precision must be f32 or f64")

    @property
    def dtype(self):
        return np.float32 if self.precision == "f32" else np.float64


@dataclass
class OptState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def fresh(cls, params: Params) -> "OptState":
        return cls({k: np.zeros_like(p.data) for k, p in params.items()},
                   {k: np.zeros_like(p.data) for k, p in params.items()}, 0)


def decay_applies(name: str) -> bool:
    """Decoupled decay hits matrices only, never norms/biases/temperatures."""
    return not (name.endswith((".b", ".b1", ".b2")) or "norm" in name or "tau" in name)


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup then cosine decay to lr_floor_frac * peak."""
    warmup = max(1, int(cfg.warmup_frac * cfg.steps))
    if step < warmup:
        return cfg.peak_lr * (step + 1) / warmup
    floor = cfg.peak_lr * cfg.lr_floor_frac
    progress = (step - warmup) / max(1, cfg.steps - warmup)
    return floor + 0.5 * (cfg.peak_lr - floor) * (1.0 + math.cos(math.pi * min(progress, 1.0)))


def clip_gradients(params: Params, max_norm: float) -> float:
    """Scale all gradients so the global norm is at most ``max_norm``."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and math.isfinite(max_norm) and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def adamw_update(params: Params, opt: OptState, lr: float, cfg: TrainConfig):
    opt.step += 1
    t = opt.step
    b1, b2 = cfg.beta1, cfg.beta2
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        opt.m[name] = b1 * opt.m[name] + (1 - b1) * g
        opt.v[name] = b2 * opt.v[name] + (1 - b2) * g * g
        m_hat = opt.m[name] / (1 - b1**t)
        v_hat = opt.v[name] / (1 - b2**t)
        update = m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        if cfg.weight_decay > 0 and decay_applies(name):
            update = update + cfg.weight_decay * p.data
        p.data = p.data - lr * update


@dataclass
class StepResult:
    loss: float
    parts: dict[str, float]
    grad_norm: float
    lr: float
    skipped: bool = False


def train_step(params: Params, batch: PatchBatch, model_cfg: ModelConfig,
               train_cfg: TrainConfig, opt: OptState, lr: float,
               grid: QuantileGrid | None = None) -> StepResult:
    """One optimization step; a non-finite loss aborts without touching params."""
    zero_grads(params)
    trace = model_forward(batch, params, model_cfg, depth=model_cfg.n_serial_blocks)
    total, parts = stage_loss(train_cfg.stage, trace, batch, params, model_cfg,
                              grid, alpha=train_cfg.alpha)
    if not math.isfinite(parts["total"]):
        return StepResult(parts["total"], parts, 0.0, lr, skipped=True)
    total.backward()
    norm = clip_gradients(params, train_cfg.clip_norm)
    adamw_update(params, opt, lr, train_cfg)
    return StepResult(parts["total"], parts, norm, lr, skipped=False)


# -- batch construction with augmentation ---------------------------------


def draw_window(sampler, total_points: int, rng: np.random.Generator,
                resample_prob: float, flip_prob: float) -> np.ndarray:
    """One raw training window with the configured augmentations applied.

    Resampling picks a factor, draws a proportionally longer/shorter raw run,
    resamples it on Fourier bases and crops to the requested length; it falls
    back to the un-resampled draw when the corpus has no long-enough series.
    """
    factor = 1.0
    if resample_prob > 0 and rng.random() < resample_prob:
        factor = RESAMPLE_FACTORS[int(rng.integers(len(RESAMPLE_FACTORS)))]
    if factor != 1.0:
        raw_len = max(4, math.ceil(total_points / factor))
        try:
            raw = resample(sampler.sample_raw(raw_len, rng), factor)[:total_points]
        except SamplerError:  # corpus has no run long enough for this factor
            factor = 1.0
    if factor == 1.0:
        raw = sampler.sample_raw(total_points, rng)
    if raw.size < total_points:  # rounding shortfall: extend by edge value
        raw = np.concatenate([raw, np.full(total_points - raw.size, raw[-1])])
    if flip_prob > 0 and rng.random() < flip_prob:
        raw = value_flip(raw)
    return raw


def draw_batch(sampler, model_cfg: ModelConfig, train_cfg: TrainConfig, step: int,
               n_patches: int | None = None) -> PatchBatch:
    """Deterministic batch for a step: rng derived from (seed, step)."""
    n = model_cfg.n_max if n_patches is None else n_patches
    total = (n + model_cfg.n_serial_blocks + 1) * model_cfg.patch_len
    rng = np.random.default_rng(derive_seed(train_cfg.seed, step))
    windows = np.stack([
        draw_window(sampler, total, rng, train_cfg.resample_prob, train_cfg.flip_prob)
        for _ in range(train_cfg.batch_size)
    ])
    return make_supervised_batch(windows, n, model_cfg.patch_len)


# -- checkpoints -----------------------------------------------------------


def _write_tensor_section(chunks: list[bytes], tensors: dict[str, np.ndarray]):
    index = []
    payload = bytearray()
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for {name}")
        nb = name.encode()
        rec = struct.pack("<H", len(nb)) + nb
        rec += struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim)
        rec += struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
        rec += struct.pack("<Q", len(payload))
        index.append(rec)
        payload += arr.astype(arr.dtype.newbyteorder("<")).tobytes()
    chunks.append(struct.pack("<I", len(tensors)))
    chunks.extend(index)
    chunks.append(struct.pack("<Q", len(payload)))
    chunks.append(bytes(payload))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise CheckpointError("truncated checkpoint")
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_tensor_section(r: _Reader) -> dict[str, np.ndarray]:
    (count,) = r.unpack("<I")
    index = []
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode()
        code, ndim = r.unpack("<BB")
        shape = r.unpack(f"<{ndim}Q") if ndim else ()
        (offset,) = r.unpack("<Q")
        index.append((name, code, shape, offset))
    (payload_len,) = r.unpack("<Q")
    payload = r.take(payload_len)
    out = {}
    for name, code, shape, offset in index:
        dtype = _CODE_DTYPES.get(code)
        if dtype is None:
            raise CheckpointError(f"unknown dtype code {code} for {name}")
        n_bytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if shape else dtype.itemsize
        raw = payload[offset : offset + n_bytes]
        if len(raw) != n_bytes:
            raise CheckpointError(f"payload truncated for {name}")
        out[name] = np.frombuffer(raw, dtype=dtype.newbyteorder("<")).astype(dtype).reshape(shape)
    return out


def save_checkpoint(params: Params, state: OptState | None, path: str):
    chunks: list[bytes] = [CKPT_MAGIC, struct.pack("<I", CKPT_VERSION)]
    _write_tensor_section(chunks, {k: p.data for k, p in params.items()})
    if state is None:
        chunks.append(struct.pack("<B", 0))
    else:
        chunks.append(struct.pack("<B", 1))
        chunks.append(struct.pack("<Q", state.step))
        moments = {f"m.{k}": v for k, v in state.m.items()}
        moments.update({f"v.{k}": v for k, v in state.v.items()})
        _write_tensor_section(chunks, moments)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as f:
        f.write(b"".join(chunks))


def load_checkpoint(path: str) -> tuple[Params, OptState | None]:
    with open(path, "rb") as f:
        blob = f.read()
    r = _Reader(blob)
    if r.take(4) != CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    (version,) = r.unpack("<I")
    if version != CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    tensors = _read_tensor_section(r)
    params = {k: Tensor(v, requires_grad=True) for k, v in tensors.items()}
    (has_state,) = r.unpack("<B")
    state = None
    if has_state:
        (step,) = r.unpack("<Q")
        moments = _read_tensor_section(r)
        m = {k[2:]: v for k, v in moments.items() if k.startswith("m.")}
        v = {k[2:]: v for k, v in moments.items() if k.startswith("v.")}
        state = OptState(m, v, step)
    return params, state


def validate_params(params: Params, cfg: ModelConfig):
    """Check the loaded tensor set against what the config implies."""
    expected = init_params(cfg, seed=0, dtype=np.float32)
    missing = [k for k in expected if k not in params]
    extra = [k for k in params if k not in expected]
    if missing or extra:
        first = (missing or extra)[0]
        raise CheckpointError(f"parameter set mismatch, first offender: {first} "
                              f"({len(missing)} missing, {len(extra)} unexpected)")
    for k, p in expected.items():
        if params[k].shape != p.shape:
            raise CheckpointError(f"shape mismatch for {k}: checkpoint {params[k].shape}, "
                                  f"config wants {p.shape}")


def extend_context(cfg: ModelConfig, new_n_max: int) -> ModelConfig:
    """Raise the context bound; rotary positions need no new weights."""
    if new_n_max < cfg.n_max:
        raise ConfigError(f"cannot shrink context {cfg.n_max} -> {new_n_max}")
    return replace(cfg, n_max=new_n_max, n_heads=cfg.n_heads)


# -- stage runners ----------------------------------------------------------


@dataclass
class TrainResult:
    params: Params
    opt: OptState
    history: list[StepResult] = field(default_factory=list)
    checkpoint_path: str = ""
    model_cfg: ModelConfig | None = None


def _as_sampler(data, source: str = "") -> WindowSampler:
    if isinstance(data, ShardManifest):
        return WindowSampler(data, source=source)
    return data


def _run_loop(params: Params, opt: OptState, sampler, model_cfg: ModelConfig,
              train_cfg: TrainConfig, start_step: int = 0,
              log_every: int = 0) -> TrainResult:
    grid = default_grid(model_cfg.n_quantiles)
    history: list[StepResult] = []
    ckpt_path = os.path.join(train_cfg.out_dir, f"{train_cfg.stage}.sfck")
    for step in range(start_step, train_cfg.steps):
        batch = draw_batch(sampler, model_cfg, train_cfg, step)
        res = train_step(params, batch, model_cfg, train_cfg, opt, lr_at(step, train_cfg), grid)
        history.append(res)
        if log_every and (step % log_every == 0 or step == train_cfg.steps - 1):
            print(f"step {step:6d} loss {res.loss:10.4f} ntp {res.parts['ntp']:8.4f} "
                  f"serial {res.parts['serial']:7.4f} aux {res.parts['aux']:6.3f} lr {res.lr:.2e}"
                  + ("  [skipped]" if res.skipped else ""))
        if train_cfg.checkpoint_interval and (step + 1) % train_cfg.checkpoint_interval == 0:
            save_checkpoint(params, opt,
                            os.path.join(train_cfg.out_dir, f"{train_cfg.stage}_step{step + 1:06d}.sfck"))
    save_checkpoint(params, opt, ckpt_path)
    return TrainResult(params, opt, history, ckpt_path, model_cfg)


def run_pretrain(model_cfg: ModelConfig, train_cfg: TrainConfig, data,
                 resume_from: str | None = None, log_every: int = 0) -> TrainResult:
    """Stage 1: uniform serial weights, augmentation on, fresh or resumed."""
    if train_cfg.stage != "pretrain":
        raise InputError("run_pretrain needs stage=pretrain")
    sampler = _as_sampler(data, "pretrain")
    if resume_from:
        params, opt = load_checkpoint(resume_from)
        validate_params(params, model_cfg)
        opt = opt or OptState.fresh(params)
        start = opt.step
    else:
        params = init_params(model_cfg, seed=train_cfg.seed, dtype=train_cfg.dtype)
        opt = OptState.fresh(params)
        start = 0
    return _run_loop(params, opt, sampler, model_cfg, train_cfg, start_step=start,
                     log_every=log_every)


def run_posttrain(pretrained: str, model_cfg: ModelConfig, train_cfg: TrainConfig,
                  sources: list[tuple[ShardManifest, float]], log_every: int = 0) -> TrainResult:
    """Stage 2: horizon-decayed serial weights, data revisiting, optional
    context extension. Optimizer moments start fresh for the new schedule."""
    if train_cfg.stage != "posttrain":
        raise InputError("run_posttrain needs stage=posttrain")
    params, _ = load_checkpoint(pretrained)
    cfg = model_cfg
    if train_cfg.n_max_override:
        cfg = extend_context(cfg, train_cfg.n_max_override)
    validate_params(params, cfg)
    sampler = MixtureSampler([(WindowSampler(m, source=f"src{i}"), w)
                              for i, (m, w) in enumerate(sources)])
    opt = OptState.fresh(params)
    return _run_loop(params, opt, sampler, cfg, train_cfg, log_every=log_every)


# -- gradient-check harness --------------------------------------------------


REFERENCE_TINY = ModelConfig(d_model=16, patch_len=4, n_max=4, n_main_blocks=2,
                             n_serial_blocks=2, n_experts=4, top_k=2, n_heads=1,
                             n_quantiles=3)


def gradient_check_suite(cfg: ModelConfig | None = None, seed: int = 0,
                         coords_per_tensor: int = 24, epsilon: float = 1e-5,
                         rel_tol: float = 1e-4, abs_floor: float = 1e-7,
                         batch_size: int = 2) -> list[GradCheckReport]:
    """Check every parameter family of the full pre-train loss against
    central finite differences on the reference tiny configuration."""
    cfg = cfg or REFERENCE_TINY
    if cfg.d_model > 16 or cfg.n_main_blocks > 2 or cfg.n_serial_blocks > 2 \
            or cfg.n_experts > 4 or cfg.n_max > 4:
        raise InputError("gradient_check_suite requires the tiny configuration")
    params = init_params(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(derive_seed(seed, 1))
    n_total = cfg.n_max + cfg.n_serial_blocks + 1
    windows = rng.normal(size=(batch_size, n_total * cfg.patch_len)).cumsum(axis=1)
    batch = make_supervised_batch(windows, cfg.n_max, cfg.patch_len)
    grid = default_grid(cfg.n_quantiles)

    def loss_fn(p: Params) -> float:
        trace = model_forward(batch, p, cfg, depth=cfg.n_serial_blocks)
        total, _ = stage_loss("pretrain", trace, batch, p, cfg, grid)
        return float(total.data)

    zero_grads(params)
    trace = model_forward(batch, params, cfg, depth=cfg.n_serial_blocks)
    total, _ = stage_loss("pretrain", trace, batch, params, cfg, grid)
    total.backward()
    analytic = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}
    numeric = finite_diff_gradient(loss_fn, params, epsilon,
                                   coords_per_tensor=coords_per_tensor,
                                   rng=np.random.default_rng(derive_seed(seed, 2)))
    return compare_gradients(analytic, numeric, rel_tol=rel_tol, abs_floor=abs_floor)
