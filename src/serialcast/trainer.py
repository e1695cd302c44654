"""Training loop, two-stage pipeline, checkpointing, gradient checking.

Optimization is adaptive-moment estimation with linear warmup, cosine decay
and decoupled weight decay on exactly the tensors drawn at random at init
(``param_table``), never on norm gains, biases or temperatures. Every step's
batch is drawn with an rng derived statelessly from (seed, step), so resuming
from a checkpoint reproduces the interrupted trajectory exactly.

Checkpoint format "SFCK" version 2 (little-endian): magic, u32 version,
u64 optimizer step, u32 parameter count, then one stream of tensor records
read front to back, each ``u16 name length, name, u8 dtype code, u8 ndim,
ndim x u64 shape, raw values``. The parameters come first; the optimizer
moments, when saved, follow as ``m.<name>`` and ``v.<name>`` records. A
CRC32 of everything before it ends the file. Loading checks the magic, the
CRC, then the version, so a flipped byte, a truncated file or a version-1
file is a ``CheckpointError``. Saving goes through ``dataloader.write_whole``
(temporary file, fsync, rename), so a failed save leaves the previous
checkpoint intact. Save -> load -> save is byte-identical.

Gradient checking compares every analytic gradient with an independent
central-difference estimate (``finite_diff_gradient``) in 64-bit; training
may run the same code in 32-bit.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import Params, Tensor
from .backbone import RANDOM_INITS, ModelConfig, init_params, model_forward, param_table
from .datagen import RESAMPLE_FACTORS, derive_seed, resample, value_flip
from .dataloader import (MixtureSampler, ShardManifest, WindowSampler, load_config_file,
                         save_config, write_whole)
from .errors import CheckpointError, ConfigError, InputError, SamplerError
from .objectives import QuantileGrid, default_grid, stage_loss
from .tokenizer import PatchBatch, make_supervised_batch

CKPT_MAGIC = b"SFCK"
CKPT_VERSION = 2
_HEADER = struct.Struct("<4sIQI")  # magic, version, optimizer step, parameter count
_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_CODE_DTYPES = {0: np.dtype(np.float64), 1: np.dtype(np.float32)}

ADAM_BETA1 = 0.9  # first-moment decay
ADAM_BETA2 = 0.95  # second-moment decay
ADAM_EPS = 1e-8  # keeps the update finite where the second moment is 0
# A gradient passes the finite-difference oracle when its largest relative
# error is below GRAD_REL_TOL or its largest absolute error is below
# GRAD_ABS_FLOOR, where finite-difference noise dominates.
GRAD_REL_TOL = 1e-4
GRAD_ABS_FLOOR = 1e-7
FD_EPSILON = 1e-5  # the central-difference step
SETTINGS_FILES = ("config.txt", "run.txt")  # what run_stage writes beside its checkpoints


@dataclass
class TrainConfig:
    stage: str = "pretrain"
    steps: int = 1000
    batch_size: int = 8
    peak_lr: float = 5e-3
    warmup_frac: float = 0.03
    lr_floor_frac: float = 0.1
    weight_decay: float = 0.1
    clip_norm: float = 1.0  # 0 or inf = no clipping
    seed: int = 0
    precision: str = "f32"
    resample_prob: float = 0.3
    flip_prob: float = 0.5
    checkpoint_interval: int = 0  # 0 = only at the end
    out_dir: str = "runs"

    def __post_init__(self):
        if self.stage not in ("pretrain", "posttrain"):
            raise ConfigError(f"stage must be pretrain or posttrain, got {self.stage!r}")
        for key, low in (("steps", 0), ("batch_size", 1), ("seed", 0), ("checkpoint_interval", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if not 0 < self.peak_lr < math.inf:  # also false for nan
            raise ConfigError(f"peak_lr must be finite and > 0, got {self.peak_lr}")
        for key in ("warmup_frac", "lr_floor_frac", "resample_prob", "flip_prob"):
            if not 0 <= getattr(self, key) <= 1:
                raise ConfigError(f"{key} must be in [0, 1], got {getattr(self, key)}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not self.clip_norm >= 0:  # nan fails too; inf is allowed
            raise ConfigError(f"clip_norm must be >= 0, got {self.clip_norm}")
        if self.precision not in ("f32", "f64"):
            raise ConfigError(f"precision must be f32 or f64, got {self.precision!r}")

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


def decayed_names(cfg: ModelConfig) -> frozenset[str]:
    """The tensors decoupled decay applies to: those drawn at random at init."""
    return frozenset(k for k, spec in param_table(cfg).items() if spec.init in RANDOM_INITS)


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
            g = p.grad.astype(np.float64)  # always a copy, so squared in place
            total += float(np.square(g, out=g).sum())
    norm = math.sqrt(total)
    if 0 < max_norm < norm < math.inf:  # never scales by a non-finite norm
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def adamw_update(params: Params, opt: OptState, lr: float, cfg: TrainConfig,
                 decayed: frozenset[str]):
    """Update the moments and weights in place, through two scratch buffers
    per dtype sized for the largest tensor. The operations and their order are
    those of ``p - lr * (m_hat / (sqrt(v_hat) + eps) + wd * p)``, bit for bit."""
    opt.step += 1
    t = opt.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    size = max((p.data.size for p in params.values() if p.grad is not None), default=0)
    scratch: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m, v, w = opt.m[name], opt.v[name], p.data
        if w.dtype not in scratch:
            scratch[w.dtype] = np.empty(size, w.dtype), np.empty(size, w.dtype)
        a, b = (s[: w.size].reshape(w.shape) for s in scratch[w.dtype])
        np.multiply(m, b1, out=m)
        np.add(m, np.multiply(1 - b1, g, out=a), out=m)
        np.multiply(np.multiply(1 - b2, g, out=a), g, out=a)
        np.add(np.multiply(v, b2, out=v), a, out=v)
        np.divide(m, 1 - b1**t, out=a)  # m_hat
        np.divide(v, 1 - b2**t, out=b)  # v_hat
        np.divide(a, np.add(np.sqrt(b, out=b), ADAM_EPS, out=b), out=a)  # the update
        if cfg.weight_decay > 0 and name in decayed:
            np.add(a, np.multiply(cfg.weight_decay, w, out=b), out=a)
        np.subtract(w, np.multiply(lr, a, out=a), out=w)


@dataclass
class StepResult:
    loss: float
    parts: dict[str, float]
    grad_norm: float
    lr: float
    skipped: bool = False


def train_step(params: Params, batch: PatchBatch, model_cfg: ModelConfig,
               train_cfg: TrainConfig, opt: OptState, lr: float, decayed: frozenset[str],
               grid: QuantileGrid | None = None) -> StepResult:
    """One optimization step. A non-finite loss or gradient norm skips it: only
    ``opt.step`` advances, so a resumed run draws the same batches after it.
    ``decayed`` is ``decayed_names(model_cfg)``, computed once per run."""
    zero_grads(params)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked just below
        trace = model_forward(batch, params, model_cfg, depth=model_cfg.n_serial_blocks)
        total, parts = stage_loss(train_cfg.stage, trace, batch, params, model_cfg, grid)
        norm = 0.0
        if math.isfinite(parts["total"]):
            total.backward()
            norm = clip_gradients(params, train_cfg.clip_norm)
            if math.isfinite(norm):
                adamw_update(params, opt, lr, train_cfg, decayed)
                return StepResult(parts["total"], parts, norm, lr)
    opt.step += 1
    return StepResult(parts["total"], parts, norm, lr, skipped=True)


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
    if flip_prob > 0 and rng.random() < flip_prob:
        raw = value_flip(raw)
    return raw


def draw_batch(sampler, model_cfg: ModelConfig, train_cfg: TrainConfig, step: int) -> PatchBatch:
    """Deterministic batch for a step: rng derived from (seed, step)."""
    n = model_cfg.n_max
    total = (n + model_cfg.n_serial_blocks + 1) * model_cfg.patch_len
    rng = np.random.default_rng(derive_seed(train_cfg.seed, step))
    windows = np.stack([
        draw_window(sampler, total, rng, train_cfg.resample_prob, train_cfg.flip_prob)
        for _ in range(train_cfg.batch_size)
    ])
    return make_supervised_batch(windows, n, model_cfg.patch_len)


# -- checkpoints -----------------------------------------------------------


def _encode(params: Params, state: OptState | None):
    """The checkpoint's chunks in file order, all but the CRC trailer."""
    step = 0 if state is None else state.step
    yield _HEADER.pack(CKPT_MAGIC, CKPT_VERSION, step, len(params))
    records = [(k, p.data) for k, p in params.items()]
    if state is not None:
        records += [(f"m.{k}", a) for k, a in state.m.items()]
        records += [(f"v.{k}", a) for k, a in state.v.items()]
    for name, arr in records:
        if arr.dtype not in _DTYPE_CODES:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for {name}")
        nb = name.encode()
        yield struct.pack(f"<H{len(nb)}sBB{arr.ndim}Q", len(nb), nb, _DTYPE_CODES[arr.dtype],
                          arr.ndim, *arr.shape)
        yield np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))


def save_checkpoint(params: Params, state: OptState | None, path: str):
    """Write the checkpoint whole: a failed save leaves the previous one untouched."""
    def chunks():
        crc = 0
        for chunk in _encode(params, state):
            crc = zlib.crc32(chunk, crc)
            yield chunk
        yield struct.pack("<I", crc)

    write_whole(path, chunks())


def load_checkpoint(path: str) -> tuple[Params, OptState | None]:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    version = int.from_bytes(blob[4:8], "little")
    body = memoryview(blob)[:-4]
    if len(blob) < _HEADER.size + 4 or zlib.crc32(body) != int.from_bytes(blob[-4:], "little"):
        hint = "" if version == CKPT_VERSION else (
            f"; header says version {version}, this build reads version {CKPT_VERSION}")
        raise CheckpointError(f"{path}: checksum mismatch, corrupt or truncated checkpoint{hint}")
    if version != CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    _, _, step, count = _HEADER.unpack_from(body)
    records, off = [], _HEADER.size
    try:
        while off < len(body):
            (n,) = struct.unpack_from("<H", body, off)
            name = bytes(body[off + 2 : off + 2 + n]).decode()
            code, ndim = struct.unpack_from("<BB", body, off + 2 + n)
            shape = struct.unpack_from(f"<{ndim}Q", body, off + 4 + n)
            off += 4 + n + 8 * ndim
            if code not in _CODE_DTYPES:
                raise ValueError(f"unknown dtype code {code} for {name}")
            dtype, size = _CODE_DTYPES[code], math.prod(shape)
            arr = np.frombuffer(body, dtype.newbyteorder("<"), size, off)
            records.append((name, arr.astype(dtype).reshape(shape)))
            off += size * dtype.itemsize
    except (struct.error, ValueError) as e:
        raise CheckpointError(f"{path}: malformed record at byte {off}: {e}") from None
    params = {k: Tensor(a, requires_grad=True) for k, a in records[:count]}
    m = {k[2:]: a for k, a in records[count:] if k.startswith("m.")}
    v = {k[2:]: a for k, a in records[count:] if k.startswith("v.")}
    if len(params) != count or len(m) + len(v) != len(records) - count:
        raise CheckpointError(f"{path}: expected {count} distinct parameter records, "
                              "then optimizer moments only")
    return params, (OptState(m, v, step) if m or v else None)


def validate_params(params: Params, cfg: ModelConfig):
    """Check the tensor names and shapes against ``param_table(cfg)``, and every value finite."""
    expected = param_table(cfg)
    missing = [k for k in expected if k not in params]
    extra = [k for k in params if k not in expected]
    if missing or extra:
        first = (missing or extra)[0]
        raise CheckpointError(f"parameter set mismatch, first offender: {first} "
                              f"({len(missing)} missing, {len(extra)} unexpected)")
    for k, spec in expected.items():
        if params[k].shape != spec.shape:
            raise CheckpointError(f"shape mismatch for {k}: checkpoint {params[k].shape}, "
                                  f"config wants {spec.shape}")
        if not np.isfinite(params[k].data).all():
            raise CheckpointError(f"{k} holds a value that is not finite")


# -- stage runners ----------------------------------------------------------


@dataclass
class TrainResult:
    params: Params
    opt: OptState
    history: list[StepResult] = field(default_factory=list)
    checkpoint_path: str = ""


def refuse_changes(ckpt: str, stored: dict, given: dict, exempt: tuple[str, ...] = ()):
    """Refuse a key not in ``exempt`` whose value in ``given`` differs from the one
    ``stored`` beside ``ckpt``, or that only one of the two holds."""
    for k in {**given, **stored}:
        if k not in exempt and f"{given.get(k)}" != f"{stored.get(k)}":
            raise CheckpointError(f"{ckpt} was written by a run with {k}={stored.get(k)}, "
                                  f"this run has {k}={given.get(k)}")


def run_stage(model_cfg: ModelConfig, train_cfg: TrainConfig,
              sources: list[tuple[ShardManifest, float]], start_from: str | None = None,
              resume_from: str | None = None, log_every: int = 0) -> TrainResult:
    """Train either stage on ``sources``, (manifest, weight) pairs drawn in
    proportion to their weights; pre-training is one source of weight 1. The
    run goes on from ``resume_from``'s weights, moments and step, or starts from
    ``start_from``'s weights with fresh moments, or from ``init_params``. ``n_max``
    may exceed the bound the weights were trained at: rotary positions need no
    weights. Once the weights are checked, the run writes into ``out_dir`` the
    model keys as ``ModelConfig`` resolves them and the train keys, then the
    stage and each source's corpus path, weight and CRC32. A resume first
    refuses, naming it, any setting but ``checkpoint_interval`` and a source's
    path that differs from the one stored beside ``resume_from``, and before
    that a ``resume_from`` without moments. Given both checkpoints, it refuses."""
    if log_every < 0:
        raise InputError(f"log_every must be >= 0, got {log_every}")
    if start_from and resume_from:
        raise InputError(f"a run starts from a checkpoint or resumes one, not both: "
                         f"start_from={start_from}, resume_from={resume_from}")
    if path := resume_from or start_from:
        params, opt = load_checkpoint(path)
        validate_params(params, model_cfg)
        for name, p in params.items():  # or training goes on in the stored dtype
            if p.dtype != train_cfg.dtype:
                raise CheckpointError(f"precision={train_cfg.precision} trains in "
                                      f"{np.dtype(train_cfg.dtype)}, but {path} holds {name} "
                                      f"in {p.dtype}")
        if resume_from and opt is None:
            raise CheckpointError(f"{path} holds no optimizer moments, so it cannot be resumed")
    else:
        params, opt = init_params(model_cfg, seed=train_cfg.seed, dtype=train_cfg.dtype), None
    opt = opt if resume_from else OptState.fresh(params)
    sampler = MixtureSampler([(WindowSampler(m), w) for m, w in sources])
    config = asdict(model_cfg) | asdict(train_cfg)
    del config["out_dir"]
    run = {"stage": config.pop("stage")}
    for i, (manifest, weight) in enumerate(sources):
        run |= {f"source{i}": os.path.abspath(manifest.root_dir), f"source{i}_weight": weight,
                f"source{i}_crc32": f"{manifest.crc32:08x}"}
    if resume_from:
        stored = {k: v for name in SETTINGS_FILES for k, v in
                  load_config_file(os.path.join(os.path.dirname(resume_from), name)).items()}
        refuse_changes(resume_from, stored, config | run,
                       exempt=("checkpoint_interval", *(f"source{i}" for i in range(len(sources)))))
    for name, values in zip(SETTINGS_FILES, (config, run)):
        save_config(os.path.join(train_cfg.out_dir, name), values)
    grid = default_grid(model_cfg.n_quantiles)
    decayed = decayed_names(model_cfg)
    history: list[StepResult] = []
    for step in range(opt.step, train_cfg.steps):
        batch = draw_batch(sampler, model_cfg, train_cfg, step)
        res = train_step(params, batch, model_cfg, train_cfg, opt, lr_at(step, train_cfg),
                         decayed, grid)
        history.append(res)
        if log_every and (step % log_every == 0 or step == train_cfg.steps - 1):
            print(f"step {step:6d} loss {res.loss:10.4f} ntp {res.parts['ntp']:8.4f} "
                  f"serial {res.parts['serial']:7.4f} aux {res.parts['aux']:6.3f} lr {res.lr:.2e}"
                  + ("  [skipped]" if res.skipped else ""))
        if train_cfg.checkpoint_interval and (step + 1) % train_cfg.checkpoint_interval == 0:
            save_checkpoint(params, opt,
                            os.path.join(train_cfg.out_dir, f"{train_cfg.stage}_step{step + 1:06d}.sfck"))
    ckpt_path = os.path.join(train_cfg.out_dir, f"{train_cfg.stage}.sfck")
    save_checkpoint(params, opt, ckpt_path)
    return TrainResult(params, opt, history, ckpt_path)


def run_pretrain(model_cfg: ModelConfig, train_cfg: TrainConfig,
                 manifest: ShardManifest) -> TrainResult:
    """A fresh run over one corpus: ``run_stage(model_cfg, train_cfg, [(manifest, 1.0)])``."""
    return run_stage(model_cfg, train_cfg, [(manifest, 1.0)])


# -- gradient checking ---------------------------------------------------------


@dataclass
class GradCheckReport:
    param_name: str
    max_rel_err: float
    max_abs_err: float
    passed: bool

    def __str__(self):
        tag = "ok  " if self.passed else "FAIL"
        return f"[{tag}] {self.param_name:40s} rel={self.max_rel_err:.3e} abs={self.max_abs_err:.3e}"


def zero_grads(params: Params):
    for p in params.values():
        p.zero_grad()


def finite_diff_gradient(loss_fn, params: Params, coords_per_tensor: int | None = None,
                         rng: np.random.Generator | None = None) -> dict[str, np.ndarray]:
    """Central-difference gradient (f(t+e) - f(t-e)) / 2e per coordinate, e = FD_EPSILON.

    With ``coords_per_tensor`` set (at least 1), only that many randomly
    chosen coordinates are evaluated per tensor; unsampled entries are NaN.
    ``loss_fn`` must be deterministic (checked by a repeated base evaluation).
    """
    if coords_per_tensor is not None and coords_per_tensor < 1:
        raise InputError(f"coords per tensor must be >= 1, got {coords_per_tensor}")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise InputError(f"finite differences require 64-bit params ({name} is {p.data.dtype})")
    base = float(loss_fn(params))
    if float(loss_fn(params)) != base:
        raise InputError("loss_fn is not deterministic")
    rng = rng or np.random.default_rng(0)
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if coords_per_tensor is None or coords_per_tensor >= n:
            idx = np.arange(n)
        else:
            idx = rng.choice(n, size=coords_per_tensor, replace=False)
        g = np.full(n, np.nan)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + FD_EPSILON
            hi = float(loss_fn(params))
            flat[i] = orig - FD_EPSILON
            lo = float(loss_fn(params))
            flat[i] = orig
            g[i] = (hi - lo) / (2.0 * FD_EPSILON)
        out[name] = g.reshape(p.data.shape)
    return out


def compare_gradients(analytic: dict[str, np.ndarray],
                      numeric: dict[str, np.ndarray]) -> list[GradCheckReport]:
    """One report per parameter; NaN entries of ``numeric`` are skipped.

    A coordinate counts toward max_rel_err only when its absolute error is at
    least GRAD_ABS_FLOOR; below that, finite-difference noise dominates.
    """
    reports = []
    for name in sorted(numeric):
        f = numeric[name].reshape(-1)
        a = np.zeros_like(f) if analytic.get(name) is None else np.asarray(analytic[name]).reshape(-1)
        keep = ~np.isnan(f)
        err = np.abs(a[keep] - f[keep])
        scale = np.maximum(np.abs(a[keep]), np.abs(f[keep]))
        max_abs = float(err.max()) if err.size else 0.0
        sig = err >= GRAD_ABS_FLOOR
        max_rel = float((err[sig] / scale[sig]).max()) if sig.any() else 0.0
        passed = (max_rel < GRAD_REL_TOL) or (max_abs < GRAD_ABS_FLOOR)
        reports.append(GradCheckReport(name, max_rel, max_abs, passed))
    return reports


REFERENCE_TINY = ModelConfig(d_model=16, patch_len=4, n_max=4, n_main_blocks=2,
                             n_serial_blocks=2, n_experts=4, top_k=2, n_heads=1,
                             n_quantiles=3)


def gradient_check_suite(seed: int = 0, coords_per_tensor: int = 24) -> list[GradCheckReport]:
    """Check every parameter family of the full pre-train loss against
    central finite differences on the reference tiny configuration, over a
    batch of two random-walk windows."""
    cfg = REFERENCE_TINY
    params = init_params(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(derive_seed(seed, 1))
    n_total = cfg.n_max + cfg.n_serial_blocks + 1
    windows = rng.normal(size=(2, n_total * cfg.patch_len)).cumsum(axis=1)
    batch = make_supervised_batch(windows, cfg.n_max, cfg.patch_len)
    grid = default_grid(cfg.n_quantiles)

    def loss() -> Tensor:
        trace = model_forward(batch, params, cfg, depth=cfg.n_serial_blocks)
        return stage_loss("pretrain", trace, batch, params, cfg, grid)[0]

    zero_grads(params)
    loss().backward()
    entries = _expert_slices(params, cfg)
    # the entries are views into params, so loss() sees every perturbation
    numeric = finite_diff_gradient(lambda _entries: float(loss().data), entries,
                                   coords_per_tensor=coords_per_tensor,
                                   rng=np.random.default_rng(derive_seed(seed, 2)))
    analytic = {k: p.grad for k, p in entries.items()}
    return compare_gradients(analytic, numeric)


def _expert_slices(params: Params, cfg: ModelConfig) -> Params:
    """Every parameter, with each block's stacked expert families split into
    entries ``<block>.moe.w1[j]`` that share values and gradients with the
    stacked tensor, ordered expert by expert within a block."""
    out: Params = {}
    runs = itertools.groupby(param_table(cfg).items(), key=lambda kv: kv[1].per_expert)
    for stacked, run in runs:
        names = [name for name, _ in run]
        if not stacked:
            out.update((name, params[name]) for name in names)
            continue
        for j in range(cfg.n_experts):
            for name in names:
                out[f"{name}[{j}]"] = view = Tensor(params[name].data[j])
                view.grad = params[name].grad[j]
    return out
