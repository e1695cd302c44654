"""Optimizer invariants, checkpoint format, resume, context extension, gradcheck."""

import errno
import math
import os
import re
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from serialcast import autodiff as ad
from serialcast import cli, dataloader, trainer
from serialcast.autodiff import Tensor
from serialcast.backbone import ModelConfig, init_params, model_forward
from serialcast.datagen import SignalSpec, gen_signal
from serialcast.dataloader import (MANIFEST_NAME, ShardEntry, ShardManifest, build_shards,
                                   write_csv_series)
from serialcast.errors import CheckpointError, ConfigError, InputError
from serialcast.tokenizer import make_batch
from serialcast.trainer import (REFERENCE_TINY, OptState, TrainConfig, adamw_update,
                                clip_gradients, compare_gradients, decayed_names, draw_batch,
                                finite_diff_gradient, gradient_check_suite, load_checkpoint,
                                lr_at, run_pretrain, run_stage, save_checkpoint, train_step,
                                validate_params)


@pytest.fixture
def toy_manifest(tmp_path):
    series = [gen_signal(SignalSpec(kind="sinusoidal", period=16.0, length=400,
                                    seed=i, noise_sigma=0.02)) for i in range(4)]
    return build_shards(series, 1 << 20, str(tmp_path / "data"))


SMALL = ModelConfig(d_model=16, patch_len=4, n_max=6, n_main_blocks=1, n_serial_blocks=1,
                    n_experts=2, top_k=1, n_heads=1, n_quantiles=3)


class TestDecayPolicy:
    def test_exclusions(self):
        decayed = decayed_names(SMALL)
        assert "block0.attn.wq" in decayed
        assert "serial1.fusion.w" in decayed
        assert "block0.attn_norm.g" not in decayed
        assert "block0.moe.b1" not in decayed
        assert "block0.moe.w1" in decayed
        assert "embedder.skip.b" not in decayed
        assert "block0.attn.tau_raw" not in decayed

    def test_only_listed_names_decay(self):
        cfg = TrainConfig(stage="pretrain", steps=1, weight_decay=0.5)
        params = {k: Tensor(np.array([1.0]), requires_grad=True) for k in ("w", "g")}
        for p in params.values():
            p.grad = np.zeros(1)
        adamw_update(params, OptState.fresh(params), 0.1, cfg, frozenset({"w"}))
        np.testing.assert_allclose(params["w"].data, [0.95], rtol=1e-12)
        np.testing.assert_array_equal(params["g"].data, [1.0])


class TestAdamW:
    def test_zero_grad_zero_decay_is_noop(self):
        cfg = TrainConfig(stage="pretrain", steps=1, weight_decay=0.0)
        params = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        params["w"].grad = np.zeros(2)
        opt = OptState.fresh(params)
        adamw_update(params, opt, 0.1, cfg, frozenset({"w"}))
        np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])

    def test_lr_zero_is_noop(self):
        cfg = TrainConfig(stage="pretrain", steps=1)
        params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        params["w"].grad = np.array([0.5])
        opt = OptState.fresh(params)
        adamw_update(params, opt, 0.0, cfg, frozenset({"w"}))
        np.testing.assert_array_equal(params["w"].data, [1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_equals_allocating_reference(self, dtype):
        # the allocating form the in-place update must match bit for bit
        def reference(params, opt, lr, cfg, decayed):
            opt.step += 1
            b1, b2, t = trainer.ADAM_BETA1, trainer.ADAM_BETA2, opt.step
            for name, p in params.items():
                g = p.grad
                opt.m[name] = b1 * opt.m[name] + (1 - b1) * g
                opt.v[name] = b2 * opt.v[name] + (1 - b2) * g * g
                update = (opt.m[name] / (1 - b1**t)) / (np.sqrt(opt.v[name] / (1 - b2**t))
                                                        + trainer.ADAM_EPS)
                if cfg.weight_decay > 0 and name in decayed:
                    update = update + cfg.weight_decay * p.data
                p.data = p.data - lr * update

        rng = np.random.default_rng(3)
        cfg = TrainConfig(stage="pretrain", steps=1, weight_decay=0.1)
        shapes = {"w": (7, 5), "b": (5,), "e": (3, 4, 6)}
        init = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        got = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        want = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        opt_got, opt_want = OptState.fresh(got), OptState.fresh(want)
        for step in range(5):
            for k, s in shapes.items():
                got[k].grad = (rng.normal(size=s) * 10.0 ** rng.integers(-4, 3)).astype(dtype)
                want[k].grad = got[k].grad.copy()
            adamw_update(got, opt_got, 0.01 / (step + 1), cfg, frozenset({"w", "e"}))
            reference(want, opt_want, 0.01 / (step + 1), cfg, frozenset({"w", "e"}))
            for k in shapes:
                for a, b in ((got[k].data, want[k].data), (opt_got.m[k], opt_want.m[k]),
                             (opt_got.v[k], opt_want.v[k])):
                    assert a.dtype == b.dtype == dtype and np.array_equal(a, b)

    def test_descends_quadratic(self):
        cfg = TrainConfig(stage="pretrain", steps=1, weight_decay=0.0)
        params = {"w": Tensor(np.array([3.0]), requires_grad=True)}
        opt = OptState.fresh(params)
        for _ in range(200):
            params["w"].grad = 2 * params["w"].data
            adamw_update(params, opt, 0.05, cfg, frozenset({"w"}))
        assert abs(float(params["w"].data[0])) < 0.2


class TestClip:
    def test_never_increases_norm(self):
        rng = np.random.default_rng(0)
        params = {f"p{i}": Tensor(np.zeros(4), requires_grad=True) for i in range(3)}
        for p in params.values():
            p.grad = rng.normal(size=4)
        before = math.sqrt(sum(float((p.grad**2).sum()) for p in params.values()))
        clip_gradients(params, 0.5)
        after = math.sqrt(sum(float((p.grad**2).sum()) for p in params.values()))
        assert after <= min(before, 0.5) + 1e-12

    def test_infinite_threshold_identity(self):
        params = {"p": Tensor(np.zeros(3), requires_grad=True)}
        params["p"].grad = np.array([3.0, 4.0, 0.0])
        norm = clip_gradients(params, float("inf"))
        assert norm == 5.0
        np.testing.assert_array_equal(params["p"].grad, [3.0, 4.0, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_norm_never_scales(self, bad):
        params = {"p": Tensor(np.zeros(3), requires_grad=True),
                  "q": Tensor(np.zeros(2), requires_grad=True)}
        params["p"].grad = np.array([3.0, bad, 0.0])
        params["q"].grad = np.array([1.0, 2.0])
        assert not math.isfinite(clip_gradients(params, 1.0))
        np.testing.assert_array_equal(params["p"].grad, [3.0, bad, 0.0])
        np.testing.assert_array_equal(params["q"].grad, [1.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_norm_equals_allocating_expression(self, dtype):
        # the in-place square must give the allocating form's norm bit for bit
        # and leave the gradients untouched
        rng = np.random.default_rng(4)
        shapes = {"w": (7, 5), "b": (5,), "e": (3, 4, 6), "none": (2,)}
        params = {k: Tensor(np.zeros(s, dtype), requires_grad=True) for k, s in shapes.items()}
        for k, s in shapes.items():
            if k != "none":
                params[k].grad = (rng.normal(size=s) * 10.0 ** rng.integers(-4, 3)).astype(dtype)
        grads = {k: p.grad.copy() for k, p in params.items() if p.grad is not None}
        want = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()))
        assert clip_gradients(params, float("inf")) == want
        for k, g in grads.items():
            assert params[k].grad.dtype == dtype and np.array_equal(params[k].grad, g)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("key, value", [
        ("stage", "finetune"), ("steps", -1), ("batch_size", 0), ("seed", -1),
        ("checkpoint_interval", -1), ("peak_lr", 0.0), ("peak_lr", float("nan")),
        ("peak_lr", float("inf")), ("warmup_frac", 1.5), ("lr_floor_frac", -0.1),
        ("resample_prob", float("nan")), ("flip_prob", 2.0), ("weight_decay", -5.0),
        ("weight_decay", float("inf")), ("clip_norm", -1.0), ("clip_norm", float("nan")),
        ("precision", "f16"),
    ])
    def test_bad_key_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("clip_norm", [0.0, float("inf")])
    def test_clip_norm_zero_and_inf_accepted(self, clip_norm):
        assert TrainConfig(clip_norm=clip_norm).clip_norm == clip_norm


class TestSchedule:
    def test_warmup_then_cosine_floor(self):
        cfg = TrainConfig(stage="pretrain", steps=1000, peak_lr=1e-2)
        warmup = int(0.03 * 1000)
        assert lr_at(0, cfg) == pytest.approx(1e-2 / warmup)
        assert lr_at(warmup - 1, cfg) == pytest.approx(1e-2)
        assert lr_at(999, cfg) == pytest.approx(1e-3, rel=1e-2)
        lrs = [lr_at(s, cfg) for s in range(warmup, 1000)]
        assert all(a >= b - 1e-15 for a, b in zip(lrs, lrs[1:]))


class TestTrainStep:
    def test_lr_zero_keeps_params(self, toy_manifest):
        from serialcast.dataloader import WindowSampler

        params = init_params(SMALL, seed=0, dtype=np.float64)
        before = {k: p.data.copy() for k, p in params.items()}
        tcfg = TrainConfig(stage="pretrain", steps=1, batch_size=2, precision="f64")
        batch = draw_batch(WindowSampler(toy_manifest), SMALL, tcfg, 0)
        res = train_step(params, batch, SMALL, tcfg, OptState.fresh(params), lr=0.0,
                         decayed=decayed_names(SMALL))
        assert math.isfinite(res.loss)
        for k in params:
            np.testing.assert_array_equal(params[k].data, before[k])

    def test_nonfinite_loss_skips_update(self, toy_manifest):
        from serialcast.dataloader import WindowSampler

        params = init_params(SMALL, seed=0, dtype=np.float64)
        params["head.w"].data[0, 0] = np.nan
        before = {k: p.data.copy() for k, p in params.items()}
        tcfg = TrainConfig(stage="pretrain", steps=1, batch_size=2, precision="f64")
        batch = draw_batch(WindowSampler(toy_manifest), SMALL, tcfg, 0)
        res = train_step(params, batch, SMALL, tcfg, OptState.fresh(params), lr=1e-3,
                         decayed=decayed_names(SMALL))
        assert res.skipped
        for k in params:
            np.testing.assert_array_equal(params[k].data, before[k])

    @staticmethod
    def _stepped(toy_manifest):
        """SMALL weights and moments after one real step, and the next batch."""
        from serialcast.dataloader import WindowSampler

        params = init_params(SMALL, seed=0, dtype=np.float64)
        tcfg = TrainConfig(stage="pretrain", steps=2, batch_size=2, precision="f64")
        sampler, opt = WindowSampler(toy_manifest), OptState.fresh(params)
        train_step(params, draw_batch(sampler, SMALL, tcfg, 0), SMALL, tcfg, opt, 1e-3,
                   decayed_names(SMALL))
        return params, opt, tcfg, draw_batch(sampler, SMALL, tcfg, 1)

    @staticmethod
    def _assert_skipped(res, params, opt, before):
        weights, m, v, step = before
        assert res.skipped and opt.step == step + 1
        for k in params:
            assert np.array_equal(params[k].data, weights[k], equal_nan=True), k
            assert np.array_equal(opt.m[k], m[k]) and np.array_equal(opt.v[k], v[k]), k

    @staticmethod
    def _snapshot(params, opt):
        return ({k: p.data.copy() for k, p in params.items()},
                {k: a.copy() for k, a in opt.m.items()},
                {k: a.copy() for k, a in opt.v.items()}, opt.step)

    def test_nan_weight_skips_step(self, toy_manifest):
        # a NaN weight reaches no per-layer check: the non-finite loss skips the
        # step, which still advances opt.step and leaves weights and moments
        params, opt, tcfg, batch = self._stepped(toy_manifest)
        params["block0.attn.wq"].data[1, 2] = np.nan
        before = self._snapshot(params, opt)
        res = train_step(params, batch, SMALL, tcfg, opt, 1e-3, decayed_names(SMALL))
        assert not math.isfinite(res.loss)
        self._assert_skipped(res, params, opt, before)

    def test_non_finite_grad_norm_skips_step(self, toy_manifest, monkeypatch):
        params, opt, tcfg, batch = self._stepped(toy_manifest)
        clip = trainer.clip_gradients

        def overflowing(params, max_norm):
            params["head.w"].grad[0, 0] = np.inf
            return clip(params, max_norm)

        monkeypatch.setattr(trainer, "clip_gradients", overflowing)
        before = self._snapshot(params, opt)
        res = train_step(params, batch, SMALL, tcfg, opt, 1e-3, decayed_names(SMALL))
        assert math.isfinite(res.loss) and res.grad_norm == np.inf
        self._assert_skipped(res, params, opt, before)

    def test_trajectory_deterministic(self, toy_manifest, tmp_path):
        tcfg = lambda sub: TrainConfig(stage="pretrain", steps=4, batch_size=2, seed=11,
                                       out_dir=str(tmp_path / sub))
        r1 = run_pretrain(SMALL, tcfg("a"), toy_manifest)
        r2 = run_pretrain(SMALL, tcfg("b"), toy_manifest)
        assert [h.loss for h in r1.history] == [h.loss for h in r2.history]
        for k in r1.params:
            np.testing.assert_array_equal(r1.params[k].data, r2.params[k].data)


def _write_forecast(root, version: int):
    inputs = root.parent / "in"
    if version == 0:
        save_checkpoint(init_params(SMALL, seed=9, dtype=np.float32), None, str(inputs / "m.sfck"))
        write_csv_series(str(inputs / "s.csv"), np.sin(np.arange(40.0) / 3))
    flags = [f"--{k.replace('_', '-')}={getattr(SMALL, k)}" for k in cli.MODEL_KEYS]
    args = cli.build_parser().parse_args(
        ["forecast", "--checkpoint", str(inputs / "m.sfck"), "--input", str(inputs / "s.csv"),
         "--horizon", str(4 + 4 * version), "--out", str(root / "f.csv"), *flags])
    args.fn(args)
    return root / "f.csv"


def _write_checkpoint(root, version: int):
    params = init_params(SMALL, seed=9 + version, dtype=np.float32)
    save_checkpoint(params, OptState.fresh(params) if version else None, str(root / "t.sfck"))
    return root / "t.sfck"


def _write_manifest(root, version: int):
    entry = ShardEntry("shard_00000.sfd", 0xC0FFEE + version, [100 + version, 7])
    ShardManifest([entry], str(root)).save(str(root / MANIFEST_NAME))
    return root / MANIFEST_NAME


def _write_shards(root, version: int):
    build_shards([np.arange(300.0 + 100 * version)], 1 << 20, str(root))
    return root / "shard_00000.sfd"


def _write_config(root, version: int):
    cli.save_config(str(root / "config.txt"), {"d_model": 16 + version, "peak_lr": 0.005})
    return root / "config.txt"


def _write_csv(root, version: int):
    write_csv_series(str(root / "s.csv"), np.arange(20.0) + version)
    return root / "s.csv"


# Each writes version 0 or 1 of one artifact under ``root`` and returns its
# path; version 1 is more than half the size of version 0.
WRITERS = {"checkpoint": _write_checkpoint, "manifest": _write_manifest, "shards": _write_shards,
           "config": _write_config, "forecast": _write_forecast, "csv": _write_csv}


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        params = init_params(SMALL, seed=3, dtype=np.float32)
        opt = OptState.fresh(params)
        opt.step = 17
        p1 = str(tmp_path / "a.sfck")
        p2 = str(tmp_path / "b.sfck")
        save_checkpoint(params, opt, p1)
        loaded, state = load_checkpoint(p1)
        save_checkpoint(loaded, state, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert state.step == 17

    def test_values_bit_exact(self, tmp_path):
        params = init_params(SMALL, seed=4, dtype=np.float64)
        path = str(tmp_path / "c.sfck")
        save_checkpoint(params, None, path)
        loaded, state = load_checkpoint(path)
        assert state is None
        assert set(loaded) == set(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k].data, params[k].data)
            assert loaded[k].data.dtype == params[k].data.dtype

    def test_truncated_file_structured_error(self, tmp_path):
        params = init_params(SMALL, seed=5, dtype=np.float32)
        path = str(tmp_path / "d.sfck")
        save_checkpoint(params, None, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "e.sfck")
        open(path, "wb").write(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_crc_trailer_is_last_four_bytes(self, tmp_path):
        params = init_params(SMALL, seed=8, dtype=np.float32)
        path = str(tmp_path / "h.sfck")
        save_checkpoint(params, None, path)
        blob = open(path, "rb").read()
        assert blob[-4:] == struct.pack("<I", zlib.crc32(blob[:-4]))
        loaded, state = load_checkpoint(path)
        assert state is None
        save_checkpoint(loaded, state, path + ".2")  # byte-identical without moments too
        assert open(path + ".2", "rb").read() == blob

    def test_version_1_refused(self, tmp_path):
        # the version-1 layout: an index of payload offsets, a payload length,
        # the payload, then a has-state byte, and no checksum
        w = np.arange(6, dtype="<f4").reshape(2, 3)
        v1 = (b"SFCK" + struct.pack("<II", 1, 1) + struct.pack("<H", 6) + b"head.w"
              + struct.pack("<BB2QQ", 1, 2, 2, 3, 0) + struct.pack("<Q", w.nbytes) + w.tobytes()
              + b"\x00")
        path = tmp_path / "v1.sfck"
        path.write_bytes(v1)
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(str(path))
        # a version-1 header on a checksummed file is refused by version alone
        save_checkpoint(init_params(SMALL, seed=8, dtype=np.float32), None, str(path))
        body = bytearray(path.read_bytes()[:-4])
        body[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match="unsupported version 1"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("artifact", sorted(WRITERS))
    def test_failed_write_keeps_previous_artifact(self, tmp_path, monkeypatch, artifact):
        root = tmp_path / "out"
        path = WRITERS[artifact](root, 0)
        before = open(path, "rb").read()
        files = {f.name: f.read_bytes() for f in root.iterdir()}
        real_open = open

        class TornFile:
            """Accepts half the previous artifact's bytes, then fails like a full disk."""

            def __init__(self, f):
                self.f, self.room = f, len(before) // 2

            def write(self, data):
                data = memoryview(data).cast("B")
                self.f.write(data[: self.room])
                self.room -= len(data)
                if self.room < 0:
                    raise OSError(errno.ENOSPC, "No space left on device")

            def __getattr__(self, name):
                return getattr(self.f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        def torn_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            return TornFile(f) if "w" in mode else f

        monkeypatch.setattr(dataloader, "open", torn_open, raising=False)
        with pytest.raises(OSError, match="No space"):
            WRITERS[artifact](root, 1)
        monkeypatch.undo()
        assert open(path, "rb").read() == before
        assert {f.name: f.read_bytes() for f in root.iterdir()} == files  # no temporary file

    def test_mismatched_config_lists_offender(self, tmp_path):
        params = init_params(SMALL, seed=6, dtype=np.float32)
        path = str(tmp_path / "f.sfck")
        save_checkpoint(params, None, path)
        loaded, _ = load_checkpoint(path)
        bigger = ModelConfig(d_model=16, patch_len=4, n_max=6, n_main_blocks=2,
                             n_serial_blocks=1, n_experts=2, top_k=1, n_heads=1, n_quantiles=3)
        with pytest.raises(CheckpointError, match="block1"):
            validate_params(loaded, bigger)

    def test_shape_mismatch_detected(self, tmp_path):
        params = init_params(SMALL, seed=7, dtype=np.float32)
        params["head.w"] = Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)
        path = str(tmp_path / "g.sfck")
        save_checkpoint(params, None, path)
        loaded, _ = load_checkpoint(path)
        with pytest.raises(CheckpointError, match="head.w"):
            validate_params(loaded, SMALL)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_named(self, tmp_path, bad):
        # every tensor of every family, one at a time, through a saved checkpoint
        params = init_params(SMALL, seed=8, dtype=np.float32)
        path = str(tmp_path / "bad.sfck")
        for name, p in params.items():
            flat = p.data.reshape(-1)
            kept, flat[-1] = flat[-1], bad
            save_checkpoint(params, None, path)
            flat[-1] = kept
            with pytest.raises(CheckpointError, match=f"^{re.escape(name)} holds"):
                validate_params(load_checkpoint(path)[0], SMALL)
        validate_params(params, SMALL)  # every value restored


class TestResume:
    def test_resume_reproduces_trajectory(self, toy_manifest, tmp_path):
        # interruption = same schedule stopped early: resume from the
        # step-stamped interval snapshot and land on identical parameters
        full = run_pretrain(SMALL, TrainConfig(stage="pretrain", steps=6, batch_size=2,
                                               seed=2, checkpoint_interval=3,
                                               out_dir=str(tmp_path / "full")),
                            toy_manifest)
        snapshot = str(tmp_path / "full" / "pretrain_step000003.sfck")
        assert os.path.exists(snapshot)
        resumed_cfg = TrainConfig(stage="pretrain", steps=6, batch_size=2, seed=2,
                                  out_dir=str(tmp_path / "resumed"))
        resumed = run_stage(SMALL, resumed_cfg, [(toy_manifest, 1.0)], resume_from=snapshot)
        assert resumed.opt.step == 6
        for k in full.params:
            np.testing.assert_array_equal(full.params[k].data, resumed.params[k].data)

    def test_resume_after_skipped_step_byte_identical(self, toy_manifest, tmp_path,
                                                      monkeypatch):
        # step 1's batch yields a NaN loss; the step-3 snapshot comes after it,
        # so a resume must start at step 3, not re-draw step 2's batch
        draw = trainer.draw_batch

        def poisoned(sampler, model_cfg, train_cfg, step):
            batch = draw(sampler, model_cfg, train_cfg, step)
            if step == 1:
                batch.patches[0, -1, 0] = np.nan  # a target value
            return batch

        monkeypatch.setattr(trainer, "draw_batch", poisoned)
        tcfg = lambda sub, **kw: TrainConfig(stage="pretrain", steps=5, batch_size=2, seed=4,
                                             out_dir=str(tmp_path / sub), **kw)
        full = run_pretrain(SMALL, tcfg("full", checkpoint_interval=3), toy_manifest)
        assert [h.skipped for h in full.history] == [False, True, False, False, False]
        snapshot = str(tmp_path / "full" / "pretrain_step000003.sfck")
        assert load_checkpoint(snapshot)[1].step == 3
        resumed = run_stage(SMALL, tcfg("resumed"), [(toy_manifest, 1.0)],
                            resume_from=snapshot)
        assert len(resumed.history) == 2
        with open(full.checkpoint_path, "rb") as a, open(resumed.checkpoint_path, "rb") as b:
            assert a.read() == b.read()

    def test_zero_steps_checkpoints_init(self, toy_manifest, tmp_path):
        tcfg = TrainConfig(stage="pretrain", steps=0, batch_size=2, seed=9,
                           out_dir=str(tmp_path / "zero"))
        result = run_pretrain(SMALL, tcfg, toy_manifest)
        loaded, _ = load_checkpoint(result.checkpoint_path)
        fresh = init_params(SMALL, seed=9, dtype=np.float32)
        for k in fresh:
            np.testing.assert_array_equal(loaded[k].data, fresh[k].data)


class TestRunArguments:
    def _run(self, stage, tmp_path, manifest, log_every=0, **train):
        ckpt = str(tmp_path / "f32.sfck")
        save_checkpoint(init_params(SMALL, seed=1, dtype=np.float32), None, ckpt)
        tcfg = TrainConfig(stage=stage, steps=2, batch_size=2, out_dir=str(tmp_path / "run"),
                           **train)
        source = "resume_from" if stage == "pretrain" else "start_from"
        return run_stage(SMALL, tcfg, [(manifest, 1.0)], log_every=log_every, **{source: ckpt})

    @pytest.mark.parametrize("stage", ["pretrain", "posttrain"])
    def test_negative_log_every_rejected_before_first_step(self, toy_manifest, tmp_path, stage):
        with pytest.raises(InputError, match="log_every must be >= 0"):
            self._run(stage, tmp_path, toy_manifest, log_every=-1)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("stage", ["pretrain", "posttrain"])
    def test_precision_unlike_checkpoint_rejected(self, toy_manifest, tmp_path, stage):
        # an f32 checkpoint would otherwise go on training in float32 under f64
        with pytest.raises(CheckpointError, match="precision=f64 .*float64.*float32"):
            self._run(stage, tmp_path, toy_manifest, precision="f64")
        assert not (tmp_path / "run").exists()


class TestExtendContext:
    def test_paper_scale_figures(self):
        cfg = ModelConfig(d_model=64, patch_len=16, n_max=180, n_serial_blocks=16)
        assert cfg.n_max * cfg.patch_len == 2880
        ext = replace(cfg, n_max=720)
        assert ext.n_max * ext.patch_len == 11520

    def test_short_inputs_bit_identical(self):
        params = init_params(SMALL, seed=1, dtype=np.float64)
        ext = replace(SMALL, n_max=SMALL.n_max * 2)
        series = np.sin(np.arange(SMALL.n_max * SMALL.patch_len) / 3.0)
        batch = make_batch([series], SMALL.patch_len, SMALL.n_max)
        out_a = model_forward(batch, params, SMALL, 1)
        out_b = model_forward(batch, params, ext, 1)
        for ha, hb in zip(out_a.embeddings, out_b.embeddings):
            np.testing.assert_array_equal(ha.data, hb.data)

    def test_extended_length_forward_and_causal(self):
        params = init_params(SMALL, seed=1, dtype=np.float64)
        ext = replace(SMALL, n_max=SMALL.n_max * 2)
        n_ext = ext.n_max
        series = np.sin(np.arange(n_ext * ext.patch_len) / 3.0)
        batch = make_batch([series], ext.patch_len, n_ext)
        trace = model_forward(batch, params, ext, 1)
        assert trace.depth_outputs[0].shape[1] == n_ext
        # perturb the last patch: everything before stays bit-identical
        batch2 = make_batch([series], ext.patch_len, n_ext)
        batch2.patches[0, -1, :] += 1.0
        trace2 = model_forward(batch2, params, ext, 1)
        np.testing.assert_array_equal(trace.depth_outputs[0].data[0, : n_ext - 1],
                                      trace2.depth_outputs[0].data[0, : n_ext - 1])


class TestGradientCheckSuite:
    def test_reference_config_all_pass(self):
        reports = gradient_check_suite(seed=0, coords_per_tensor=4)
        assert reports, "no families checked"
        failures = [r for r in reports if not r.passed]
        assert failures == [], f"failed: {[str(r) for r in failures]}"
        # every expert slice of every stacked family is its own entry
        cfg = REFERENCE_TINY
        names = {r.param_name for r in reports}
        blocks = [f"block{i}." for i in range(cfg.n_main_blocks)] + \
                 [f"serial{j}.block." for j in range(1, cfg.n_serial_blocks + 1)]
        for prefix in blocks:
            for fam in ("w1", "b1", "w2", "b2"):
                assert prefix + f"moe.{fam}" not in names
                for j in range(cfg.n_experts):
                    assert prefix + f"moe.{fam}[{j}]" in names
        assert len(reports) == 110

    def test_tau_gradient_nonzero(self):
        reports = gradient_check_suite(seed=0, coords_per_tensor=4)
        taus = [r for r in reports if "tau" in r.param_name]
        assert taus

        params = init_params(REFERENCE_TINY, seed=0, dtype=np.float64)
        from serialcast.trainer import zero_grads
        from serialcast.objectives import QuantileGrid, stage_loss
        from serialcast.tokenizer import make_supervised_batch

        rng = np.random.default_rng(1)
        n_total = REFERENCE_TINY.n_max + REFERENCE_TINY.n_serial_blocks + 1
        windows = rng.normal(size=(2, n_total * REFERENCE_TINY.patch_len)).cumsum(axis=1)
        batch = make_supervised_batch(windows, REFERENCE_TINY.n_max, REFERENCE_TINY.patch_len)
        zero_grads(params)
        trace = model_forward(batch, params, REFERENCE_TINY, REFERENCE_TINY.n_serial_blocks)
        total, _ = stage_loss("pretrain", trace, batch, params, REFERENCE_TINY,
                              QuantileGrid((0.1, 0.5, 0.9)))
        total.backward()
        assert np.any(params["block0.attn.tau_raw"].grad != 0.0)

    @pytest.mark.parametrize("variant", ["serial", "shift_token"])
    def test_right_padded_batch_passes(self, variant):
        # the rows with 2 and 1 real input patches of 4 route only those tokens
        # in every block, and their pads' expert outputs are written back as 0
        from serialcast.objectives import stage_loss
        from serialcast.tokenizer import make_supervised_batch
        from serialcast.trainer import zero_grads

        cfg = replace(REFERENCE_TINY, variant=variant)
        params = init_params(cfg, seed=0, dtype=np.float64)
        rng = np.random.default_rng(3)
        n_total = cfg.n_max + cfg.n_serial_blocks + 1
        windows = rng.normal(size=(3, n_total * cfg.patch_len)).cumsum(axis=1)
        batch = make_supervised_batch(windows, cfg.n_max, cfg.patch_len)
        for row, n_real in ((1, 2), (2, 1)):
            batch.patches[row, n_real:] = batch.masks[row, n_real:] = 0.0
        assert list(batch.last_token) == [3, 1, 0]
        depth = cfg.n_serial_blocks

        def loss() -> Tensor:
            trace = model_forward(batch, params, cfg, depth)
            assert trace.aux[0].counts.sum() == cfg.top_k * 7  # 4 + 2 + 1 real tokens
            return stage_loss("pretrain", trace, batch, params, cfg)[0]

        zero_grads(params)
        loss().backward()
        numeric = finite_diff_gradient(lambda _p: float(loss().data), params, 1e-5,
                                       coords_per_tensor=4, rng=np.random.default_rng(4))
        reports = compare_gradients({k: p.grad for k, p in params.items()}, numeric)
        assert [str(r) for r in reports if not r.passed] == []
        assert all(np.isfinite(p.grad).all() for p in params.values())

    def test_corrupted_backward_reported(self, monkeypatch):
        # harness sanity: a deliberately wrong backward must surface as a failure
        orig = ad.silu

        def corrupted(a):
            out = orig(a)
            if out._backward is not None:
                inner = out._backward

                def bad(node):
                    node.grad = node.grad * 1.05
                    inner(node)

                out._backward = bad
            return out

        monkeypatch.setattr("serialcast.backbone.ad.silu", corrupted)
        reports = gradient_check_suite(seed=0, coords_per_tensor=3)
        assert any(not r.passed for r in reports)


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
