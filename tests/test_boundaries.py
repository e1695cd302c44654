"""Boundary fuzzing: damaged checkpoints, damaged shard corpora and arbitrary
CSV text must fail as structured errors with the CLI's exit codes, never as a
traceback."""

import contextlib
import io
import shutil
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serialcast.backbone import ModelConfig, init_params
from serialcast.cli import run, save_config
from serialcast.dataloader import (MANIFEST_NAME, ShardManifest, WindowSampler, build_shards,
                                   load_shard)
from serialcast.errors import CheckpointError, DataError
from serialcast.trainer import OptState, load_checkpoint, save_checkpoint

TINY = ModelConfig(d_model=8, patch_len=2, n_max=2, n_main_blocks=1, n_serial_blocks=1,
                   n_experts=2, top_k=1, n_heads=1, n_quantiles=3)
FUZZ = settings(derandomize=True, max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A tiny model checkpoint with optimizer moments, its config and a series."""
    d = tmp_path_factory.mktemp("boundaries")
    params = init_params(TINY, seed=1, dtype=np.float32)
    state = OptState.fresh(params)
    state.step = 3
    save_checkpoint(params, state, str(d / "tiny.sfck"))
    save_config(str(d / "config.txt"), asdict(TINY))
    (d / "series.csv").write_text("value\n" + "".join(f"{np.sin(i / 3):.6f}\n" for i in range(24)))
    return d, (d / "tiny.sfck").read_bytes()


def _cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def _assert_rejected(d, blob: bytes):
    path = d / "damaged.sfck"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
    code, err = _cli(["forecast", "--checkpoint", str(path), "--config", str(d / "config.txt"),
                      "--input", str(d / "series.csv"), "--horizon", "4"])
    assert code == 2
    lines = [line for line in err.splitlines() if not line.startswith("[forecast]")]
    assert len(lines) == 1 and lines[0].startswith(f"runtime failure: {path}: "), err


def test_intact_checkpoint_forecasts(tiny_run):
    d, blob = tiny_run
    code, err = _cli(["forecast", "--checkpoint", str(d / "tiny.sfck"), "--config",
                      str(d / "config.txt"), "--input", str(d / "series.csv"), "--horizon", "4"])
    assert code == 0, err


@given(st.data())
@FUZZ
def test_flipped_byte_rejected(tiny_run, data):
    d, blob = tiny_run
    pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
    mask = data.draw(st.integers(1, 255), label="xor")
    damaged = bytearray(blob)
    damaged[pos] ^= mask
    _assert_rejected(d, bytes(damaged))


@given(st.data())
@FUZZ
def test_truncation_rejected(tiny_run, data):
    d, blob = tiny_run
    _assert_rejected(d, blob[: data.draw(st.integers(0, len(blob) - 1), label="length")])


_header = st.sampled_from(["value", "Value", " VALUE ", "value\r", "val", "", "value,x",
                           "\ufeffvalue", "1.0"])
_line = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", " ", "nan", "inf", "-inf", "abc", "1e400", "1,2", "0x10", "1_0"]),
    st.text(max_size=6),
)


_number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.floats(-1e3, 1e3).map(str), st.integers(-10**6, 10**6).map(str))
_body = st.one_of(st.lists(_line, max_size=40), st.lists(_number, max_size=60))


@given(_header, _body, st.binary(max_size=4), st.integers(0, 10**6))
@FUZZ
def test_random_csv_stats_exits_zero_or_one(tmp_path_factory, header, lines, junk, at):
    text = ("\n".join([header] + lines) + "\n").encode()
    at %= len(text) + 1
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(text[:at] + junk + text[at:])
    code, err = _cli(["stats", "--input", str(path)])
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error: "), err


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    """A one-shard corpus of three noisy series, and the intact bytes of its
    manifest and its shard."""
    d = tmp_path_factory.mktemp("corpus")
    rng = np.random.default_rng(2)
    build_shards([rng.normal(size=n).cumsum() for n in (60, 90, 45)], 1 << 20, str(d))
    return d, (d / MANIFEST_NAME).read_bytes(), (d / "shard_00000.sfd").read_bytes()


def _assert_corpus_rejected(d, manifest: bytes, shard: bytes):
    """Both blobs go into a fresh copy of the corpus, which must fail to load."""
    damaged = d.parent / f"{d.name}_damaged"
    shutil.rmtree(damaged, ignore_errors=True)
    damaged.mkdir()
    (damaged / MANIFEST_NAME).write_bytes(manifest)
    (damaged / "shard_00000.sfd").write_bytes(shard)
    with pytest.raises(DataError):
        loaded = ShardManifest.load(str(damaged / MANIFEST_NAME))
        entry = loaded.entries[0]
        load_shard(loaded.shard_path(0), entry.crc32, entry.series_lengths)
    with pytest.raises(DataError):  # the training path checks the shard on its first draw
        WindowSampler(ShardManifest.load(str(damaged / MANIFEST_NAME))).sample_raw(
            40, np.random.default_rng(0))
    code, err = _cli(["stats", "--manifest", str(damaged)])
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"runtime failure: {damaged}"), err


def test_intact_corpus_stats(tiny_corpus):
    d, _, _ = tiny_corpus
    code, err = _cli(["stats", "--manifest", str(d)])
    assert code == 0, err


@given(st.data())
@FUZZ
def test_flipped_manifest_byte_rejected(tiny_corpus, data):
    d, manifest, shard = tiny_corpus
    damaged = bytearray(manifest)
    damaged[data.draw(st.integers(0, len(manifest) - 1), label="pos")] ^= data.draw(
        st.integers(1, 255), label="xor")
    _assert_corpus_rejected(d, bytes(damaged), shard)


@given(st.data())
@FUZZ
def test_truncated_manifest_rejected(tiny_corpus, data):
    d, manifest, shard = tiny_corpus
    _assert_corpus_rejected(d, manifest[: data.draw(st.integers(0, len(manifest) - 1))], shard)


@given(st.data())
@FUZZ
def test_flipped_shard_byte_rejected(tiny_corpus, data):
    d, manifest, shard = tiny_corpus
    damaged = bytearray(shard)
    damaged[data.draw(st.integers(0, len(shard) - 1), label="pos")] ^= data.draw(
        st.integers(1, 255), label="xor")
    _assert_corpus_rejected(d, manifest, bytes(damaged))


@given(st.data())
@FUZZ
def test_truncated_shard_rejected(tiny_corpus, data):
    d, manifest, shard = tiny_corpus
    _assert_corpus_rejected(d, manifest, shard[: data.draw(st.integers(0, len(shard) - 1))])
