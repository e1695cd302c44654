"""Boundary fuzzing: damaged checkpoints, damaged shard corpora and arbitrary
CSV text must fail as structured errors with the CLI's exit codes, never as a
traceback."""

import argparse
import contextlib
import io
import os
import shutil
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serialcast.backbone import ModelConfig, init_params
from serialcast.cli import MODEL_KEYS, TRAIN_KEYS, merge_config, run
from serialcast.dataloader import (MANIFEST_NAME, ShardEntry, ShardManifest, WindowSampler,
                                   build_shards, read_all_series, read_csv_series, save_config,
                                   write_csv_series)
from serialcast.errors import CheckpointError, DataError, InputError
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
        read_all_series(ShardManifest.load(str(damaged / MANIFEST_NAME)))
    with pytest.raises(DataError):  # the training path checks the shard on its first draw
        WindowSampler(ShardManifest.load(str(damaged / MANIFEST_NAME))).sample_raw(
            40, np.random.default_rng(0))
    code, err = _cli(["stats", "--manifest", str(damaged)])
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"runtime failure: {damaged}"), err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stats_on_huge_series_prints_finite_adf(tmp_path):
    # finite values near the top of float64 still give the unscaled statistic
    x = np.random.default_rng(0).normal(size=300).cumsum()
    for name, scale in (("series.csv", 1.0), ("huge.csv", 1e200)):
        write_csv_series(str(tmp_path / name), x * scale)
    outputs = []
    for name in ("series.csv", "huge.csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["stats", "--input", str(tmp_path / name)]) == 0
        outputs.append(out.getvalue())
    assert "inf" not in outputs[1]
    adf = [float(o.split("aggregate adf ")[1].split()[0]) for o in outputs]
    assert np.isfinite(adf[1]) and np.isclose(adf[1], adf[0], rtol=1e-12)


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


# -- what a writer writes, its reader reads back bit-exactly ------------------

_EDGE_FLOATS = [float("nan"), -float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
                2.2250738585072009e-308, 1e308, -1e308, 0.0, -0.0]
_any_float = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(), st.floats(width=32))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _fresh(tmp_path_factory, name: str) -> str:
    path = tmp_path_factory.getbasetemp() / name
    path.unlink(missing_ok=True)
    return str(path)


@given(st.one_of(st.lists(_any_float, max_size=12).map(np.array),
                 st.lists(st.floats(width=32), max_size=12).map(lambda v: np.array(v, np.float32))))
@FUZZ
def test_csv_reads_back_bit_exact(tmp_path_factory, values):
    path = _fresh(tmp_path_factory, "round_trip.csv")
    try:
        write_csv_series(path, values)
    except InputError:
        assert values.size == 0 or not np.isfinite(values).all()
        assert not os.path.exists(path) and not os.path.exists(path + ".tmp")
        return
    assert _bits(read_csv_series(path)) == _bits(values)


_lengths = st.lists(st.integers(0, 2**63), max_size=4)
# what build_shards writes, and entries that may hold what load rejects
_built_entry = st.builds(ShardEntry, st.from_regex(r"shard_[0-9]{5}\.sfd", fullmatch=True),
                         st.integers(0, 2**32 - 1), _lengths.filter(len))
_any_entry = st.builds(ShardEntry, st.one_of(st.sampled_from(["", "a b.sfd", "a\tb", "a\nb",
                                                              "x\u00a0y", "x\u2028"]),
                                             st.text(max_size=6)),
                       st.integers(-1, 2**32), _lengths)


def _loadable(entry: ShardEntry) -> bool:
    return (entry.path != "" and not any(c.isspace() for c in entry.path)
            and 0 <= entry.crc32 < 2**32 and len(entry.series_lengths) > 0)


@given(st.one_of(st.lists(_built_entry, max_size=4), st.lists(_any_entry, max_size=4)))
@FUZZ
def test_manifest_reads_back_bit_exact(tmp_path_factory, entries):
    path = _fresh(tmp_path_factory, MANIFEST_NAME)
    manifest = ShardManifest(entries, os.path.dirname(path))
    try:
        manifest.save(path)
    except InputError:
        assert not all(map(_loadable, entries))
        assert not os.path.exists(path) and not os.path.exists(path + ".tmp")
        return
    assert all(map(_loadable, entries))
    assert ShardManifest.load(path) == manifest


_CONFIG_KEYS = {**MODEL_KEYS, **TRAIN_KEYS}
_config_value = {float: _any_float, int: st.integers(-2**70, 2**70),
                 str: st.one_of(st.sampled_from(["serial", "f32", "serial # x", "a\nb", "a\rb",
                                                 " f64", "f64\t", "a=b", ""]),
                                st.text(max_size=6))}


def _restorable(v) -> bool:
    if isinstance(v, str):
        return v == v.strip() and not any(c in v for c in "#\r\n")
    return v == v


@given(st.fixed_dictionaries({k: _config_value[typ] for k, (typ, _) in _CONFIG_KEYS.items()}))
@FUZZ
def test_config_reads_back_bit_exact(tmp_path_factory, merged):
    path = _fresh(tmp_path_factory, "config.txt")
    try:
        save_config(path, merged)
    except InputError:
        assert not all(map(_restorable, merged.values()))
        assert not os.path.exists(path) and not os.path.exists(path + ".tmp")
        return
    back = merge_config(argparse.Namespace(), _CONFIG_KEYS, path)

    def same(a, b):
        return type(a) is type(b) and (a == b if not isinstance(a, float)
                                       else struct.pack("<d", a) == struct.pack("<d", b))

    assert back.keys() == merged.keys()
    assert all(same(back[k], merged[k]) for k in merged), (back, merged)
