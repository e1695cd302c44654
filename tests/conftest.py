import struct
import zlib

import numpy as np
import pytest

from serialcast.backbone import ModelConfig, init_params
from serialcast.dataloader import MANIFEST_NAME, VALUE_DTYPE, ShardEntry, ShardManifest
from serialcast.objectives import QuantileGrid
from serialcast.trainer import load_checkpoint
from serialcast.tokenizer import make_supervised_batch

TINY = dict(d_model=16, patch_len=4, n_max=4, n_main_blocks=2, n_serial_blocks=2,
            n_experts=4, top_k=2, n_heads=1, n_quantiles=3)


@pytest.fixture
def tiny_cfg():
    return ModelConfig(**TINY)


@pytest.fixture
def tiny_params(tiny_cfg):
    return init_params(tiny_cfg, seed=1, dtype=np.float64)


@pytest.fixture
def tiny_grid(tiny_cfg):
    return QuantileGrid(tuple(np.linspace(0.1, 0.9, tiny_cfg.n_quantiles).round(6)))


@pytest.fixture
def tiny_batch(tiny_cfg):
    rng = np.random.default_rng(7)
    n_total = tiny_cfg.n_max + tiny_cfg.n_serial_blocks + 1
    windows = rng.normal(size=(2, n_total * tiny_cfg.patch_len)).cumsum(axis=1)
    return make_supervised_batch(windows, tiny_cfg.n_max, tiny_cfg.patch_len)


@pytest.fixture
def unchecked_corpus(tmp_path):
    """Writes ``values`` as the one shard of a corpus with a valid manifest and
    no check of the values, as a writer that does not check them would;
    returns the corpus directory and the shard path."""
    def write(values):
        out = tmp_path / "unchecked"
        out.mkdir()
        data = np.asarray(values, dtype=VALUE_DTYPE)
        (out / "shard_00000.sfd").write_bytes(data.tobytes())
        ShardManifest([ShardEntry("shard_00000.sfd", zlib.crc32(data), [data.size])],
                      str(out)).save(str(out / MANIFEST_NAME))
        return str(out), str(out / "shard_00000.sfd")
    return write


def _first_moment_last(weights, m, v):
    first = next(iter(m))
    m[first] = m.pop(first)


# each a change to a checkpoint's (weights, m, v) that its writer would refuse
UNWRITTEN_LAYOUTS = {
    "missing_moment": lambda weights, m, v: v.pop("head.b"),
    "misshaped_moment": lambda weights, m, v: m.update({"head.w": m["head.w"][:, :1]}),
    "reordered_moments": _first_moment_last,
    "mixed_dtypes": lambda weights, m, v: weights.update(
        {"head.w": weights["head.w"].astype(np.float64)}),
}


@pytest.fixture
def unwritten_checkpoint():
    """Copies checkpoint ``src`` to ``dst`` with the named change of
    ``UNWRITTEN_LAYOUTS`` made, or with ``tensor``'s first value made nan, laid
    out and checksummed as the format says, as a writer that does not check its
    layout would; returns the changed (weights, m, v)."""
    def write(src, dst, change, tensor=None):
        params, state = load_checkpoint(src)
        weights, m, v = {k: p.data for k, p in params.items()}, dict(state.m), dict(state.v)
        if change == "nan":
            prefix, name = tensor.split(".", 1)
            {"m": m, "v": v}[prefix][name].reshape(-1)[0] = np.nan
        else:
            UNWRITTEN_LAYOUTS[change](weights, m, v)
        body = struct.pack("<4sIQI", b"SFCK", 2, state.step, len(weights))
        for name, a in [*weights.items(), *(("m." + k, a) for k, a in m.items()),
                        *(("v." + k, a) for k, a in v.items())]:
            nb = name.encode()
            body += struct.pack(f"<H{len(nb)}sBB{a.ndim}Q", len(nb), nb,
                                {np.float64: 0, np.float32: 1}[a.dtype.type], a.ndim, *a.shape)
            body += np.ascontiguousarray(a, a.dtype.newbyteorder("<")).tobytes()
        with open(dst, "wb") as f:
            f.write(body + struct.pack("<I", zlib.crc32(body)))
        return weights, m, v
    return write
