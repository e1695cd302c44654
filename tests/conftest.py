import zlib

import numpy as np
import pytest

from serialcast.backbone import ModelConfig, init_params
from serialcast.dataloader import MANIFEST_NAME, VALUE_DTYPE, ShardEntry, ShardManifest
from serialcast.objectives import QuantileGrid
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
