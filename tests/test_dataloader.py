"""Shard round trips, sampler statistics, queue residency, CSV interface."""

import os

import numpy as np
import pytest

from serialcast.dataloader import (MANIFEST_NAME, MixtureSampler, ShardManifest, ShardQueue,
                                   WindowSampler, build_shards, load_shard, read_all_series,
                                   read_csv_series, write_csv_series)
from serialcast.errors import DataError, InputError, SamplerError

MIB = 1 << 20


def resident_count(q: ShardQueue) -> int:
    return len(q._resident)


def resident_bytes(q: ShardQueue) -> int:
    return sum(q.manifest.entries[i].byte_len for i in q._resident)


def make_manifest(tmp_path, series, shard_bytes=MIB, sub="data"):
    return build_shards(series, shard_bytes, str(tmp_path / sub))


class TestBuildShards:
    def test_single_series_single_shard(self, tmp_path):
        x = np.random.default_rng(0).normal(size=1000).astype(np.float32)
        manifest = make_manifest(tmp_path, [x])
        assert len(manifest.entries) == 1
        assert manifest.total_points == 1000
        assert manifest.entries[0].series_count == 1

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        series = [rng.normal(size=n).astype(np.float32) for n in (100, 2500, 37)]
        manifest = make_manifest(tmp_path, series)
        out = read_all_series(manifest)
        assert len(out) == 3
        for (sid, got), want in zip(out, series):
            np.testing.assert_array_equal(got, want)

    def test_shard_count_arithmetic(self, tmp_path):
        # record = 16 + 4*100000 bytes; exactly two fit in a 1 MiB shard
        series = [np.zeros(100_000, dtype=np.float32) for _ in range(10)]
        manifest = make_manifest(tmp_path, series)
        assert len(manifest.entries) == 5
        assert all(e.series_count == 2 for e in manifest.entries)

    def test_empty_input_no_manifest(self, tmp_path):
        with pytest.raises(InputError):
            make_manifest(tmp_path, [])
        assert not os.path.exists(tmp_path / "data" / MANIFEST_NAME)

    def test_empty_series_rejected_with_cleanup(self, tmp_path):
        series = [np.ones(300_000, dtype=np.float32), np.array([], dtype=np.float32)]
        with pytest.raises(InputError):
            make_manifest(tmp_path, series)
        leftover = [f for f in os.listdir(tmp_path / "data") if f.endswith(".sfd")]
        assert leftover == []

    def test_min_shard_bytes_enforced(self, tmp_path):
        with pytest.raises(InputError):
            build_shards([np.ones(10)], 1024, str(tmp_path / "d"))

    def test_oversized_series_split(self, tmp_path):
        # one series larger than a shard: split into segments, flag recorded
        big = np.arange(600_000, dtype=np.float32)
        manifest = make_manifest(tmp_path, [big])
        assert sum(e.split_segments for e in manifest.entries) >= 2
        parts = [v for _sid, v in read_all_series(manifest)]
        np.testing.assert_array_equal(np.concatenate(parts), big)


class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        series = [np.random.default_rng(2).normal(size=500).astype(np.float32)]
        manifest = make_manifest(tmp_path, series)
        loaded = ShardManifest.load(str(tmp_path / "data" / MANIFEST_NAME))
        assert len(loaded.entries) == len(manifest.entries)
        for a, b in zip(loaded.entries, manifest.entries):
            assert (a.path, a.byte_len, a.series_count, a.points, a.crc32,
                    a.series_lengths) == (b.path, b.byte_len, b.series_count,
                                          b.points, b.crc32, b.series_lengths)

    @pytest.mark.parametrize("edit, line, message", [
        (("root_seed 0", "root_seed x"), 2, "malformed manifest line 'root_seed x'"),
        (("SFMANIFEST 1", "SFMANIFEST"), 1, "malformed manifest line 'SFMANIFEST'"),
        (("SFMANIFEST 1", "SFMANIFEST one"), 1, "malformed manifest line"),
        (("SFMANIFEST 1", "SFMANIFEST 7"), 1, "unsupported manifest version 7"),
        (("shard_count 1", "shard_count -1"), 3, "malformed manifest line"),
        (("shard_count 1", "shard_count 2"), 3, "shard_count 2, but 1 shard lines"),
        (("shard_count 1", "count 1"), 3, "malformed manifest line 'count 1'"),
        ((" 100\n", " 1x0\n"), 4, "malformed manifest line"),
        ((" 100\n", " 100,\n"), 4, "malformed manifest line"),
        ((" 100\n", "\n"), 4, "malformed manifest line"),
    ])
    def test_malformed_manifest_names_line(self, tmp_path, edit, line, message):
        make_manifest(tmp_path, [np.ones(100, dtype=np.float32)])
        path = tmp_path / "data" / MANIFEST_NAME
        blob = path.read_bytes()
        old, new = (x.encode() for x in edit)
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, new))
        with pytest.raises(DataError, match=f"{MANIFEST_NAME}: line {line}: {message}"):
            ShardManifest.load(str(path))

    def test_checksum_mismatch_rejected(self, tmp_path):
        manifest = make_manifest(tmp_path, [np.ones(100, dtype=np.float32)])
        shard_file = manifest.shard_path(0)
        blob = bytearray(open(shard_file, "rb").read())
        blob[-1] ^= 0xFF
        open(shard_file, "wb").write(bytes(blob))
        with pytest.raises(DataError, match="checksum"):
            load_shard(shard_file, manifest.entries[0].crc32)

    def test_truncated_record_detected(self, tmp_path):
        manifest = make_manifest(tmp_path, [np.ones(100, dtype=np.float32)])
        shard_file = manifest.shard_path(0)
        blob = open(shard_file, "rb").read()[:-8]
        open(shard_file, "wb").write(blob)
        with pytest.raises(DataError, match="truncated"):
            load_shard(shard_file)


class TestShardQueue:
    def _multi_shard_manifest(self, tmp_path, n_shards=4):
        series = [np.full(200_000, float(i), dtype=np.float32) for i in range(n_shards)]
        return make_manifest(tmp_path, series)

    def test_no_evictions_above_capacity(self, tmp_path):
        manifest = self._multi_shard_manifest(tmp_path, 3)
        q = ShardQueue(manifest, capacity=3)
        for i in (0, 1, 2, 0, 1, 2):
            q.get(i)
        assert q.load_count == 3 and resident_count(q) == 3

    def test_capacity_one_alternation_always_loads(self, tmp_path):
        manifest = self._multi_shard_manifest(tmp_path, 2)
        q = ShardQueue(manifest, capacity=1)
        for i in (0, 1, 0, 1):
            q.get(i)
        assert q.load_count == 4 and resident_count(q) == 1

    def test_resident_bytes_bounded(self, tmp_path):
        manifest = self._multi_shard_manifest(tmp_path, 4)
        q = ShardQueue(manifest, capacity=2)
        rng = np.random.default_rng(3)
        for _ in range(30):
            q.get(int(rng.integers(4)))
            assert resident_count(q) <= 2
            assert resident_bytes(q) <= 2 * MIB

    def test_lru_eviction_order(self, tmp_path):
        manifest = self._multi_shard_manifest(tmp_path, 3)
        q = ShardQueue(manifest, capacity=2)
        q.get(0)
        q.get(1)
        q.get(0)  # refresh 0; victim should now be 1
        q.get(2)
        assert set(q._resident) == {0, 2}


class TestWindowSampler:
    def test_exact_length_series_single_window(self, tmp_path):
        n, p, h = 4, 4, 1
        w = (n + h + 1) * p
        series = np.arange(w, dtype=np.float32)
        manifest = make_manifest(tmp_path, [series])
        sampler = WindowSampler(manifest)
        window = sampler.sample_raw(w, np.random.default_rng(0))
        np.testing.assert_array_equal(window, series.astype(np.float64))

    def test_deterministic_under_seed(self, tmp_path):
        series = [np.random.default_rng(4).normal(size=800).astype(np.float32)]
        manifest = make_manifest(tmp_path, series)
        first = WindowSampler(manifest).sample_raw(24, np.random.default_rng(9))
        again = WindowSampler(manifest).sample_raw(24, np.random.default_rng(9))
        np.testing.assert_array_equal(first, again)
        sampler = WindowSampler(manifest)
        rng_a, rng_b = np.random.default_rng(123), np.random.default_rng(123)
        seq_a = [sampler.sample_raw(32, rng_a) for _ in range(20)]
        seq_b = [sampler.sample_raw(32, rng_b) for _ in range(20)]
        for a, b in zip(seq_a, seq_b):
            np.testing.assert_array_equal(a, b)

    def test_two_window_uniformity(self, tmp_path):
        # series one point longer than the window: exactly 2 starts
        w = 64
        series = np.arange(w + 1, dtype=np.float32)
        manifest = make_manifest(tmp_path, [series])
        sampler = WindowSampler(manifest)
        rng = np.random.default_rng(42)
        n_draws = 100_000
        starts = np.array([sampler.sample_raw(w, rng)[0] for _ in range(n_draws)])
        frac0 = (starts == 0).mean()
        assert abs(frac0 - 0.5) < 0.01

    def test_never_crosses_series_boundary(self, tmp_path):
        a = np.full(100, 1.0, dtype=np.float32)
        b = np.full(100, 2.0, dtype=np.float32)
        manifest = make_manifest(tmp_path, [a, b])
        sampler = WindowSampler(manifest)
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = sampler.sample_raw(50, rng)
            assert np.all(w == w[0])

    def test_no_eligible_series(self, tmp_path):
        manifest = make_manifest(tmp_path, [np.ones(30, dtype=np.float32)])
        with pytest.raises(SamplerError):
            WindowSampler(manifest).sample_raw(31, np.random.default_rng(0))

    def test_long_series_weighted_more(self, tmp_path):
        short = np.full(40, 1.0, dtype=np.float32)  # 9 windows of 32
        long = np.full(130, 2.0, dtype=np.float32)  # 99 windows of 32
        manifest = make_manifest(tmp_path, [short, long])
        sampler = WindowSampler(manifest)
        rng = np.random.default_rng(6)
        hits_long = sum(sampler.sample_raw(32, rng)[0] == 2.0 for _ in range(4000))
        assert abs(hits_long / 4000 - 99 / 108) < 0.03


class TestMixtureSampler:
    def _two_sources(self, tmp_path):
        m1 = make_manifest(tmp_path, [np.full(500, 1.0, dtype=np.float32)], sub="s1")
        m2 = make_manifest(tmp_path, [np.full(500, 2.0, dtype=np.float32)], sub="s2")
        return WindowSampler(m1), WindowSampler(m2)  # all 1.0, all 2.0

    def test_degenerate_weight_all_from_first(self, tmp_path):
        s1, s2 = self._two_sources(tmp_path)
        mix = MixtureSampler([(s1, 1.0), (s2, 0.0)])
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert mix.sample_raw(16, rng)[0] == 1.0

    def test_equal_weights_within_two_percent(self, tmp_path):
        s1, s2 = self._two_sources(tmp_path)
        mix = MixtureSampler([(s1, 1.0), (s2, 1.0)])
        rng = np.random.default_rng(8)
        n = 10_000
        hits = sum(mix.sample_raw(16, rng)[0] == 1.0 for _ in range(n))
        assert abs(hits / n - 0.5) < 0.02

    def test_single_source_reduces_to_sampler(self, tmp_path):
        s1, _ = self._two_sources(tmp_path)
        mix = MixtureSampler([(s1, 2.5)])
        window = mix.sample_raw(24, np.random.default_rng(9))
        assert window.size == 24 and np.all(window == 1.0)

    def test_weight_validation(self, tmp_path):
        s1, s2 = self._two_sources(tmp_path)
        with pytest.raises(InputError):
            MixtureSampler([(s1, 0.0), (s2, 0.0)])
        with pytest.raises(InputError):
            MixtureSampler([(s1, -1.0), (s2, 1.0)])
        for bad in (float("nan"), float("inf")):  # would make the draw probabilities nan
            with pytest.raises(InputError, match="finite"):
                MixtureSampler([(s1, bad), (s2, 1.0)])
        with pytest.raises(InputError):
            MixtureSampler([])


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "series.csv")
        x = np.array([1.5, -2.25, 3.0])
        write_csv_series(path, x)
        np.testing.assert_array_equal(read_csv_series(path), x)

    def test_header_required(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as f:
            f.write("1.0\n2.0\n")
        with pytest.raises(InputError, match="header"):
            read_csv_series(path)

    def test_empty_rejected(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        with open(path, "w") as f:
            f.write("value\n")
        with pytest.raises(InputError, match="no values"):
            read_csv_series(path)
