"""Shard round trips, sampler statistics, queue residency, CSV interface."""

import os
import re
import zlib

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
    return sum(v.nbytes for i in q._resident for v in q._resident[i])


def make_manifest(tmp_path, series, shard_bytes=MIB, sub="data"):
    return build_shards(series, shard_bytes, str(tmp_path / sub))


class TestBuildShards:
    def test_single_series_single_shard(self, tmp_path):
        x = np.random.default_rng(0).normal(size=1000).astype(np.float32)
        manifest = make_manifest(tmp_path, [x])
        assert len(manifest.entries) == 1
        assert manifest.total_points == 1000
        assert manifest.entries[0].series_lengths == [1000]

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        series = [rng.normal(size=n).astype(np.float32) for n in (100, 2500, 37)]
        manifest = make_manifest(tmp_path, series)
        out = read_all_series(manifest)
        assert len(out) == 3
        for got, want in zip(out, series):
            np.testing.assert_array_equal(got, want)

    def test_shard_count_arithmetic(self, tmp_path):
        # a series is 4*100000 bytes; exactly two fit in a 1 MiB shard
        series = [np.zeros(100_000, dtype=np.float32) for _ in range(10)]
        manifest = make_manifest(tmp_path, series)
        assert len(manifest.entries) == 5
        assert all(e.series_lengths == [100_000, 100_000] for e in manifest.entries)
        assert all(os.path.getsize(manifest.shard_path(i)) == 800_000 for i in range(5))

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
        # one series larger than a shard: split into shard-sized segments
        big = np.arange(600_000, dtype=np.float32)
        manifest = make_manifest(tmp_path, [big])
        assert [e.series_lengths for e in manifest.entries] == [[MIB // 4], [MIB // 4],
                                                                  [600_000 - MIB // 2]]
        parts = read_all_series(manifest)
        np.testing.assert_array_equal(np.concatenate(parts), big)


def reseal(path):
    """Rewrite a manifest's closing crc32 line to cover its edited body."""
    blob = path.read_bytes()
    body = blob[: blob.rfind(b"\n", 0, -1) + 1]
    path.write_bytes(body + b"crc32 %08x\n" % zlib.crc32(body))


class TestManifest:
    def test_v2_layout(self, tmp_path):
        series = [np.arange(100, dtype=np.float32), np.linspace(-1, 1, 150)]
        manifest = make_manifest(tmp_path, series)
        shard = open(manifest.shard_path(0), "rb").read()
        assert shard == np.concatenate(series).astype("<f4").tobytes()
        body = f"SFMANIFEST 2\nshard_00000.sfd {zlib.crc32(shard):08x} 100,150\n".encode()
        blob = (tmp_path / "data" / MANIFEST_NAME).read_bytes()
        assert blob == body + b"crc32 %08x\n" % zlib.crc32(body)
        assert manifest.total_points == 250

    def test_save_load_round_trip(self, tmp_path):
        series = [np.random.default_rng(2).normal(size=500).astype(np.float32)]
        manifest = make_manifest(tmp_path, series)
        loaded = ShardManifest.load(str(tmp_path / "data" / MANIFEST_NAME))
        assert loaded.entries == manifest.entries

    @pytest.mark.parametrize("edit, line, message", [
        ((r" 200000$", " 2x0000"), 2, "malformed manifest line"),
        ((r" 2$", ""), 1, "malformed manifest line 'SFMANIFEST'"),
        ((r"2$", "one"), 1, "malformed manifest line"),
        ((r"2$", "7"), 1, "unsupported manifest version 7"),
        ((r" [0-9a-f]{8} ", " XYZ "), 3, "malformed manifest line"),
        ((r"200000$", "200000,"), 3, "malformed manifest line"),
        ((r" 200000$", " "), 3, "malformed manifest line"),
        ((r"^crc32", "crc"), 4, "malformed manifest line 'crc "),
        ((r"[0-9a-f]{8}$", "1234"), 4, "malformed manifest line 'crc32 1234'"),
        ((r".*", ""), 4, "malformed manifest line ''"),
    ])
    def test_malformed_manifest_names_line(self, tmp_path, edit, line, message):
        # two shards: version line, two shard lines, the crc32 line
        make_manifest(tmp_path, [np.ones(200_000, dtype=np.float32)] * 2)
        path = tmp_path / "data" / MANIFEST_NAME
        lines = path.read_text().split("\n")
        assert len(lines) == 5
        lines[line - 1] = re.sub(edit[0], edit[1], lines[line - 1], count=1)
        path.write_text("\n".join(lines))
        if line < 4:
            reseal(path)  # so the line itself, not the checksum, is what fails
        with pytest.raises(DataError, match=f"{MANIFEST_NAME}: line {line}: {message}"):
            ShardManifest.load(str(path))

    def test_version_1_refused_with_rebuild_hint(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_bytes(b"SFMANIFEST 1\nroot_seed 0\nshard_count 0\nFOOTER\n")
        with pytest.raises(DataError, match="line 1: unsupported manifest version 1, .*"
                                            "rebuild the corpus with `serialcast shard`"):
            ShardManifest.load(str(path))

    def test_edited_length_rejected(self, tmp_path):
        # the lengths live only in the manifest, so an edit must not pass unseen
        make_manifest(tmp_path, [np.ones(100, dtype=np.float32), np.ones(150, dtype=np.float32)])
        path = tmp_path / "data" / MANIFEST_NAME
        path.write_bytes(path.read_bytes().replace(b" 100,150\n", b" 900,150\n"))
        with pytest.raises(DataError, match="checksum mismatch"):
            ShardManifest.load(str(path))
        reseal(path)  # a consistent manifest that does not match its shard
        manifest = ShardManifest.load(str(path))
        with pytest.raises(DataError, match="shard_00000.sfd: 1000 bytes, but the manifest's "
                                            "lengths need 4200"):
            read_all_series(manifest)
        with pytest.raises(DataError, match="mismatched manifest"):
            WindowSampler(manifest).sample_raw(40, np.random.default_rng(0))

    def test_every_flipped_byte_rejected(self, tmp_path):
        make_manifest(tmp_path, [np.ones(100, dtype=np.float32), np.ones(150, dtype=np.float32)])
        path = tmp_path / "data" / MANIFEST_NAME
        blob = path.read_bytes()
        for pos in range(len(blob)):
            for mask in (0x01, 0x20, 0xFF):
                damaged = bytearray(blob)
                damaged[pos] ^= mask
                path.write_bytes(bytes(damaged))
                with pytest.raises(DataError):
                    ShardManifest.load(str(path))

    def test_checksum_mismatch_rejected(self, tmp_path):
        manifest = make_manifest(tmp_path, [np.ones(100, dtype=np.float32)])
        shard_file = manifest.shard_path(0)
        blob = bytearray(open(shard_file, "rb").read())
        blob[-1] ^= 0xFF
        open(shard_file, "wb").write(bytes(blob))
        with pytest.raises(DataError, match="checksum"):
            load_shard(shard_file, manifest.entries[0].crc32, [100])

    def test_truncated_record_detected(self, tmp_path):
        manifest = make_manifest(tmp_path, [np.ones(100, dtype=np.float32)])
        shard_file = manifest.shard_path(0)
        blob = open(shard_file, "rb").read()[:-8]
        open(shard_file, "wb").write(blob)
        with pytest.raises(DataError, match="truncated"):
            load_shard(shard_file, manifest.entries[0].crc32, [100])


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

    def test_window_counts_match_loop_reference(self, tmp_path):
        # counts come from the manifest lengths, summed in float64; the integer
        # loop they replaced is the reference and must agree exactly
        sizes = np.random.default_rng(8).integers(1, 120_000, 12)
        manifest = make_manifest(tmp_path, [np.zeros(n, dtype=np.float32) for n in sizes])
        assert len(manifest.entries) > 1
        sampler = WindowSampler(manifest)
        for length in (1, 32, 5_000, 119_999):
            per_shard, per_series = sampler.window_counts(length)
            for i, e in enumerate(manifest.entries):
                ref = [max(0, n - length + 1) for n in e.series_lengths]
                assert per_series[i].tolist() == ref
                assert per_shard[i] == sum(ref)

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
