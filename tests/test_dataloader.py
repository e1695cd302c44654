"""Shard round trips, sampler statistics, window reads, CSV interface."""

import io
import os
import re
import tracemalloc
import zlib

import numpy as np
import pytest

from serialcast import dataloader
from serialcast.dataloader import (MANIFEST_NAME, MixtureSampler, ShardManifest, WindowSampler,
                                   build_shards, load_shard, read_all_series, read_csv_series,
                                   write_csv_series)
from serialcast.errors import DataError, InputError, SamplerError

MIB = 1 << 20


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


@pytest.fixture(scope="module")
def ragged_corpus(tmp_path_factory):
    """Fifty series of 20-60k points, packed into at least five 1 MiB shards."""
    rng = np.random.default_rng(11)
    series = [rng.normal(size=n).astype(np.float32) for n in rng.integers(20, 60_000, 50)]
    manifest = make_manifest(tmp_path_factory.mktemp("ragged"), series)
    assert len(manifest.entries) >= 5
    return manifest


def twin_draw(sampler, flat, first, length, rng):
    """The draw ``sample_raw`` makes, with the same rng calls, sliced from
    ``read_all_series``; also returns the shard drawn."""
    per_shard, per_series = sampler.window_counts(length)
    shard_i = int(rng.choice(per_shard.size, p=per_shard / per_shard.sum()))
    counts = per_series[shard_i]
    values = flat[first[shard_i] + int(rng.choice(counts.size, p=counts / counts.sum()))]
    start = int(rng.integers(0, values.size - length + 1))
    return np.asarray(values[start : start + length], dtype=np.float64), shard_i


class TestWindowReads:
    LENGTHS = (1, 17, 296, 2000, 19_999)

    def test_draws_equal_slices_of_read_all_series(self, ragged_corpus):
        flat = read_all_series(ragged_corpus)
        first = np.cumsum([0] + [len(e.series_lengths) for e in ragged_corpus.entries])
        sampler = WindowSampler(ragged_corpus)
        rng, twin = np.random.default_rng(12), np.random.default_rng(12)
        drawn = set()
        for i in range(500):
            length = self.LENGTHS[i % len(self.LENGTHS)]
            got = sampler.sample_raw(length, rng)
            want, shard_i = twin_draw(sampler, flat, first, length, twin)
            drawn.add(shard_i)
            assert got.dtype == np.float64 and np.array_equal(got, want)
            assert sampler.queue.load_count == len(drawn) <= len(ragged_corpus.entries)
        assert rng.random() == twin.random()  # the same number of rng calls

    def test_memory_below_one_shard(self, ragged_corpus):
        sampler = WindowSampler(ragged_corpus)
        rng = np.random.default_rng(13)
        for length in self.LENGTHS:
            sampler.window_counts(length)  # cached once per sampler, not per draw
        tracemalloc.start()
        try:
            for i in range(500):
                sampler.sample_raw(self.LENGTHS[i % len(self.LENGTHS)], rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sampler.queue.load_count == len(ragged_corpus.entries)
        assert peak < MIB, peak


class TestChangedAfterCheck:
    @pytest.fixture
    def checked(self, tmp_path):
        """A sampler that has checked its one shard, and that shard's path."""
        manifest = make_manifest(tmp_path, [np.arange(1000, dtype=np.float32)])
        sampler = WindowSampler(manifest)
        sampler.sample_raw(100, np.random.default_rng(0))
        assert sampler.queue.load_count == 1
        return sampler, manifest.shard_path(0)

    def test_intact_shard_read_without_a_second_check(self, checked):
        sampler, _ = checked
        window = sampler.sample_raw(100, np.random.default_rng(1))
        assert np.array_equal(window, np.arange(window[0], window[0] + 100))
        assert sampler.queue.load_count == 1

    def test_truncated_shard_names_file(self, checked):
        sampler, path = checked
        os.truncate(path, os.path.getsize(path) - 4)
        with pytest.raises(DataError, match=f"^{re.escape(path)}: changed since its check"):
            sampler.sample_raw(100, np.random.default_rng(1))

    def test_same_size_rewrite_names_file(self, checked):
        sampler, path = checked
        mtime = os.stat(path).st_mtime_ns
        blob = bytearray(open(path, "rb").read())
        blob[0] ^= 0x01
        open(path, "wb").write(bytes(blob))
        os.utime(path, ns=(mtime, mtime + 10**9))
        with pytest.raises(DataError, match=f"^{re.escape(path)}: changed since its check"):
            sampler.sample_raw(100, np.random.default_rng(1))

    def test_short_read_names_file(self, checked, monkeypatch):
        sampler, path = checked
        pread = os.pread
        monkeypatch.setattr(os, "pread", lambda fd, n, at: pread(fd, n, at)[:-4])
        with pytest.raises(DataError, match=f"^{re.escape(path)}: read 396 of 400 bytes at byte "
                                            "[0-9]+: truncated shard"):
            sampler.sample_raw(100, np.random.default_rng(1))


class ShortReads(io.FileIO):
    """A file whose every read returns at most 7 bytes."""

    def readinto(self, b):
        return super().readinto(memoryview(b)[:7])


class TestNonFiniteValues:
    @pytest.mark.parametrize("bad, shown", [(1e39, "1e+39"), (-1e39, "-1e+39"), (np.inf, "inf"),
                                            (np.nan, "nan")])
    def test_build_rejects_value_not_finite_in_float32(self, tmp_path, bad, shown):
        # the second series spans two shards; the bad value is in its second
        # segment, followed by its negation
        series = [np.ones(10), np.ones(MIB // 4 + 100)]
        series[1][MIB // 4 + 7 : MIB // 4 + 9] = bad, -bad
        out = tmp_path / "data"
        with pytest.raises(InputError, match=re.escape(
                f"b.csv: value {shown} at index {MIB // 4 + 7} is not finite in float32")):
            build_shards(series, MIB, str(out), names=["a.csv", "b.csv"])
        assert not os.listdir(out)
        with pytest.raises(InputError, match="^series 1: value"):
            build_shards(series, MIB, str(out))

    @pytest.mark.parametrize("short_reads", [False, True])
    def test_check_rejects_stored_value_not_finite(self, tmp_path, unchecked_corpus, monkeypatch,
                                                   short_reads):
        # 20000 values span two 64 KiB check chunks; the infs are in the second
        values = np.arange(20000, dtype=np.float32)
        values[17000 : 17002] = np.inf, -np.inf
        root, shard = unchecked_corpus(values)
        manifest = ShardManifest.load(os.path.join(root, MANIFEST_NAME))
        finite = np.where(np.isfinite(values), values, 0.0).astype(np.float32)
        finite.tofile(tmp_path / "finite.sfd")
        if short_reads:  # the shard check is the only open call left
            monkeypatch.setattr(dataloader, "open", lambda path, mode, buffering: ShortReads(path),
                                raising=False)
        loaded = load_shard(str(tmp_path / "finite.sfd"), zlib.crc32(finite), [finite.size])
        np.testing.assert_array_equal(loaded[0], finite)
        message = f"^{re.escape(shard)}: value 17000 is not finite"
        with pytest.raises(DataError, match=message):
            read_all_series(manifest)
        with pytest.raises(DataError, match=message):
            WindowSampler(manifest).sample_raw(100, np.random.default_rng(0))


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
