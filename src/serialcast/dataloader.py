"""Shard-based series storage and the hybrid memory-disk window sampler.

Shard format (little-endian throughout): a shard file is a sequence of
records, each ``series_id: u64, length: u64`` followed by ``length`` float32
values. A series never crosses a shard boundary; series too large for one
shard are split into independent segments (the low 16 bits of the id carry
the segment index, the manifest records how many splits happened).

The manifest is a text index (one line per shard with path, byte size,
series count, point total, split count, and the per-series lengths) followed
by a binary footer holding one CRC32 per shard. Checksums are verified every
time a shard is loaded.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InputError, SamplerError

MANIFEST_MAGIC = "SFMANIFEST"
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.sfm"
RECORD_HEADER = struct.Struct("<QQ")
MIN_SHARD_BYTES = 1 << 20
DEFAULT_SHARD_BYTES = 4 << 20
SEGMENT_BITS = 16  # low bits of the series id index split segments

DATA_DIR_ENV = "SF_DATA_DIR"


@dataclass
class ShardEntry:
    path: str  # relative to the manifest directory
    byte_len: int
    series_count: int
    points: int
    split_segments: int
    crc32: int
    series_lengths: list[int] = field(default_factory=list)


@dataclass
class ShardManifest:
    entries: list[ShardEntry]
    version: int = MANIFEST_VERSION
    root_seed: int = 0
    root_dir: str = "."

    @property
    def total_points(self) -> int:
        return sum(e.points for e in self.entries)

    def shard_path(self, i: int) -> str:
        return os.path.join(self.root_dir, self.entries[i].path)

    def save(self, path: str):
        lines = [f"{MANIFEST_MAGIC} {self.version}", f"root_seed {self.root_seed}",
                 f"shard_count {len(self.entries)}"]
        for e in self.entries:
            lens = ",".join(str(n) for n in e.series_lengths)
            lines.append(f"shard {e.path} {e.byte_len} {e.series_count} {e.points} {e.split_segments} {lens}")
        lines.append("FOOTER")
        with open(path, "wb") as f:
            f.write(("\n".join(lines) + "\n").encode())
            for e in self.entries:
                f.write(struct.pack("<I", e.crc32))

    @classmethod
    def load(cls, path: str) -> "ShardManifest":
        with open(path, "rb") as f:
            blob = f.read()
        marker = b"FOOTER\n"
        cut = blob.find(marker)
        if cut < 0:
            raise DataError(f"{path}: missing manifest footer")
        lines = blob[:cut].decode().splitlines()
        footer = blob[cut + len(marker):]
        head = lines[0].split()
        if head[0] != MANIFEST_MAGIC:
            raise DataError(f"{path}: not a shard manifest")
        version = int(head[1])
        root_seed = int(lines[1].split()[1])
        count = int(lines[2].split()[1])
        entries = []
        for line in lines[3 : 3 + count]:
            _, rel, byte_len, series_count, points, splits, lens = line.split(" ", 6)
            series_lengths = [int(x) for x in lens.split(",") if x]
            entries.append(ShardEntry(rel, int(byte_len), int(series_count), int(points),
                                      int(splits), 0, series_lengths))
        if len(footer) < 4 * count:
            raise DataError(f"{path}: truncated checksum footer")
        for i, e in enumerate(entries):
            e.crc32 = struct.unpack_from("<I", footer, 4 * i)[0]
        return cls(entries, version, root_seed, os.path.dirname(path) or ".")


def _series_record(series_id: int, values: np.ndarray) -> bytes:
    v = np.ascontiguousarray(values, dtype="<f4")
    return RECORD_HEADER.pack(series_id, v.size) + v.tobytes()


def build_shards(series_iter, shard_bytes: int = DEFAULT_SHARD_BYTES, out_dir: str = ".",
                 root_seed: int = 0) -> ShardManifest:
    """Serialize series into shards of at most ``shard_bytes`` each.

    Values are stored as float32. On any I/O failure, files written so far
    are removed before the error propagates.
    """
    if shard_bytes < MIN_SHARD_BYTES:
        raise InputError(f"shard_bytes must be >= {MIN_SHARD_BYTES}")
    os.makedirs(out_dir, exist_ok=True)
    max_seg_points = (shard_bytes - RECORD_HEADER.size) // 4
    written: list[str] = []
    entries: list[ShardEntry] = []
    buf = io.BytesIO()
    buf_series: list[int] = []
    buf_splits = 0

    def flush():
        nonlocal buf, buf_series, buf_splits
        if not buf_series:
            return
        data = buf.getvalue()
        rel = f"shard_{len(entries):05d}.sfd"
        full = os.path.join(out_dir, rel)
        with open(full, "wb") as f:
            f.write(data)
        written.append(full)
        entries.append(ShardEntry(rel, len(data), len(buf_series), sum(buf_series),
                                  buf_splits, zlib.crc32(data), list(buf_series)))
        buf, buf_series, buf_splits = io.BytesIO(), [], 0

    try:
        any_series = False
        for idx, series in enumerate(series_iter):
            values = np.asarray(series.values if hasattr(series, "values") else series)
            if values.size == 0:
                raise InputError(f"series {idx} is empty")
            any_series = True
            n_segments = -(-values.size // max_seg_points)
            if n_segments >= 1 << SEGMENT_BITS:
                raise InputError(f"series {idx} too large even for splitting")
            for seg in range(n_segments):
                chunk = values[seg * max_seg_points : (seg + 1) * max_seg_points]
                record = _series_record((idx << SEGMENT_BITS) | seg, chunk)
                if buf.tell() + len(record) > shard_bytes and buf_series:
                    flush()
                buf.write(record)
                buf_series.append(chunk.size)
                if n_segments > 1:
                    buf_splits += 1
        if not any_series:
            raise InputError("build_shards: empty input")
        flush()
        manifest = ShardManifest(entries, MANIFEST_VERSION, root_seed, out_dir)
        manifest.save(os.path.join(out_dir, MANIFEST_NAME))
        return manifest
    except BaseException:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise


def load_shard(path: str, expected_crc: int | None = None) -> list[tuple[int, np.ndarray]]:
    """Decode one shard into (series_id, float32 values) pairs, verifying CRC."""
    with open(path, "rb") as f:
        blob = f.read()
    if expected_crc is not None and zlib.crc32(blob) != expected_crc:
        raise DataError(f"{path}: checksum mismatch, shard rejected")
    out = []
    off = 0
    while off < len(blob):
        if off + RECORD_HEADER.size > len(blob):
            raise DataError(f"{path}: truncated record header at byte {off}")
        sid, length = RECORD_HEADER.unpack_from(blob, off)
        off += RECORD_HEADER.size
        end = off + 4 * length
        if end > len(blob):
            raise DataError(f"{path}: truncated record payload at byte {off}")
        out.append((sid, np.frombuffer(blob[off:end], dtype="<f4").copy()))
        off = end
    return out


def read_all_series(manifest: ShardManifest) -> list[tuple[int, np.ndarray]]:
    """Sequential read of every series in shard order (round-trip check path)."""
    out = []
    for i, e in enumerate(manifest.entries):
        out.extend(load_shard(manifest.shard_path(i), e.crc32))
    return out


class ShardQueue:
    """At most ``capacity`` shards resident; least-recently-sampled eviction."""

    def __init__(self, manifest: ShardManifest, capacity: int = 4):
        if capacity < 1:
            raise InputError("queue capacity must be >= 1")
        self.manifest = manifest
        self.capacity = capacity
        self._resident: dict[int, list[tuple[int, np.ndarray]]] = {}
        self._order: list[int] = []  # least recent first
        self.load_count = 0

    def get(self, shard_index: int) -> list[tuple[int, np.ndarray]]:
        if shard_index in self._resident:
            self._order.remove(shard_index)
            self._order.append(shard_index)
            return self._resident[shard_index]
        while len(self._resident) >= self.capacity:
            victim = self._order.pop(0)
            del self._resident[victim]
        entry = self.manifest.entries[shard_index]
        data = load_shard(self.manifest.shard_path(shard_index), entry.crc32)
        self._resident[shard_index] = data
        self._order.append(shard_index)
        self.load_count += 1
        return data


class WindowSampler:
    """Uniform sampling over eligible windows, shard-weighted by window count.

    A window of ``length`` points is eligible wherever it fits inside a
    single series (or split segment); long series therefore contribute
    proportionally more windows. Deterministic under a fixed rng.
    """

    def __init__(self, manifest: ShardManifest, queue_capacity: int = 4):
        self.manifest = manifest
        self.queue = ShardQueue(manifest, queue_capacity)
        self._eligible: dict[int, np.ndarray] = {}

    def eligible_counts(self, length: int) -> np.ndarray:
        """Windows of ``length`` points per shard; cached, the manifest is fixed."""
        if length not in self._eligible:
            counts = np.array(
                [sum(max(0, n - length + 1) for n in e.series_lengths) for e in self.manifest.entries],
                dtype=np.float64,
            )
            counts.flags.writeable = False  # shared by every later call
            self._eligible[length] = counts
        return self._eligible[length]

    def sample_raw(self, length: int, rng: np.random.Generator) -> np.ndarray:
        counts = self.eligible_counts(length)
        total = counts.sum()
        if total <= 0:
            raise SamplerError(f"no series can host a {length}-point window")
        shard_i = int(rng.choice(counts.size, p=counts / total))
        series = self.queue.get(shard_i)
        per_series = np.array([max(0, v.size - length + 1) for _, v in series], dtype=np.float64)
        series_i = int(rng.choice(per_series.size, p=per_series / per_series.sum()))
        values = series[series_i][1]
        start = int(rng.integers(0, values.size - length + 1))
        return np.asarray(values[start : start + length], dtype=np.float64)


class MixtureSampler:
    """Draws each sample from one source, chosen with probability ~ weight."""

    def __init__(self, sources: list[tuple[WindowSampler, float]]):
        if not sources:
            raise InputError("mixture needs at least one source")
        weights = np.array([w for _, w in sources], dtype=np.float64)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise InputError("mixture weights must be >= 0 and not all zero")
        self.samplers = [s for s, _ in sources]
        self.probs = weights / weights.sum()

    def sample_raw(self, length: int, rng: np.random.Generator) -> np.ndarray:
        i = int(rng.choice(len(self.samplers), p=self.probs))
        return self.samplers[i].sample_raw(length, rng)


def read_csv_series(path: str) -> np.ndarray:
    """One series per file: a `value` header then one finite float per line.

    Bytes that are not UTF-8 read as U+FFFD, so they fail as a bad header or
    a line that is not a number, naming the file and the line."""
    with open(path, encoding="utf-8", errors="replace") as f:
        header = f.readline().strip().lower()
        if header != "value":
            raise InputError(f"{path}: expected a 'value' header, got {header!r}")
        values = []
        for lineno, line in enumerate(f, 2):  # line 1 is the header
            if line.strip():
                try:
                    values.append(float(line))
                except ValueError:
                    raise InputError(f"{path}: line {lineno}: not a number: "
                                     f"{line.strip()!r}") from None
    if not values:
        raise InputError(f"{path}: no values")
    x = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise InputError(f"{path}: non-finite value {x[bad[0]]} at index {bad[0]}")
    return x


def write_csv_series(path: str, values):
    with open(path, "w") as f:
        f.write("value\n")
        for v in np.asarray(values).reshape(-1):
            f.write(f"{v}\n")


def default_data_dir() -> str:
    return os.environ.get(DATA_DIR_ENV, os.path.join(".", "data"))
