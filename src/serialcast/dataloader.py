"""Shard-based series storage and the hybrid memory-disk window sampler.

Data format version 2. A shard file holds only the little-endian float32
values of its series segments, back to back. A series never crosses a shard
boundary: one longer than a shard is cut into segments, stored and sampled
as independent series.

The manifest ``manifest.sfm`` is plain text and the only place series
lengths are stored::

    SFMANIFEST 2
    <shard path> <shard CRC32, 8 hex digits> <length>,<length>,...
    ...
    crc32 <CRC32 of every byte before this line, 8 hex digits>

Loading the manifest checks its version, then its CRC; loading a shard checks
that its size is 4 x the sum of its lengths, then its CRC. Any mismatch is a
``DataError`` that names the file. A version-1 corpus must be rebuilt.
"""

from __future__ import annotations

import os
import re
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InputError, SamplerError

MANIFEST_MAGIC = "SFMANIFEST"
MANIFEST_VERSION = 2
MANIFEST_NAME = "manifest.sfm"
MIN_SHARD_BYTES = 1 << 20
DEFAULT_SHARD_BYTES = 4 << 20
VALUE_DTYPE = np.dtype("<f4")

DATA_DIR_ENV = "SF_DATA_DIR"

_VERSION_LINE = re.compile(rf"{MANIFEST_MAGIC} ([0-9]+)")
_SHARD_LINE = re.compile(r"(\S+) ([0-9a-f]{8}) ([0-9]+(?:,[0-9]+)*)")
_CRC_LINE = re.compile(r"crc32 ([0-9a-f]{8})")


@dataclass
class ShardEntry:
    path: str  # relative to the manifest directory
    crc32: int
    series_lengths: list[int]


@dataclass
class ShardManifest:
    entries: list[ShardEntry]
    root_dir: str = "."

    @property
    def total_points(self) -> int:
        return sum(sum(e.series_lengths) for e in self.entries)

    def shard_path(self, i: int) -> str:
        return os.path.join(self.root_dir, self.entries[i].path)

    def save(self, path: str):
        lines = [f"{MANIFEST_MAGIC} {MANIFEST_VERSION}"]
        lines += [f"{e.path} {e.crc32:08x} {','.join(map(str, e.series_lengths))}"
                  for e in self.entries]
        body = "".join(line + "\n" for line in lines).encode()
        with open(path, "wb") as f:
            f.write(body + f"crc32 {zlib.crc32(body):08x}\n".encode())

    @classmethod
    def load(cls, path: str) -> "ShardManifest":
        """Parse a manifest; a malformed line is a ``DataError`` naming the
        file and the 1-based line."""
        with open(path, "rb") as f:
            blob = f.read()
        lines = blob.decode(errors="replace").split("\n")

        def fields(i: int, pattern: re.Pattern) -> tuple[str, ...]:
            if not (found := pattern.fullmatch(lines[i])):
                raise DataError(f"{path}: line {i + 1}: malformed manifest line {lines[i]!r}")
            return found.groups()

        version = int(fields(0, _VERSION_LINE)[0])
        if version != MANIFEST_VERSION:
            raise DataError(f"{path}: line 1: unsupported manifest version {version}, this build "
                            f"reads version {MANIFEST_VERSION}; rebuild the corpus with "
                            "`serialcast shard` or `serialcast synth --format shard`")
        if len(lines) < 3 or lines[-1]:
            raise DataError(f"{path}: truncated manifest, it does not end with a crc32 line")
        (crc,) = fields(len(lines) - 2, _CRC_LINE)
        if zlib.crc32(blob[: blob.rfind(b"\n", 0, -1) + 1]) != int(crc, 16):
            raise DataError(f"{path}: checksum mismatch, corrupt or edited manifest")
        entries = []
        for i in range(1, len(lines) - 2):
            rel, shard_crc, lens = fields(i, _SHARD_LINE)
            entries.append(ShardEntry(rel, int(shard_crc, 16), [int(n) for n in lens.split(",")]))
        return cls(entries, os.path.dirname(path) or ".")


def build_shards(series_iter, shard_bytes: int = DEFAULT_SHARD_BYTES,
                 out_dir: str = ".") -> ShardManifest:
    """Serialize series into shards of at most ``shard_bytes`` each.

    Values are stored as float32. On any I/O failure, files written so far
    are removed before the error propagates.
    """
    if shard_bytes < MIN_SHARD_BYTES:
        raise InputError(f"shard_bytes must be >= {MIN_SHARD_BYTES}")
    os.makedirs(out_dir, exist_ok=True)
    capacity = shard_bytes // VALUE_DTYPE.itemsize  # values per shard
    shard = np.empty(capacity, VALUE_DTYPE)  # the shard being filled
    lengths: list[int] = []  # of the segments in it
    written: list[str] = []
    entries: list[ShardEntry] = []

    def flush(filled: int):
        data = shard[:filled]
        rel = f"shard_{len(entries):05d}.sfd"
        full = os.path.join(out_dir, rel)
        with open(full, "wb") as f:
            written.append(full)
            f.write(data)
        entries.append(ShardEntry(rel, zlib.crc32(data), lengths.copy()))
        lengths.clear()

    try:
        filled = 0
        for idx, series in enumerate(series_iter):
            values = np.asarray(series.values if hasattr(series, "values") else series)
            if values.size == 0:
                raise InputError(f"series {idx} is empty")
            for start in range(0, values.size, capacity):
                chunk = values[start : start + capacity]
                if filled + chunk.size > capacity:
                    flush(filled)
                    filled = 0
                shard[filled : filled + chunk.size] = chunk  # rounds to float32
                filled += chunk.size
                lengths.append(chunk.size)
        if not lengths:
            raise InputError("build_shards: empty input")
        flush(filled)
        manifest = ShardManifest(entries, out_dir)
        manifest.save(os.path.join(out_dir, MANIFEST_NAME))
        return manifest
    except BaseException:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise


def load_shard(path: str, crc32: int, lengths: list[int]) -> list[np.ndarray]:
    """The float32 segments of one shard, checked against its manifest entry."""
    with open(path, "rb") as f:
        blob = f.read()
    expected = VALUE_DTYPE.itemsize * sum(lengths)
    if len(blob) != expected:
        raise DataError(f"{path}: {len(blob)} bytes, but the manifest's lengths need {expected}: "
                        "truncated shard or mismatched manifest")
    if zlib.crc32(blob) != crc32:
        raise DataError(f"{path}: checksum mismatch, shard rejected")
    return np.split(np.frombuffer(blob, VALUE_DTYPE), np.cumsum(lengths[:-1]))


def read_all_series(manifest: ShardManifest) -> list[np.ndarray]:
    """Sequential read of every series in shard order (round-trip check path)."""
    return [values for i, e in enumerate(manifest.entries)
            for values in load_shard(manifest.shard_path(i), e.crc32, e.series_lengths)]


class ShardQueue:
    """At most ``capacity`` shards resident; least-recently-sampled eviction."""

    def __init__(self, manifest: ShardManifest, capacity: int = 4):
        if capacity < 1:
            raise InputError("queue capacity must be >= 1")
        self.manifest = manifest
        self.capacity = capacity
        self._resident: dict[int, list[np.ndarray]] = {}
        self._order: list[int] = []  # least recent first
        self.load_count = 0

    def get(self, shard_index: int) -> list[np.ndarray]:
        if shard_index in self._resident:
            self._order.remove(shard_index)
            self._order.append(shard_index)
            return self._resident[shard_index]
        while len(self._resident) >= self.capacity:
            victim = self._order.pop(0)
            del self._resident[victim]
        entry = self.manifest.entries[shard_index]
        data = load_shard(self.manifest.shard_path(shard_index), entry.crc32, entry.series_lengths)
        self._resident[shard_index] = data
        self._order.append(shard_index)
        self.load_count += 1
        return data


class WindowSampler:
    """Uniform sampling over eligible windows, shard-weighted by window count.

    A window of ``length`` points is eligible wherever it fits inside a
    single series (or split segment); long series therefore contribute
    proportionally more windows. The counts come from the manifest's
    lengths, so a shard is loaded only once it is drawn. Deterministic under
    a fixed rng.
    """

    def __init__(self, manifest: ShardManifest, queue_capacity: int = 4):
        self.manifest = manifest
        self.queue = ShardQueue(manifest, queue_capacity)
        self._windows: dict[int, tuple[np.ndarray, list[np.ndarray]]] = {}

    def window_counts(self, length: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """Windows of ``length`` points per shard and per series in each shard;
        cached, the manifest is fixed."""
        if length not in self._windows:
            per_series = [np.maximum(np.array(e.series_lengths, np.float64) - (length - 1), 0.0)
                          for e in self.manifest.entries]
            per_shard = np.array([w.sum() for w in per_series], dtype=np.float64)
            for counts in (per_shard, *per_series):
                counts.flags.writeable = False  # shared by every later call
            self._windows[length] = per_shard, per_series
        return self._windows[length]

    def sample_raw(self, length: int, rng: np.random.Generator) -> np.ndarray:
        per_shard, per_series = self.window_counts(length)
        total = per_shard.sum()
        if total <= 0:
            raise SamplerError(f"no series can host a {length}-point window")
        shard_i = int(rng.choice(per_shard.size, p=per_shard / total))
        series = self.queue.get(shard_i)
        counts = per_series[shard_i]
        values = series[int(rng.choice(counts.size, p=counts / counts.sum()))]
        start = int(rng.integers(0, values.size - length + 1))
        return np.asarray(values[start : start + length], dtype=np.float64)


class MixtureSampler:
    """Draws each sample from one source, chosen with probability ~ weight."""

    def __init__(self, sources: list[tuple[WindowSampler, float]]):
        if not sources:
            raise InputError("mixture needs at least one source")
        weights = np.array([w for _, w in sources], dtype=np.float64)
        if not np.all(np.isfinite(weights)) or np.any(weights < 0) or weights.sum() <= 0:
            raise InputError("mixture weights must be finite, >= 0 and not all zero")
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
