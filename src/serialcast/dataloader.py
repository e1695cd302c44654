"""Shard-based series storage and the window samplers that read it from disk.

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

Loading the manifest checks its version, then its CRC; checking a shard
checks that its size is 4 x the sum of its lengths, then its CRC and that
every value is finite, as the writer requires too. The sampler checks a shard
the first time it draws from it. Every read of a shard, the check's included,
is one ``pread`` (``read_values``) after checking that the shard's size and
mtime have not moved since the check began. Any mismatch is a ``DataError``
that names the file. A version-1 corpus must be rebuilt. Every file is
written whole (``write_whole``).
A rebuild takes the lowest free ``shard_NNNNN.sfd`` names, replaces the manifest
last, then removes the old shards, so a failed rebuild keeps the old corpus.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import re
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, InputError, SamplerError

MANIFEST_MAGIC = "SFMANIFEST"
MANIFEST_VERSION = 2
MANIFEST_NAME = "manifest.sfm"
MIN_SHARD_BYTES = 1 << 20
CHECK_CHUNK = 1 << 16  # bytes a shard check holds at once
DEFAULT_SHARD_BYTES = 4 << 20
DEFAULT_DATA_DIR = os.path.join(".", "data")
VALUE_DTYPE = np.dtype("<f4")

_VERSION_LINE = re.compile(rf"{MANIFEST_MAGIC} ([0-9]+)")
_SHARD_LINE = re.compile(r"(\S+) ([0-9a-f]{8}) ([0-9]+(?:,[0-9]+)*)")
_CRC_LINE = re.compile(r"crc32 ([0-9a-f]{8})")


def write_whole(path: str, chunks):
    """Write ``chunks`` to ``path + ".tmp"``, fsync it and rename it over ``path``;
    a failure removes the temporary file and leaves ``path`` as it was."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        _remove([tmp])
        raise


def load_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path, encoding="utf-8", errors="replace") as f:  # bad bytes fail as bad values
        for i, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{i}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def save_config(path: str, merged: dict):
    for k, v in merged.items():  # nan, or a str that load_config_file would cut or strip
        if v != v or isinstance(v, str) and (v != v.strip() or any(c in v for c in "#\r\n")):
            raise InputError(f"{k}={v!r} cannot be restored from its config file")
    write_whole(path, ["".join(f"{k}={merged[k]}\n" for k in sorted(merged)).encode()])


def _remove(paths):
    for path in paths:
        with contextlib.suppress(OSError):
            os.remove(path)


def finite_series(values, label: str) -> np.ndarray:
    """``values`` as flat float64; empty or non-finite is an ``InputError``."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    if x.size < 1:
        raise InputError(f"{label}: no values")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise InputError(f"{label}: non-finite value {x[bad[0]]} at index {bad[0]}")
    return x


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

    def _body(self) -> bytes:
        lines = [f"{MANIFEST_MAGIC} {MANIFEST_VERSION}"]
        lines += [f"{e.path} {e.crc32:08x} {','.join(map(str, e.series_lengths))}"
                  for e in self.entries]
        if bad := [line for line in lines[1:] if not _SHARD_LINE.fullmatch(line)]:
            raise InputError(f"manifest entry {bad[0]!r} would not read back")
        return "".join(line + "\n" for line in lines).encode()

    @property
    def crc32(self) -> int:
        """The CRC32 of the entries, as the saved manifest's last line gives it."""
        return zlib.crc32(self._body())

    def save(self, path: str):
        """Write the manifest whole, after refusing any entry ``load`` would reject."""
        body = self._body()
        write_whole(path, [body, f"crc32 {zlib.crc32(body):08x}\n".encode()])

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


def _first_non_finite(values: np.ndarray) -> int | None:
    """Index of the first value of a float32 array that is not finite, or None.
    One float64 sum decides, since float32 values cannot overflow it. It makes
    no per-value mask: one per series while a corpus was written fragmented
    the heap and raised the peak RSS of the training that followed by 30 MB."""
    with np.errstate(invalid="ignore"):  # inf + -inf
        if np.isfinite(values.sum(dtype=np.float64)):
            return None
    return int(np.argmin(np.isfinite(values)))


def build_shards(series_iter, shard_bytes: int = DEFAULT_SHARD_BYTES,
                 out_dir: str = ".", names: list[str] | None = None) -> ShardManifest:
    """Serialize series into shards of at most ``shard_bytes`` each.

    Values are stored as float32, and one that is not finite after rounding
    is an ``InputError`` naming its series (``names[idx]``, or its index) and
    its index. On any failure, the files it wrote are removed and the corpus
    that was in ``out_dir`` stays whole; see the module docstring.
    """
    if shard_bytes < MIN_SHARD_BYTES:
        raise InputError(f"shard_bytes must be >= {MIN_SHARD_BYTES}")
    os.makedirs(out_dir, exist_ok=True)
    taken = set(os.listdir(out_dir))
    free = (rel for rel in map("shard_{:05d}.sfd".format, itertools.count()) if rel not in taken)
    capacity = shard_bytes // VALUE_DTYPE.itemsize  # values per shard
    shard = np.empty(capacity, VALUE_DTYPE)  # the shard being filled
    lengths: list[int] = []  # of the segments in it
    written: list[str] = []
    entries: list[ShardEntry] = []

    def flush(filled: int):
        data = shard[:filled]
        written.append(os.path.join(out_dir, rel := next(free)))
        write_whole(written[-1], [data])
        entries.append(ShardEntry(rel, zlib.crc32(data), lengths.copy()))
        lengths.clear()

    try:
        filled = 0
        for idx, series in enumerate(series_iter):
            values = np.asarray(series)
            for start in range(0, values.size, capacity):
                chunk = values[start : start + capacity]
                if filled + chunk.size > capacity:
                    flush(filled)
                    filled = 0
                stored = shard[filled : filled + chunk.size]
                with np.errstate(over="ignore"):
                    stored[:] = chunk  # rounds to float32
                if (bad := _first_non_finite(stored)) is not None:
                    label = names[idx] if names else f"series {idx}"
                    raise InputError(f"{label}: value {float(chunk[bad])} at index "
                                     f"{start + bad} is not finite in float32")
                filled += chunk.size
                lengths.append(chunk.size)
        if not lengths:
            raise InputError("build_shards: empty input")
        flush(filled)
        manifest = ShardManifest(entries, out_dir)
        manifest.save(os.path.join(out_dir, MANIFEST_NAME))
    except BaseException:
        _remove(written)
        raise
    _remove(os.path.join(out_dir, n) for n in taken if re.fullmatch(r"shard_[0-9]{5}\.sfd", n))
    return manifest


def _stamp(file: str | int) -> tuple[int, int]:
    st = os.stat(file)
    return st.st_size, st.st_mtime_ns


def check_shard(path: str, crc32: int, lengths: list[int]) -> tuple[int, int]:
    """Check one shard against its manifest entry: its size, then, read
    ``CHECK_CHUNK`` bytes at a time through ``read_values``, its CRC32 and that
    every value is finite. Returns the (size, mtime_ns) stamp all reads match."""
    width, total, stamp = VALUE_DTYPE.itemsize, sum(lengths), _stamp(path)
    if stamp[0] != width * total:
        raise DataError(f"{path}: {stamp[0]} bytes, but the manifest's lengths need "
                        f"{width * total}: truncated shard or mismatched manifest")
    crc, first_bad, step = 0, None, CHECK_CHUNK // width
    for start in range(0, total, step):
        values = read_values(path, stamp, start, min(step, total - start))
        crc = zlib.crc32(values, crc)
        if first_bad is None and (bad := _first_non_finite(values)) is not None:
            first_bad = start + bad
    if crc != crc32:
        raise DataError(f"{path}: checksum mismatch, shard rejected")
    if first_bad is not None:
        raise DataError(f"{path}: value {first_bad} is not finite, shard rejected; "
                        "rebuild the corpus")
    return stamp


def read_values(path: str, stamp: tuple[int, int], start: int, count: int) -> np.ndarray:
    """``count`` float32 values from value ``start`` of a shard, in one pread:
    every read of a shard, its check's too, comes through here. A file whose
    (size, mtime_ns) moved from ``stamp``, or a short read, is a ``DataError``;
    an in-place rewrite within one mtime tick is not seen."""
    size, at = count * VALUE_DTYPE.itemsize, start * VALUE_DTYPE.itemsize
    fd = os.open(path, os.O_RDONLY)
    try:
        if (now := _stamp(fd)) != stamp:
            raise DataError(f"{path}: changed since its check, (size, mtime_ns) {stamp} -> {now}; "
                            "shard rejected")
        blob = os.pread(fd, size, at)
    finally:
        os.close(fd)
    if len(blob) != size:
        raise DataError(f"{path}: read {len(blob)} of {size} bytes at byte {at}: truncated shard")
    return np.frombuffer(blob, VALUE_DTYPE)


class ShardQueue:
    """Checks each shard once, the first time it is drawn, and holds none of
    its values; ``load_count`` counts the checks."""

    def __init__(self, manifest: ShardManifest):
        self.manifest = manifest
        self._checked: dict[int, tuple[str, tuple[int, int], list[int]]] = {}
        self.load_count = 0

    def get(self, shard_index: int) -> tuple[str, tuple[int, int], list[int]]:
        """The shard's path, its stamp at the check and its series' offsets."""
        if shard_index not in self._checked:
            path, entry = self.manifest.shard_path(shard_index), self.manifest.entries[shard_index]
            self._checked[shard_index] = (path, check_shard(path, entry.crc32, entry.series_lengths),
                                          [0, *itertools.accumulate(entry.series_lengths[:-1])])
            self.load_count += 1
        return self._checked[shard_index]


def read_all_series(manifest: ShardManifest) -> list[np.ndarray]:
    """Every series in shard order: each shard is checked once and read in one
    pread through the sampler's path, then split at its series' offsets."""
    queue, out = ShardQueue(manifest), []
    for i, entry in enumerate(manifest.entries):
        path, stamp, offsets = queue.get(i)
        out += np.split(read_values(path, stamp, 0, sum(entry.series_lengths)), offsets[1:])
    return out


class WindowSampler:
    """Uniform sampling over eligible windows, shard-weighted by window count.

    A window of ``length`` points is eligible wherever it fits inside a
    single series (or split segment); long series therefore contribute
    proportionally more windows. The counts come from the manifest's
    lengths, so a shard is checked only once it is first drawn, and each
    window is then one read of its bytes. Deterministic under a fixed rng.
    """

    def __init__(self, manifest: ShardManifest):
        self.manifest = manifest
        self.queue = ShardQueue(manifest)
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
        path, stamp, offsets = self.queue.get(shard_i)
        counts = per_series[shard_i]
        series_i = int(rng.choice(counts.size, p=counts / counts.sum()))
        start = offsets[series_i] + int(rng.integers(0, int(counts[series_i])))
        return read_values(path, stamp, start, length).astype(np.float64)


class MixtureSampler:
    """Draws each sample from one source, chosen with probability ~ weight; a
    mixture of one takes nothing from the rng, so it draws as its sampler does."""

    def __init__(self, sources: list[tuple[WindowSampler, float]]):
        if not sources:
            raise InputError("mixture needs at least one source")
        weights = np.array([w for _, w in sources], dtype=np.float64)
        if not np.all(np.isfinite(weights)) or np.any(weights < 0) or weights.sum() <= 0:
            raise InputError("mixture weights must be finite, >= 0 and not all zero")
        self.samplers = [s for s, _ in sources]
        self.probs = weights / weights.sum()

    def sample_raw(self, length: int, rng: np.random.Generator) -> np.ndarray:
        i = int(rng.choice(len(self.samplers), p=self.probs)) if len(self.samplers) > 1 else 0
        return self.samplers[i].sample_raw(length, rng)


def read_csv_series(path: str) -> np.ndarray:
    """One series per file: a `value` header then one finite float per line.

    Bytes that are not UTF-8 read as U+FFFD, so they fail as a bad header or
    a line that is not a number, naming the file and the line."""
    with open(path, encoding="utf-8", errors="replace") as f:
        header = f.readline().strip().lower()
        if header != "value":
            raise InputError(f"{path}: expected a 'value' header, got {header!r}")
        lines = f.readlines()
    try:
        values = np.fromiter(map(float, filter(str.strip, lines)), np.float64)
    except ValueError:  # find the line, now that one is known to be bad
        for lineno, line in enumerate(lines, 2):  # line 1 is the header
            if line.strip():
                try:
                    float(line)
                except ValueError:
                    raise InputError(f"{path}: line {lineno}: not a number: "
                                     f"{line.strip()!r}") from None
    return finite_series(values, path)


def csv_lines(values, label: str) -> str:
    """The CSV text of one series, after the check its reader makes."""
    return "".join(f"{v}\n" for v in ["value", *finite_series(values, label)])


def write_csv_series(path: str, values):
    write_whole(path, [csv_lines(values, path).encode()])
