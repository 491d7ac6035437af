"""Record files: a text header, then one fixed-width hex line per sample pair.

Layout (format HCCM2): header lines ``# key=value`` echoing the full
configuration, the record kind and, for segment i of the plan, the lines
``segment.<i>.kind`` / ``.phi`` / ``.e_l`` / ``.block``; then one row per
sample pair, 33 bytes each: 32 lowercase hex digits, the 16 bytes of the
little-endian float64 values c1 and c2, and a newline.

Segments follow the plan of the header's config (``detector.scan_plan``), in
plan order, each segment's rows contiguous and as many as the plan gives.  The
header lines must repeat each segment's kind, e_l, block and phase from the plan,
but a ``phase`` segment's phi line gives its phase, so any phase grid reads back.

stream_record is the one writer and replaces its file atomically; it and
read_record hold CHUNK_ROWS rows of a segment at a time, as bytes (the reader
reduces each segment with one reduce_chunks call), so both run in bounded memory.
"""

from __future__ import annotations

import binascii
import contextlib
import math
import os
import re
from dataclasses import dataclass, replace

import numpy as np

from . import config as config_mod
from .analysis import CHUNK_ROWS, reduce_chunks
from .detector import (
    KIND_LO_PHASE,
    KIND_LO_PHASE_PI,
    KIND_PHASE,
    ExperimentConfig,
    SegmentEstimate,
    SegmentSpec,
    plan_chunks,
    scan_plan,
)
from .errors import ConfigError, DataError, PreconditionError

FORMAT_TAG = "HCCM2"
ROW_BYTES = 33  # 32 hex digits of two little-endian float64, then "\n"
_ROW = re.compile(rb"[0-9a-fA-F]{32}\n")


@dataclass(frozen=True)
class Record:
    """A record file reduced to one SegmentEstimate per segment, in plan order."""

    kind: str  # "phase_scan" | "lo_scan"
    segments: tuple
    config: ExperimentConfig
    path: str
    echo: dict  # the header's config lines, as written


def _header_lines(kind: str, cfg: ExperimentConfig, specs):
    lines = [f"# format={FORMAT_TAG}", f"# kind={kind}"]
    flat = config_mod.config_to_flat(cfg)
    for key in sorted(flat):
        lines.append(f"# {key}={flat[key]}")
    for i, spec in enumerate(specs):
        lines.append(f"# segment.{i}.kind={spec.kind}")
        lines.append(f"# segment.{i}.phi={spec.phi!r}")
        lines.append(f"# segment.{i}.e_l={spec.e_l!r}")
        lines.append(f"# segment.{i}.block={spec.block}")
    lines.append("# columns=c1,c2 (hex of little-endian float64)")
    return lines


def refuse_directories(*paths) -> None:
    """Raise DataError for a path to be written that is a directory, before any
    work is done for it."""
    for path in paths:
        if os.path.isdir(path):
            raise DataError(f"cannot write {path}: it is a directory")


@contextlib.contextmanager
def atomic_open(path):
    """Write a binary file through a temporary file beside it: os.replace moves it
    onto path when the block completes; on any exception it is removed, and an
    OSError is raised as DataError.  A path that is a directory is refused
    before the block runs."""
    refuse_directories(path)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from exc
        raise


def stream_record(cfg: ExperimentConfig, path, kind: str = "phase_scan") -> int:
    """Simulate and write a record segment-by-segment (bounded memory).

    The file appears at path only once every segment is written.  Returns
    the number of sample rows written.
    """
    specs = scan_plan(cfg, kind)
    with atomic_open(path) as fh:
        fh.write("".join(line + "\n" for line in _header_lines(kind, cfg, specs)).encode())
        for _, chunks in plan_chunks(cfg, specs):
            for pairs in chunks:
                # a hex line of 16 bytes per row, the last newline apart: interleave the columns
                fh.write(binascii.b2a_hex(np.ascontiguousarray(pairs, "<f8"), b"\n", 16))
                fh.write(b"\n")
    return sum(spec.n for spec in specs)


def read_record(path, like: Record | None = None) -> Record:
    """Read a record file one chunk of a segment at a time (bounded memory).

    Every segment is checked against the plan of the config in the header: a
    segment kind, e_l or block header line, or a fixed phase's phi line, that is
    not the plan's, no phase line, a row that is not 32 hex digits and a newline,
    non-finite samples, a file that ends inside the segment or bytes after the
    last one raise DataError naming the segment, as does an OSError.
    With like, a record read before, the header's config lines must be like's,
    string for string (DataError otherwise), and like's config plans the file.
    """
    if not os.path.exists(path):
        raise DataError(f"record file not found: {path}")
    try:
        with open(path, "rb") as fh:
            meta = _read_header(fh)
            if meta.get("format") != FORMAT_TAG:
                found = meta.get("format")
                raise DataError(f"not a {FORMAT_TAG} record file (format {found!r}): {path}")
            kind = meta.get("kind")
            echo = {
                k: v for k, v in meta.items() if k not in ("format", "kind", "columns") and "." not in k
            }
            if like is not None and echo != like.echo:
                raise DataError(
                    f"{path} and {like.path} were simulated with different configs; "
                    f"simulate again or remove the stale {os.path.basename(path)}"
                )
            try:
                cfg = config_mod.build_config(echo) if like is None else like.config
            except ConfigError as exc:
                raise DataError(f"record header does not parse as a config: {exc}") from exc
            try:
                plan = scan_plan(cfg, kind)
            except ValueError as exc:
                raise DataError(f"record header gives no segment plan: {exc}") from exc
            segments = tuple(_read_segments(fh, meta, plan))
    except OSError as exc:
        raise DataError(f"cannot read record file {path}: {exc}") from exc
    return Record(kind, segments, cfg, os.fspath(path), echo)


def _read_header(fh) -> dict:
    """The ``# key=value`` header as a dict; leaves fh at the first data row."""
    meta = {}
    while True:
        start = fh.tell()
        raw = fh.readline()
        if not raw.startswith(b"#"):
            fh.seek(start)
            return meta
        try:
            key, sep, value = raw[1:].decode("utf-8").partition("=")
        except UnicodeDecodeError as exc:
            raise DataError(f"record header is not UTF-8 text: {exc}") from exc
        if sep:
            meta[key.strip()] = value.strip()


def _segment_name(spec: SegmentSpec, position: int) -> str:
    if spec.kind in (KIND_PHASE, KIND_LO_PHASE, KIND_LO_PHASE_PI):
        return f"segment {spec.kind} {spec.index} (plan position {position})"
    return f"calibration run {spec.kind} (plan position {position})"


def _header_phi(meta: dict, position: int, spec: SegmentSpec, name: str) -> float:
    """The segment's phase; its header lines must be the plan's, as written (but a phase's phi)."""
    lines = [("kind", spec.kind), ("e_l", repr(spec.e_l)), ("block", str(spec.block))]
    if spec.kind != KIND_PHASE:
        lines.append(("phi", repr(spec.phi)))
    for key, planned in lines:
        if (given := meta.get(f"segment.{position}.{key}")) != planned:
            raise DataError(f"{name}: the header gives {key} {given!r}, the plan {planned!r}")
    try:
        phi = float(meta[f"segment.{position}.phi"])
    except (KeyError, ValueError) as exc:
        raise DataError(f"{name}: the header gives no phase for it") from exc
    if not math.isfinite(phi):
        raise DataError(f"{name}: phase {phi!r} in the header is not finite")
    return phi


def _segment_chunks(fh, buffer: memoryview, spec: SegmentSpec, name: str):
    """Yield a segment's rows as (k, 2) arrays of CHUNK_ROWS rows, the last maybe
    shorter, each read into buffer (ROW_BYTES * CHUNK_ROWS bytes, reused)."""
    for done in range(0, spec.n, CHUNK_ROWS):
        k = min(CHUNK_ROWS, spec.n - done)
        raw = buffer[: ROW_BYTES * k]
        got = fh.readinto(raw)
        if got < len(raw):
            count = done + got // ROW_BYTES
            if got % ROW_BYTES:
                raise DataError(f"{name}: the file ends inside row {count + 1} of {spec.n}")
            if count == 0:
                raise DataError(f"{name} is missing")
            raise DataError(f"{name}: {count} rows, the plan has {spec.n}")
        rows = np.frombuffer(raw, np.uint8).reshape(k, ROW_BYTES)
        data = None
        if (rows[:, -1] == ord("\n")).all():
            with contextlib.suppress(binascii.Error):
                data = binascii.a2b_hex(np.ascontiguousarray(rows[:, :-1]))
        if data is None:
            bad = next((i for i, row in enumerate(rows) if not _ROW.fullmatch(row.tobytes())), 0)
            raise DataError(f"{name}: row {done + bad + 1} is not 32 hex digits and a newline")
        yield np.frombuffer(data, "<f8").reshape(k, 2)


def _read_segments(fh, meta: dict, plan):
    """Reduce each segment of the plan, in order, to a SegmentEstimate."""
    buffer = memoryview(bytearray(ROW_BYTES * CHUNK_ROWS))
    for position, spec in enumerate(plan):
        name = _segment_name(spec, position)
        phi = _header_phi(meta, position, spec, name)
        try:
            estimate = reduce_chunks(_segment_chunks(fh, buffer, spec, name))
        except DataError:
            raise
        except ValueError as exc:
            error = type(exc) if isinstance(exc, PreconditionError) else DataError
            raise error(f"{name}: {exc}") from exc
        yield SegmentEstimate(replace(spec, phi=phi), estimate)
    if rest := fh.read(ROW_BYTES):
        if len(rest) == ROW_BYTES:
            raise DataError(f"{name}: more rows than the plan's {spec.n}")
        raise DataError(f"{name}: {len(rest)} trailing bytes after the plan's {spec.n} rows")
