"""Record files: a text header, then one fixed-width hex line per sample pair.

Layout (format HCCM2): header lines ``# key=value`` echoing the full
configuration, the record kind and, for segment i of the plan, the lines
``segment.<i>.kind`` / ``.phi`` / ``.e_l`` / ``.block``; then one row per
sample pair, 33 bytes each: 32 lowercase hex digits, the 16 bytes of the
little-endian float64 values c1 and c2, and a newline.

Segments follow the plan of the header's config (``detector.scan_plan``), in
plan order, each segment's rows contiguous; the plan gives every segment's row
count and the ``segment.<i>.phi`` lines its phase, so records with
non-equidistant phase grids read back exactly.

stream_record is the one writer and replaces its file atomically; it and
read_record hold CHUNK_ROWS rows of a segment at a time (the reader reduces
them with ProductMoments), so both run in bounded memory.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
from dataclasses import dataclass, replace

import numpy as np

from . import config as config_mod
from .analysis import CHUNK_ROWS, ProductMoments
from .detector import (
    KIND_PHASE,
    ExperimentConfig,
    SegmentEstimate,
    SegmentSpec,
    plan_chunks,
    scan_plan,
)
from .errors import DataError

FORMAT_TAG = "HCCM2"
ROW_BYTES = 33  # 32 hex digits of two little-endian float64, then "\n"
_ROW = re.compile(rb"[0-9a-fA-F]{32}\n")


@dataclass(frozen=True)
class Record:
    """A record file reduced to one SegmentEstimate per segment, in plan order."""

    kind: str  # "phase_scan" | "lo_scan"
    segments: tuple
    config: ExperimentConfig


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


@contextlib.contextmanager
def atomic_open(path):
    """Write a text file through a temporary file beside it: os.replace moves it
    onto path when the block completes; on any exception it is removed."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def stream_record(cfg: ExperimentConfig, path, kind: str = "phase_scan") -> int:
    """Simulate and write a record segment-by-segment (bounded memory).

    The file appears at path only once every segment is written.  Returns
    the number of sample rows written.
    """
    specs = scan_plan(cfg, kind)
    with atomic_open(path) as fh:
        fh.write("".join(line + "\n" for line in _header_lines(kind, cfg, specs)))
        for _, chunks in plan_chunks(cfg, specs):
            for pairs in chunks:
                # one hex line of 16 bytes per (c1, c2) row, one write per chunk
                fh.write(pairs.astype("<f8", copy=False).tobytes().hex("\n", 16) + "\n")
    return sum(spec.n for spec in specs)


def read_record(path) -> Record:
    """Read a record file one chunk of a segment at a time (bounded memory).

    Every segment is checked against the plan of the config in the header: a
    header without the segment's phase, a row that is not 32 hex digits and a
    newline, non-finite samples, a file that ends inside the segment or bytes
    after the last one raise DataError naming the segment.
    """
    if not os.path.exists(path):
        raise DataError(f"record file not found: {path}")
    with open(path, "rb") as fh:
        meta = _read_header(fh)
        if meta.get("format") != FORMAT_TAG:
            found = meta.get("format")
            raise DataError(f"not a {FORMAT_TAG} record file (format {found!r}): {path}")
        kind = meta.get("kind")
        cfg = _config_from_meta(meta)
        try:
            plan = scan_plan(cfg, kind)
        except ValueError as exc:
            raise DataError(f"record header gives no segment plan: {exc}") from exc
        segments = tuple(_read_segments(fh, meta, plan))
    return Record(kind=kind, segments=segments, config=cfg)


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


def _config_from_meta(meta: dict) -> ExperimentConfig:
    flat = {
        k: v for k, v in meta.items() if k not in ("format", "kind", "columns") and "." not in k
    }
    try:
        return config_mod.build_config(flat)
    except Exception as exc:
        raise DataError(f"record header does not parse as a config: {exc}") from exc


def _segment_name(spec: SegmentSpec, position: int) -> str:
    if spec.kind == KIND_PHASE:
        return f"segment {spec.kind} {spec.index} (plan position {position})"
    return f"calibration run {spec.kind} (plan position {position})"


def _header_phi(meta: dict, position: int, name: str) -> float:
    try:
        phi = float(meta[f"segment.{position}.phi"])
    except (KeyError, ValueError) as exc:
        raise DataError(f"{name}: the header gives no phase for it") from exc
    if not math.isfinite(phi):
        raise DataError(f"{name}: phase {phi!r} in the header is not finite")
    return phi


def _read_chunk(fh, k: int, done: int, spec: SegmentSpec, name: str) -> np.ndarray:
    """The next k rows of a segment, of which done are read, as a (k, 2) array."""
    raw = fh.read(ROW_BYTES * k)
    if len(raw) < ROW_BYTES * k:
        rows = done + len(raw) // ROW_BYTES
        if len(raw) % ROW_BYTES:
            raise DataError(f"{name}: the file ends inside row {rows + 1} of {spec.n}")
        if rows == 0:
            raise DataError(f"{name} is missing")
        raise DataError(f"{name}: {rows} rows, the plan has {spec.n}")
    data = b""
    if (np.frombuffer(raw, np.uint8)[ROW_BYTES - 1 :: ROW_BYTES] == ord("\n")).all():
        with contextlib.suppress(ValueError):
            data = bytes.fromhex(raw.decode("ascii"))
    # fromhex skips whitespace, so a row holding any comes out short of 16 bytes
    if len(data) != 16 * k:
        rows = (raw[at : at + ROW_BYTES] for at in range(0, len(raw), ROW_BYTES))
        bad = next((i for i, row in enumerate(rows) if not _ROW.fullmatch(row)), 0)
        raise DataError(f"{name}: row {done + bad + 1} is not 32 hex digits and a newline")
    return np.frombuffer(data, "<f8").reshape(k, 2)


def _read_segments(fh, meta: dict, plan):
    """Reduce each segment of the plan, in order, to a SegmentEstimate."""
    for position, spec in enumerate(plan):
        name = _segment_name(spec, position)
        phi = _header_phi(meta, position, name)
        moments = ProductMoments()
        for done in range(0, spec.n, CHUNK_ROWS):
            moments.add(_read_chunk(fh, min(CHUNK_ROWS, spec.n - done), done, spec, name))
        try:
            estimate = moments.estimate()
        except ValueError as exc:
            raise DataError(f"{name}: {exc}") from exc
        yield SegmentEstimate(replace(spec, phi=phi), estimate)
    if rest := fh.read(ROW_BYTES):
        if len(rest) == ROW_BYTES:
            raise DataError(f"{name}: more rows than the plan's {spec.n}")
        raise DataError(f"{name}: {len(rest)} trailing bytes after the plan's {spec.n} rows")
