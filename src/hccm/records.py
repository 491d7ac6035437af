"""Plain-text columnar record files.

Layout: header lines ``# key=value`` echoing the full configuration plus the
record kind, then one row per sample::

    phase_index, phase_rad, c1, c2

Segments follow the plan of the header's config (``detector.scan_plan``) and
each segment's rows are contiguous.  For phase scans, phase_index enumerates
the scanned phases; the calibration runs use the reserved indices -1 (first
blocked-LO run), -2 (second blocked-LO run) and -3 (blocked-signal run).  For
LO scans, phase_index enumerates the scan segments in acquisition order; the
header lines ``segment.<i>.kind`` / ``.phi`` / ``.e_l`` / ``.block`` describe
them for other readers.  Phases per segment always come from the data rows,
so records with non-equidistant phase grids read back faithfully.

stream_record is the one writer and replaces its file atomically; it and
read_record hold CHUNK_ROWS rows of a segment at a time (the reader reduces
them with ProductMoments), so both run in bounded memory.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from . import config as config_mod
from .analysis import CHUNK_ROWS, ProductMoments
from .detector import (
    KIND_BLOCKED_LO_A,
    KIND_BLOCKED_LO_B,
    KIND_BLOCKED_SIGNAL,
    KIND_PHASE,
    ExperimentConfig,
    SegmentEstimate,
    SegmentSpec,
    scan_plan,
    segment_chunks,
)
from .errors import DataError

FORMAT_TAG = "HCCM1"

_CAL_INDEX = {KIND_BLOCKED_LO_A: -1, KIND_BLOCKED_LO_B: -2, KIND_BLOCKED_SIGNAL: -3}


@dataclass(frozen=True)
class PhaseScanRecord:
    """A record file reduced to one SegmentEstimate per segment, in plan order."""

    kind: str  # "phase_scan" | "lo_scan"
    segments: tuple
    config: ExperimentConfig


def _header_lines(kind: str, cfg: ExperimentConfig, specs):
    lines = [f"# format={FORMAT_TAG}", f"# kind={kind}"]
    flat = config_mod.config_to_flat(cfg)
    for key in sorted(flat):
        lines.append(f"# {key}={flat[key]}")
    if kind == "lo_scan":
        for row_index, spec in enumerate(specs):
            lines.append(f"# segment.{row_index}.kind={spec.kind}")
            lines.append(f"# segment.{row_index}.phi={spec.phi!r}")
            lines.append(f"# segment.{row_index}.e_l={spec.e_l!r}")
            lines.append(f"# segment.{row_index}.block={spec.block}")
    lines.append("# columns=phase_index,phase_rad,c1,c2")
    return lines


def _row_index(record_kind: str, position: int, spec: SegmentSpec) -> int:
    if record_kind == "lo_scan":
        return position
    if spec.kind == KIND_PHASE:
        return spec.index
    return _CAL_INDEX[spec.kind]


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
    rows = 0
    with atomic_open(path) as fh:
        for line in _header_lines(kind, cfg, specs):
            fh.write(line + "\n")
        for position, spec in enumerate(specs):
            row = f"{_row_index(kind, position, spec)},{float(spec.phi)!r},%r,%r\n"
            for pairs in segment_chunks(cfg, spec):
                # one write per chunk; %r formats a float as f"{v!r}" does
                fh.write(row * len(pairs) % tuple(pairs.ravel().tolist()))
            rows += spec.n
    return rows


def read_record(path) -> PhaseScanRecord:
    """Read a record file one chunk of a segment at a time (bounded memory).

    Every segment is checked against the plan of the config in the header:
    a segment out of order, with rows that are not contiguous, with a row
    count other than the plan's, with a non-integer phase_index, or missing
    altogether raises DataError naming it.
    """
    if not os.path.exists(path):
        raise DataError(f"record file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        meta, first_row = _read_header(fh)
        if meta.get("format") != FORMAT_TAG:
            raise DataError(f"not a {FORMAT_TAG} record file: {path}")
        kind = meta.get("kind", "phase_scan")
        cfg = _config_from_meta(meta)
        try:
            plan = scan_plan(cfg, kind)
        except ValueError as exc:
            raise DataError(f"record header gives no segment plan: {exc}") from exc
        segments = tuple(_read_segments(_Rows(itertools.chain(first_row, fh)), kind, plan))
    return PhaseScanRecord(kind=kind, segments=segments, config=cfg)


def _read_header(fh):
    """The ``# key=value`` header as a dict, plus the first data line (if any)."""
    meta = {}
    for raw in fh:
        line = raw.strip()
        if line and not line.startswith("#"):
            return meta, [raw]
        key, sep, value = line[1:].partition("=")
        if sep:
            meta[key.strip()] = value.strip()
    return meta, []


def _config_from_meta(meta: dict) -> ExperimentConfig:
    flat = {
        k: v for k, v in meta.items() if k not in ("format", "kind", "columns") and "." not in k
    }
    try:
        return config_mod.build_config(flat)
    except Exception as exc:
        raise DataError(f"record header does not parse as a config: {exc}") from exc


class _Rows:
    """The data rows, parsed CHUNK_ROWS lines at a time and consumed from the front."""

    def __init__(self, lines):
        self._lines = lines
        self._block = np.empty((0, 4))

    def head(self):
        """phase_index of the next row, or None after the last row."""
        while len(self._block) == 0:
            lines = list(itertools.islice(self._lines, CHUNK_ROWS))
            if not lines:
                return None
            try:
                block = np.loadtxt(lines, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise DataError(f"malformed data row: {exc}") from exc
            if block.size and block.shape[1] != 4:
                raise DataError(f"malformed data row: {lines[0].strip()!r}")
            self._block = block.reshape(-1, 4)
        return float(self._block[0, 0])

    def take(self, index: int, limit: int) -> np.ndarray:
        """Up to limit rows from the front of the current block that carry index."""
        match = self._block[:limit, 0] == index
        k = len(match) if match.all() else int(np.argmin(match))
        taken, self._block = self._block[:k], self._block[k:]
        return taken

    def rest(self) -> set:
        """The distinct phase_index values of all remaining rows (consumes them)."""
        seen = set()
        while self.head() is not None:
            seen.update(np.unique(self._block[:, 0]).tolist())
            self._block = self._block[:0]
        return seen


def _segment_name(spec: SegmentSpec, index: int) -> str:
    if spec.kind in _CAL_INDEX:
        return f"calibration run {spec.kind} (phase_index {index})"
    return f"segment {spec.kind} {spec.index} (phase_index {index})"


def _read_segments(rows: _Rows, kind: str, plan):
    """Reduce each segment of the plan, in order, to a SegmentEstimate."""
    indices = [_row_index(kind, position, spec) for position, spec in enumerate(plan)]
    names = {index: _segment_name(spec, index) for index, spec in zip(indices, plan)}
    pairs = np.empty((CHUNK_ROWS, 2))  # the reducer's chunks, counted from each segment start
    for position, (index, spec) in enumerate(zip(indices, plan)):
        name = names[index]
        moments = ProductMoments()
        filled, phi = 0, None
        while filled < spec.n and rows.head() == index:
            start = filled % CHUNK_ROWS
            chunk = rows.take(index, min(spec.n - filled, CHUNK_ROWS - start))
            phi = float(chunk[0, 1]) if phi is None else phi
            pairs[start : start + len(chunk)] = chunk[:, 2:]
            filled += len(chunk)
            if filled % CHUNK_ROWS == 0 or filled == spec.n:
                moments.add(pairs[: start + len(chunk)])
        # the row after the segment: the next segment's first, or none
        found = rows.head()
        if found is not None and not found.is_integer():
            raise DataError(f"{name}: phase_index {found!r} is not an integer")
        if found is not None and found not in names:
            raise DataError(f"{name}: phase_index {found:g} is not in the plan")
        if found == index:
            raise DataError(f"{name}: more rows than the plan's {spec.n}")
        if found in indices[:position]:
            raise DataError(f"{names[found]}: rows are not contiguous")
        if filled < spec.n:
            if index in rows.rest():
                problem = "rows are not contiguous" if filled else "out of order"
                raise DataError(f"{name}: {problem}")
            if filled:
                raise DataError(f"{name}: {filled} rows, the plan has {spec.n}")
            raise DataError(f"{name} is missing")
        try:
            estimate = moments.estimate()
        except ValueError as exc:
            raise DataError(f"{name}: {exc}") from exc
        yield SegmentEstimate(replace(spec, phi=phi), estimate)
