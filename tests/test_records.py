import struct

import numpy as np
import pytest

from hccm.analysis import CHUNK_ROWS
from hccm.detector import (
    KIND_BLOCKED_LO_A,
    DetectorConfig,
    ExperimentConfig,
    SignalParams,
    draw_segment,
    lo_scan_plan,
    phase_scan_plan,
    scan_estimates,
    scan_plan,
    segment_chunks,
    simulate_estimates,
    simulate_segments,
)
from hccm import detector, records
from hccm.config import preset_config
from hccm.errors import DataError
from hccm.records import read_record, stream_record
from hccm.splitter import symmetric_splitter


def tiny_config(**overrides):
    base = dict(
        signal=SignalParams(v_min=0.537, v_max=3.548, angle=np.pi / 2, alpha=2.0 + 0j),
        e_l=1.8,
        phases=tuple(2 * np.pi * i / 8 for i in range(8)),
        samples_per_phase=50,
        blocked_samples=60,
        seed=11,
        detector=DetectorConfig(eta1=0.94, eta2=0.94, dark_corr=0.2),
        splitter=symmetric_splitter(0.14),
        visibility=0.96,
        lo_scan_e_l=(0.0, 1.0, 1.8),
        lo_scan_phi=3 * np.pi / 4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def hex_rows(cfg, plan):
    """The expected data lines of a record: one per-row struct oracle line per drawn pair."""
    return [
        struct.pack("<dd", v1, v2).hex() + "\n"
        for spec in plan
        for v1, v2 in zip(*draw_segment(cfg, spec))
    ]


def read_estimates(path):
    record = read_record(path, "phase_scan")
    return scan_estimates("phase_scan", record.config, record.segments)


def split_record(path):
    """Header lines and data lines of a record file."""
    lines = path.read_text().splitlines(keepends=True)
    header = [line for line in lines if line.startswith("#")]
    return header, lines[len(header) :]


class TestPhaseScanRoundTrip:
    def test_samples_survive(self, tmp_path):
        cfg = tiny_config()
        plan = phase_scan_plan(cfg)
        path = tmp_path / "scan.txt"
        stream_record(cfg, path)
        header, data = split_record(path)
        assert data == hex_rows(cfg, plan)
        assert f"# segment.0.kind={KIND_BLOCKED_LO_A}\n" in header
        back = read_record(path, "phase_scan")
        assert len(back.segments) == len(plan)
        by_key = {(s.spec.kind, s.spec.index): s for s in back.segments}
        for spec in plan:
            twin = by_key[(spec.kind, spec.index)]
            assert twin.spec.n == spec.n
            assert twin.spec.phi == spec.phi

    def test_config_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "scan.txt"
        stream_record(cfg, path)
        cfg2 = read_record(path, "phase_scan").config
        assert cfg2.seed == cfg.seed
        assert cfg2.e_l == pytest.approx(cfg.e_l)
        assert cfg2.splitter == cfg.splitter
        assert cfg2.detector == cfg.detector
        np.testing.assert_allclose(cfg2.phases, cfg.phases)
        assert cfg2.signal.v_min == pytest.approx(cfg.signal.v_min, rel=1e-12)

    def test_estimates_match(self, tmp_path):
        # the same record with uppercase hex digits reads back to the same estimates
        cfg = tiny_config()
        path, upper = tmp_path / "scan.txt", tmp_path / "upper.txt"
        stream_record(cfg, path)
        header, data = split_record(path)
        upper.write_text("".join(header + [row.upper() for row in data]))
        est_a = simulate_estimates(cfg)
        for est_b in (read_estimates(path), read_estimates(upper)):
            assert est_a.values.tolist() == est_b.values.tolist()
            assert est_a.stderr.tolist() == est_b.stderr.tolist()
            assert est_a.blocked_signal.value == est_b.blocked_signal.value

    def test_non_equidistant_phases_read_back(self, tmp_path):
        # the config echo stores only n_phases; the segment lines carry each phase
        phases = (0.0, 0.3, 0.5, 1.9, 2.0, 3.5, 4.1, 6.0)
        path = tmp_path / "scan.txt"
        stream_record(tiny_config(phases=phases), path)
        np.testing.assert_array_equal(read_estimates(path).phis, phases)


class TestLoScanRoundTrip:
    def test_lo_record(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "lo.txt"
        stream_record(cfg, path, kind="lo_scan")
        back = read_record(path, "lo_scan")
        est_a = simulate_estimates(cfg, "lo_scan")
        est_b = scan_estimates("lo_scan", back.config, back.segments)
        np.testing.assert_allclose(est_b.e_values, est_a.e_values)
        assert est_b.phi == pytest.approx(est_a.phi)
        assert est_a.values.tolist() == est_b.values.tolist()


class TestStreaming:
    def test_stream_matches_materialized(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "b.txt"
        rows = stream_record(cfg, path, kind="phase_scan")
        _, data = split_record(path)
        assert data == hex_rows(cfg, phase_scan_plan(cfg))
        assert rows == 8 * 50 + 3 * 60
        assert rows == len(data)
        assert {len(line) for line in data} == {records.ROW_BYTES}

    def test_lo_rows_follow_plan(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "lo.txt"
        rows = stream_record(cfg, path, kind="lo_scan")
        plan = lo_scan_plan(cfg, cfg.lo_scan_phi, cfg.lo_scan_e_l)
        header, data = split_record(path)
        assert data == hex_rows(cfg, plan)
        assert rows == sum(spec.n for spec in plan)
        for i, spec in enumerate(plan):
            assert f"# segment.{i}.kind={spec.kind}\n" in header
            assert f"# segment.{i}.phi={spec.phi!r}\n" in header
            assert f"# segment.{i}.e_l={spec.e_l!r}\n" in header

    def test_segments_across_chunks(self, tmp_path):
        # segments of CHUNK_ROWS + 3 and + 5 rows span two chunks each, in the
        # writer and in the reader
        cfg = tiny_config(
            phases=(0.0, 2.5), samples_per_phase=CHUNK_ROWS + 3, blocked_samples=CHUNK_ROWS + 5
        )
        path = tmp_path / "scan.txt"
        stream_record(cfg, path)
        header, data = split_record(path)
        assert data == hex_rows(cfg, phase_scan_plan(cfg))
        assert header[:2] == ["# format=HCCM2\n", "# kind=phase_scan\n"]
        simulated = simulate_segments(cfg, phase_scan_plan(cfg))
        assert [s.estimate for s in read_record(path, "phase_scan").segments] == [s.estimate for s in simulated]

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, existing):
        # a draw that fails mid-stream leaves neither a partial record nor a
        # temporary file, and an earlier record at the target stays as it was
        path = tmp_path / "scan.txt"
        if existing:
            path.write_text("earlier record\n")
        calls = []

        def failing_draw(cfg, spec, seeds):
            calls.append(spec)
            if len(calls) == 3:
                raise RuntimeError("draw failed")
            return segment_chunks(cfg, spec, seeds)

        monkeypatch.setattr(detector, "segment_chunks", failing_draw)
        with pytest.raises(RuntimeError, match="draw failed"):
            stream_record(tiny_config(), path)
        assert len(calls) == 3
        expected = ["scan.txt"] if existing else []
        assert sorted(p.name for p in tmp_path.iterdir()) == expected
        if existing:
            assert path.read_text() == "earlier record\n"


    @pytest.mark.parametrize("kind", ["phase_scan", "lo_scan"])
    def test_no_seed_sequence_per_substream(self, tmp_path, monkeypatch, kind):
        # both plan walkers seed a whole paper-quick plan with one numpy SeedSequence per
        # segment kind: 4 for a phase scan, 3 for an LO scan
        calls = []
        seed_sequence = np.random.SeedSequence

        def counted(*args, **kwargs):
            calls.append(args)
            return seed_sequence(*args, **kwargs)

        cfg = preset_config("paper-quick")
        plan = scan_plan(cfg, kind)
        monkeypatch.setattr(np.random, "SeedSequence", counted)
        assert len(list(simulate_segments(cfg, plan))) == len(plan)
        assert stream_record(cfg, tmp_path / "scan.txt", kind) == sum(spec.n for spec in plan)
        kinds = {"phase_scan": 4, "lo_scan": 3}[kind]
        assert len(calls) == 2 * kinds and len(set(map(str, calls))) == kinds


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_record(tmp_path / "nope.txt", "phase_scan")

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# format=OTHER\n0,0.0,1.0,2.0\n")
        with pytest.raises(DataError):
            read_record(path, "phase_scan")

    def test_malformed_row(self, tmp_path):
        # a decimal row where a hex row belongs
        path = tmp_path / "scan.txt"
        stream_record(tiny_config(), path)
        header, data = split_record(path)
        path.write_text("".join(header + data[:100] + ["0,0.0,1.0,2.0\n"] + data[101:]))
        with pytest.raises(DataError, match="segment phase 0 .*row 41 is not 32 hex digits"):
            read_record(path, "phase_scan")

    def test_hccm1_file_refused(self, tmp_path):
        # the decimal format this one replaced: header, then phase_index,phase_rad,c1,c2 rows
        path = tmp_path / "scan.txt"
        stream_record(tiny_config(), path)
        header, data = split_record(path)
        header[0] = "# format=HCCM1\n"
        path.write_text("".join(header + ["-1,0.0,0.5,-0.25\n"] * len(data)))
        with pytest.raises(DataError, match="not a HCCM2 record file .*HCCM1"):
            read_record(path, "phase_scan")

    def test_missing_blocked_run_detected(self, tmp_path):
        # the file ends where the last calibration run would start
        path = tmp_path / "scan.txt"
        stream_record(tiny_config(), path)
        header, data = split_record(path)
        path.write_text("".join(header + data[:-60]))
        with pytest.raises(DataError, match="calibration run blocked_signal .* is missing"):
            read_record(path, "phase_scan")


class TestPlanChecks:
    """A record whose rows disagree with its own header's plan is refused."""

    @pytest.fixture
    def record(self, tmp_path):
        path = tmp_path / "scan.txt"
        stream_record(tiny_config(), path)
        return path

    def rewrite(self, path, transform):
        header, data = split_record(path)
        path.write_text("".join(header + transform(data)))

    def test_row_count_differs_from_plan(self, record):
        self.rewrite(record, lambda d: d[:-10])
        with pytest.raises(DataError, match="blocked_signal .*50 rows, the plan has 60"):
            read_record(record, "phase_scan")

    def test_extra_rows(self, record):
        self.rewrite(record, lambda d: d + d[-1:])
        with pytest.raises(DataError, match="blocked_signal .*more rows than the plan's 60"):
            read_record(record, "phase_scan")

    def test_truncated_mid_segment(self, record):
        # plan order: blocked_lo_a (60 rows), 8 phases x 50, blocked_lo_b, blocked_signal
        self.rewrite(record, lambda d: d[:80])
        with pytest.raises(DataError, match="segment phase 0 .*20 rows, the plan has 50"):
            read_record(record, "phase_scan")

    def test_truncated_mid_row(self, record):
        self.rewrite(record, lambda d: d[:80] + [d[80][:10]])
        with pytest.raises(DataError, match="segment phase 0 .*ends inside row 21 of 50"):
            read_record(record, "phase_scan")

    def test_trailing_bytes(self, record):
        self.rewrite(record, lambda d: d + ["0\n"])
        with pytest.raises(DataError, match="blocked_signal .*2 trailing bytes after the plan's 60"):
            read_record(record, "phase_scan")

    def test_non_hex_character(self, record):
        self.rewrite(record, lambda d: d[:100] + ["g" + d[100][1:]] + d[101:])
        with pytest.raises(DataError, match="segment phase 0 .*row 41 is not 32 hex digits"):
            read_record(record, "phase_scan")

    @pytest.mark.parametrize(
        "wrong",
        [
            lambda row, nxt: [row[1:], nxt],  # 31 digits
            lambda row, nxt: ["0" + row, nxt],  # 33 digits
            lambda row, nxt: [row[:30] + "  \n", nxt],  # 33 bytes, two of them blanks
            lambda row, nxt: [row[:16] + "\n" + row[17:], nxt],  # a newline inside the row
            lambda row, nxt: [row[2:], "00" + nxt],  # 30 + 34 digits: whole bytes, shifted
        ],
    )
    def test_row_of_wrong_width(self, record, wrong):
        self.rewrite(record, lambda d: d[:100] + wrong(d[100], d[101]) + d[102:])
        with pytest.raises(DataError, match="segment phase 0 .*row 41 is not 32 hex digits"):
            read_record(record, "phase_scan")

    def test_non_finite_samples(self, record):
        nan_row = struct.pack("<dd", float("nan"), 1.0).hex() + "\n"
        self.rewrite(record, lambda d: d[:100] + [nan_row] + d[101:])
        with pytest.raises(DataError, match="segment phase 0 .*finite"):
            read_record(record, "phase_scan")

    def test_header_without_segment_phase(self, record):
        header, data = split_record(record)
        header = [line for line in header if not line.startswith("# segment.3.phi=")]
        record.write_text("".join(header + data))
        with pytest.raises(DataError, match="segment phase 2 .*no phase"):
            read_record(record, "phase_scan")

    @pytest.mark.parametrize(
        "key, value", [("kind", "blocked_lo_b"), ("e_l", "1.80"), ("block", "7"), ("block", None)]
    )
    def test_header_segment_line_not_the_plan(self, record, key, value):
        # the rows are read by the plan, so a header that describes another plan is refused
        header, data = split_record(record)
        line = next(line for line in header if line.startswith(f"# segment.3.{key}="))
        header.remove(line)
        if value is not None:
            header.append(f"# segment.3.{key}={value}\n")
        record.write_text("".join(header + data))
        with pytest.raises(DataError, match=f"segment phase 2 .*gives {key} {value!r}, the plan"):
            read_record(record, "phase_scan")

    @pytest.mark.parametrize(
        "lines",
        ["# samples_per_phase=1" + "0" * 400 + "\n", "# gain1=1e-90\n# gain2=1e-90\n"],
        ids=["count-past-float-range", "underflowing-products"],
    )
    def test_header_config_refused(self, record, lines):
        # the last header line of a key wins: a config build_config refuses is a data error
        header, data = split_record(record)
        record.write_text("".join(header + [lines] + data))
        with pytest.raises(DataError, match="does not parse as a config: sample products"):
            read_record(record, "phase_scan")

    def test_header_without_kind(self, record):
        # the writer always names the kind: a header without it is no record of either scan
        header, data = split_record(record)
        record.write_text("".join(line for line in header + data if line != "# kind=phase_scan\n"))
        with pytest.raises(DataError, match="holds a None record, expected phase_scan"):
            read_record(record, "phase_scan")

    def test_other_kind_refused_before_any_segment(self, record, tmp_path, monkeypatch):
        # an LO record read as a phase scan: refused from its header, before the
        # config is built or a segment reduced
        lo = tmp_path / "lo.txt"
        stream_record(tiny_config(), lo, kind="lo_scan")
        calls = []
        for module, name in ((records, "reduce_chunks"), (records.config_mod, "build_config")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, f=original: calls.append(a) or f(*a))
        with pytest.raises(DataError, match="lo.txt holds a lo_scan record, expected phase_scan"):
            read_record(lo, "phase_scan")
        assert calls == []
        assert len(read_record(record, "phase_scan").segments) == 11 and len(calls) == 12
