import numpy as np
import pytest

from hccm.detector import (
    DetectorConfig,
    ExperimentConfig,
    SignalParams,
    draw_segment,
    lo_scan_plan,
    phase_scan_plan,
    scan_estimates,
    simulate_estimates,
)
from hccm import records
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


def data_rows(path):
    """The data rows of a record file as an (N, 4) array."""
    return np.loadtxt(path, delimiter=",", ndmin=2)


def read_estimates(path):
    record = read_record(path)
    return scan_estimates(record.kind, record.config, record.segments)


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
        rows = data_rows(path)
        start = 0
        for spec in plan:
            c1, c2 = draw_segment(cfg, spec)
            seg_rows = rows[start : start + spec.n]
            start += spec.n
            np.testing.assert_array_equal(seg_rows[:, 2], c1)
            np.testing.assert_array_equal(seg_rows[:, 3], c2)
            assert np.all(seg_rows[:, 1] == spec.phi)
        back = read_record(path)
        assert back.kind == "phase_scan"
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
        cfg2 = read_record(path).config
        assert cfg2.seed == cfg.seed
        assert cfg2.e_l == pytest.approx(cfg.e_l)
        assert cfg2.splitter == cfg.splitter
        assert cfg2.detector == cfg.detector
        np.testing.assert_allclose(cfg2.phases, cfg.phases)
        assert cfg2.signal.v_min == pytest.approx(cfg.signal.v_min, rel=1e-12)

    def test_estimates_match(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "scan.txt"
        stream_record(cfg, path)
        est_a = simulate_estimates(cfg)
        est_b = read_estimates(path)
        for a, b in zip(est_a.estimates, est_b.estimates):
            assert a.value == b.value
            assert a.stderr == b.stderr
        assert est_a.blocked_signal.value == est_b.blocked_signal.value

    def test_non_equidistant_phases_read_back(self, tmp_path):
        # the header stores only n_phases; the rows carry each segment's phase
        phases = (0.0, 0.3, 0.5, 1.9, 2.0, 3.5, 4.1, 6.0)
        path = tmp_path / "scan.txt"
        stream_record(tiny_config(phases=phases), path)
        np.testing.assert_array_equal(read_estimates(path).phis, phases)


class TestLoScanRoundTrip:
    def test_lo_record(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "lo.txt"
        stream_record(cfg, path, kind="lo_scan")
        back = read_record(path)
        assert back.kind == "lo_scan"
        est_a = simulate_estimates(cfg, "lo_scan")
        est_b = scan_estimates(back.kind, back.config, back.segments)
        np.testing.assert_allclose(est_b.e_values, est_a.e_values)
        assert est_b.phi == pytest.approx(est_a.phi)
        for a, b in zip(est_a.at_phi, est_b.at_phi):
            assert a.value == b.value


class TestStreaming:
    def test_stream_matches_materialized(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "b.txt"
        rows = stream_record(cfg, path, kind="phase_scan")
        drawn = [draw_segment(cfg, spec) for spec in phase_scan_plan(cfg)]
        data = data_rows(path)
        np.testing.assert_array_equal(data[:, 2], np.concatenate([c1 for c1, _ in drawn]))
        np.testing.assert_array_equal(data[:, 3], np.concatenate([c2 for _, c2 in drawn]))
        assert rows == 8 * 50 + 3 * 60
        assert rows == len(data)

    def test_lo_rows_follow_plan(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "lo.txt"
        rows = stream_record(cfg, path, kind="lo_scan")
        plan = lo_scan_plan(cfg, cfg.lo_scan_phi, cfg.lo_scan_e_l)
        expected = np.concatenate([np.full(spec.n, i) for i, spec in enumerate(plan)])
        np.testing.assert_array_equal(data_rows(path)[:, 0], expected)
        assert rows == sum(spec.n for spec in plan)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, existing):
        # a draw that fails mid-stream leaves neither a partial record nor a
        # temporary file, and an earlier record at the target stays as it was
        path = tmp_path / "scan.txt"
        if existing:
            path.write_text("earlier record\n")
        calls = []

        def failing_draw(cfg, spec):
            calls.append(spec)
            if len(calls) == 3:
                raise RuntimeError("draw failed")
            return draw_segment(cfg, spec)

        monkeypatch.setattr(records, "draw_segment", failing_draw)
        with pytest.raises(RuntimeError, match="draw failed"):
            stream_record(tiny_config(), path)
        assert len(calls) == 3
        expected = ["scan.txt"] if existing else []
        assert sorted(p.name for p in tmp_path.iterdir()) == expected
        if existing:
            assert path.read_text() == "earlier record\n"


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_record(tmp_path / "nope.txt")

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# format=OTHER\n0,0.0,1.0,2.0\n")
        with pytest.raises(DataError):
            read_record(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# format=HCCM1\n0,0.0,1.0\n")
        with pytest.raises(DataError):
            read_record(path)

    def test_missing_blocked_run_detected(self, tmp_path):
        path = tmp_path / "scan.txt"
        stream_record(tiny_config(), path)
        header, data = split_record(path)
        path.write_text("".join(header + [line for line in data if not line.startswith("-1,")]))
        with pytest.raises(DataError, match="calibration run blocked_lo_a .* is missing"):
            read_record(path)


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

    def test_segment_out_of_order(self, record):
        # plan order: blocked_lo_a (60 rows), 8 phases x 50, blocked_lo_b, blocked_signal
        self.rewrite(record, lambda d: d[60:460] + d[:60] + d[460:])
        with pytest.raises(DataError, match="blocked_lo_a .*out of order"):
            read_record(record)

    def test_rows_not_contiguous(self, record):
        # one row of phase 2 moved behind phase 3
        self.rewrite(record, lambda d: d[:170] + d[171:260] + [d[170]] + d[260:])
        with pytest.raises(DataError, match="segment phase 2 .*not contiguous"):
            read_record(record)

    def test_phase_index_not_integer(self, record):
        self.rewrite(record, lambda d: d[:100] + ["1.5" + d[100][1:]] + d[101:])
        with pytest.raises(DataError, match="segment phase 0 .*not an integer"):
            read_record(record)

    def test_row_count_differs_from_plan(self, record):
        self.rewrite(record, lambda d: d[:-10])
        with pytest.raises(DataError, match="blocked_signal .*50 rows, the plan has 60"):
            read_record(record)

    def test_extra_rows(self, record):
        self.rewrite(record, lambda d: d + d[-1:])
        with pytest.raises(DataError, match="blocked_signal .*more rows than the plan's 60"):
            read_record(record)

    def test_index_outside_plan(self, record):
        self.rewrite(record, lambda d: d[:100] + ["9" + d[100][1:]] + d[101:])
        with pytest.raises(DataError, match="phase_index 9 is not in the plan"):
            read_record(record)

    def test_non_finite_samples(self, record):
        self.rewrite(record, lambda d: d[:100] + [d[100].rsplit(",", 1)[0] + ",nan\n"] + d[101:])
        with pytest.raises(DataError, match="segment phase 0 .*finite"):
            read_record(record)
