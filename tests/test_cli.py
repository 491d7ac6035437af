import copy
import errno
import hashlib
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hccm import config as config_mod
from hccm import detector, records
from hccm.analysis import SeparatedContributions
from hccm.cli import main
from hccm.errors import ConfigError, PreconditionError
from hccm.nonclassicality import VERDICT_CLASSICAL
from hccm.pipeline import run_pipeline

TINY = """
# small end-to-end configuration
squeezing_db = -2.7
antisqueezing_db = 5.5
squeeze_angle_rad = {half_pi}
alpha_re = 3.0
alpha_im = 0.0
lo_field_strength = 2.8
n_phases = 16
samples_per_phase = 3000
blocked_samples = 9000
seed = 42
drift_rate = 0.0
splitter_ts2 = 0.86
splitter_tl2 = 0.86
splitter_rs2 = 0.14
splitter_rl2 = 0.14
visibility = 0.96
eta1 = 0.94
eta2 = 0.94
lo_scan_field_strengths = 0.0,1.4,2.0,2.8
lo_scan_phase_rad = {three_quarter_pi}
""".format(half_pi=repr(math.pi / 2), three_quarter_pi=repr(0.75 * math.pi))


# detector 1 dark (eta1 = 0, no noise): every product c1*c2 is exactly 0, so every
# segment of both scans has stderr 0
EXACT_QUICK = """preset = paper-quick
eta1 = 0
samples_per_phase = 2000
blocked_samples = 2000
"""


# a classical signal (v_min = 2.74 > 1, displaced) on an asymmetric splitter with
# t0 = |T_S R_S| / |T_L R_L| = 1.172, where t1 is not exact: the determinant test
# certified it nonclassical at 26 of paper-quick's 60 phases before it was refused
CLASSICAL_ASYMMETRIC = """preset = paper-quick
squeezing_db = 4.379
antisqueezing_db = 6.995
alpha_re = 3.469
alpha_im = 0.529
squeeze_angle_rad = 1.3547
splitter_ts2 = 0.8241
splitter_tl2 = 0.6367
splitter_rs2 = 0.1184
splitter_rl2 = 0.1115
n_phases = 16
samples_per_phase = 2000
blocked_samples = 20000
"""


NOISY_TINY = TINY + """dark_uncorr1 = 2.0
dark_uncorr2 = 1.0
dark_corr = 0.5
lo_excess = 0.01
"""


def chain_digests(out, config_path, names):
    """SHA-256 of each named file that simulate -> analyze -> test write to out."""
    assert main(["simulate", "--config", config_path, "--out", str(out)]) == 0
    assert main(["analyze", "--out", str(out)]) == 0
    assert main(["test", "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


# the two config keys of versions with a configurable plan and verdict threshold
OLD_ECHO_LINES = [
    "# schedule=blocked_lo_a,phases,blocked_lo_b,blocked_signal\n",
    "# sig_threshold=3.0\n",
]


def add_old_echo_lines(path, echo_lines=OLD_ECHO_LINES):
    """Rewrite the record at path as those versions wrote it: with both keys (or
    echo_lines) among the header's config lines (after the format and kind lines,
    sorted by key)."""
    lines = path.read_text().splitlines(keepends=True)
    end = next(i for i, line in enumerate(lines) if line.startswith("# segment."))
    path.write_text("".join(lines[:2] + sorted(lines[2:end] + echo_lines) + lines[end:]))


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


@pytest.fixture(scope="module")
def tiny_separation(tmp_path_factory):
    """The separation.json document that analyze writes for TINY."""
    out = tmp_path_factory.mktemp("tiny")
    (out / "tiny.cfg").write_text(TINY)
    assert main(["simulate", "--config", str(out / "tiny.cfg"), "--out", str(out)]) == 0
    assert main(["analyze", "--out", str(out)]) == 0
    return json.loads((out / "separation.json").read_text())


class TestChain:
    def test_simulate_analyze_test(self, tmp_path, tiny_config_path, capsys):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", tiny_config_path, "--out", out]) == 0
        assert (tmp_path / "run" / "phase_scan.txt").exists()
        assert (tmp_path / "run" / "lo_scan.txt").exists()

        assert main(["analyze", "--out", out]) == 0
        assert (tmp_path / "run" / "fit_report.txt").exists()
        assert (tmp_path / "run" / "phase_table.txt").exists()
        assert (tmp_path / "run" / "lo_table.txt").exists()
        assert (tmp_path / "run" / "separation.json").exists()

        assert main(["test", "--out", out]) == 0
        assert (tmp_path / "run" / "det_table.txt").exists()
        text = (tmp_path / "run" / "det_table.txt").read_text()
        assert "nonclassical" in text
        captured = capsys.readouterr()
        assert "fraction" in captured.out

    def test_structured_output(self, tmp_path, tiny_config_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", tiny_config_path, "--out", out]) == 0
        assert main(["analyze", "--out", out, "--format", "structured"]) == 0
        doc = json.loads((tmp_path / "run" / "analyze_report.json").read_text())
        assert "fit" in doc and "phase_table" in doc
        assert main(["test", "--out", out, "--format", "structured"]) == 0
        det = json.loads((tmp_path / "run" / "det_report.json").read_text())
        assert "det_table" in det and "summary" in det


    def test_two_step_matches_reproduce(self, tmp_path, tiny_config_path):
        # the record round trip changes no report byte, in either format
        two = tmp_path / "two"
        assert main(["simulate", "--config", tiny_config_path, "--out", str(two)]) == 0
        for fmt in ("text", "structured"):
            one = tmp_path / f"one-{fmt}"
            assert main(["analyze", "--out", str(two), "--format", fmt]) == 0
            assert main(["test", "--out", str(two), "--format", fmt]) == 0
            args = ["reproduce-paper", "--config", tiny_config_path, "--out", str(one)]
            assert main([*args, "--format", fmt]) == 0
        for name in ("fit_report.txt", "phase_table.txt", "lo_table.txt", "det_table.txt"):
            assert (two / name).read_bytes() == (tmp_path / "one-text" / name).read_bytes()
        # reproduce-paper's report.json merges the two steps' JSON documents
        analyze_doc = json.loads((two / "analyze_report.json").read_text())
        det_doc = json.loads((two / "det_report.json").read_text())
        merged = json.dumps({**analyze_doc, **det_doc}, sort_keys=True, indent=1) + "\n"
        assert merged.encode() == (tmp_path / "one-structured" / "report.json").read_bytes()


class TestDeterminism:
    def test_reproduce_quick_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            code = main(
                [
                    "reproduce-paper",
                    "--preset",
                    "paper-quick",
                    "--out",
                    out,
                    "--seed",
                    "7",
                    "--format",
                    "structured",
                ]
            )
            assert code == 0
        r1 = (tmp_path / "a" / "report.json").read_bytes()
        r2 = (tmp_path / "b" / "report.json").read_bytes()
        assert r1 == r2

    def test_reproduce_writes_all_tables(self, tmp_path):
        out = str(tmp_path / "rep")
        assert main(["reproduce-paper", "--preset", "paper-quick", "--out", out]) == 0
        for name in ("fit_report.txt", "phase_table.txt", "det_table.txt", "lo_table.txt"):
            assert (tmp_path / "rep" / name).exists()

    def test_seed_override_changes_report(self, tmp_path):
        outs = []
        for name, seed in (("a", "7"), ("b", "8")):
            out = str(tmp_path / name)
            main(
                [
                    "reproduce-paper",
                    "--preset",
                    "paper-quick",
                    "--out",
                    out,
                    "--seed",
                    seed,
                    "--format",
                    "structured",
                ]
            )
            outs.append((tmp_path / name / "report.json").read_bytes())
        assert outs[0] != outs[1]

    def test_tiny_outputs_golden(self, tmp_path, tiny_config_path):
        # SHA-256 of what simulate -> analyze -> test writes for TINY (seed 42): any
        # change of the sampler, of the substream seeding, of the reducer or of the
        # determinant stage shows here
        golden = {
            "phase_scan.txt": "6124462e2e6c128852b785af814a48bfdbc74221a63fcc067c9cd77c9ef4a1aa",
            "lo_scan.txt": "38fe2f55887d68e129d4a40e5ea3c73e66833624b573c4048620b0efecc0451b",
            "separation.json": "b6e92eadad8efc7a5bf2bd982b23de65ee7197d1d6d6c3ea1c4970f2c158ae5b",
            "det_table.txt": "cc37e94b309040fed917a0c19a094d024b262db14df7625e694de8d30369d6f2",
        }
        assert chain_digests(tmp_path / "run", tiny_config_path, golden) == golden

    def test_noisy_tiny_outputs_golden(self, tmp_path):
        # the same for TINY with dark noise and LO noise on: pins the noisy sampler,
        # which draws each segment from the Cholesky factor of its total covariance
        golden = {
            "phase_scan.txt": "906ec792cdc84af82341bec4845295970999ef7394364c5050f2abf6c28880fe",
            "lo_scan.txt": "a67197d67907ffcbd6c9a2bdb9bfe42b08eb9ad35504537eadbd27ece3f02d28",
            "separation.json": "e9327c509e7c0706fb2908e76f9cf601187fc2e8cca7195dbb0ed1086af6c6b3",
            "det_table.txt": "65aec8ad80e221d1dfd07ba800a6c7f7fb7d0ad344f9a4b38b0fe4b22bf9099d",
        }
        path = tmp_path / "noisy.cfg"
        path.write_text(NOISY_TINY)
        assert chain_digests(tmp_path / "run", str(path), golden) == golden

    def test_record_with_old_echo_lines(self, tmp_path, tiny_config_path):
        # records of the fixed plan written by those versions analyze to the same reports
        new, old = tmp_path / "new", tmp_path / "old"
        for out in (new, old):
            assert main(["simulate", "--config", tiny_config_path, "--out", str(out)]) == 0
        for name in ("phase_scan.txt", "lo_scan.txt"):
            add_old_echo_lines(old / name)
        # byte for byte TINY's records, with the echo lines of the versions with both keys
        assert {
            name: hashlib.sha256((old / name).read_bytes()).hexdigest()
            for name in ("phase_scan.txt", "lo_scan.txt")
        } == {
            "phase_scan.txt": "1715e5b2c2b9b3fe40accb83817afcf4f185af65d5bb6be1fb36e85cf6591ab1",
            "lo_scan.txt": "a0faa0c0ffe2281507b1d2950ce5741df3a7f67155b76d480634044ac5f95e18",
        }

        def reports(out):
            return {p.name: p.read_bytes() for p in out.iterdir() if not p.name.endswith("_scan.txt")}

        for fmt in ("text", "structured"):
            for out in (new, old):
                assert main(["analyze", "--out", str(out), "--format", fmt]) == 0
                assert main(["test", "--out", str(out), "--format", fmt]) == 0
            assert reports(new) == reports(old)


class TestExactScans:
    """Scans whose stderrs are all 0 are exact: zero covariance, sigma 0, no verdict."""

    def test_run_pipeline(self, tmp_path):
        path = tmp_path / "exact.cfg"
        path.write_text(EXACT_QUICK)
        result = run_pipeline(config_mod.load_config(str(path)))
        assert not result.phase.estimates.stderr.any() and not result.lo.estimates.stderr.any()
        for cov in (result.phase.fit.cov, result.phase.separation.cov, result.lo.separation.cov):
            assert not cov.any()
        assert not result.sigma.any() and not result.nonclassical.any()
        assert result.lo_det.sigma == 0.0 and result.lo_det.verdict == VERDICT_CLASSICAL

    def test_cli_chain(self, tmp_path):
        path, out = tmp_path / "exact.cfg", tmp_path / "run"
        path.write_text(EXACT_QUICK)
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert main(["analyze", "--out", str(out), "--format", "structured"]) == 0
        assert main(["test", "--out", str(out), "--format", "structured"]) == 0
        separation = json.loads((out / "separation.json").read_text())
        assert not np.any(separation["phase"]["cov"]) and not np.any(separation["lo"]["cov"])
        fit = json.loads((out / "analyze_report.json").read_text())["fit"]
        assert not any(fit["stderr"].values()) and not np.any(fit["covariance"])
        det = json.loads((out / "det_report.json").read_text())
        assert {row["sigma"] for row in det["det_table"]} == {0.0}
        assert {row["verdict"] for row in det["det_table"]} == {VERDICT_CLASSICAL}
        assert det["summary"]["n_nonclassical"] == 0
        assert det["summary"]["lo_scan_point"]["sigma"] == 0.0


class TestConfigCheck:
    """analyze and test read their config from their input; --config, --preset
    and --seed given to them must name that config."""

    @pytest.mark.parametrize("flags, builds", [([], 1), (["--preset", "paper-quick", "--seed", "301"], 2)])
    def test_analyze_builds_each_config_once(self, tmp_path, monkeypatch, flags, builds):
        # one config from the phase record's header (the LO record is planned from it,
        # after its header matched string for string) and one from the flags, if given
        out = ["--out", str(tmp_path)]
        assert main(["simulate", "--preset", "paper-quick", "--seed", "301", *out]) == 0
        calls = []
        post_init = detector.ExperimentConfig.__post_init__
        monkeypatch.setattr(
            detector.ExperimentConfig, "__post_init__", lambda cfg: calls.append(post_init(cfg))
        )
        assert main(["analyze", *flags, *out]) == 0
        assert len(calls) == builds

    @pytest.mark.parametrize("flags", [[], ["--preset", "paper-quick", "--seed", "301"]])
    def test_test_builds_one_config(self, tmp_path, monkeypatch, flags):
        # the flags' config when given, its echo compared with separation.json's as
        # strings; separation.json's config otherwise
        out = ["--out", str(tmp_path)]
        for command in ("simulate", "analyze"):
            assert main([command, "--preset", "paper-quick", "--seed", "301", *out]) == 0
        calls = []
        post_init = detector.ExperimentConfig.__post_init__
        monkeypatch.setattr(
            detector.ExperimentConfig, "__post_init__", lambda cfg: calls.append(post_init(cfg))
        )
        assert main(["test", *flags, *out]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("flags", [[], ["--config", "tiny.cfg", "--seed", "42"]])
    def test_separation_with_old_echo_keys(self, tmp_path, tiny_separation, flags):
        # a separation.json of the versions with a configurable plan and verdict
        # threshold: both keys in its config, tolerated, with or without flags
        (tmp_path / "tiny.cfg").write_text(TINY)
        flags = [str(tmp_path / f) if f.endswith(".cfg") else f for f in flags]
        tables, old_keys = [], dict(line[2:].strip().split("=", 1) for line in OLD_ECHO_LINES)
        for extra in ({}, old_keys):
            doc = copy.deepcopy(tiny_separation)
            doc["config"].update(extra)
            out = tmp_path / f"run{len(tables)}"
            out.mkdir()
            (out / "separation.json").write_text(json.dumps(doc))
            assert main(["test", *flags, "--out", str(out)]) == 0
            tables.append((out / "det_table.txt").read_bytes())
        assert tables[0] == tables[1]

    def test_benchmark_invocation(self, tmp_path):
        # the flags that the benchmark's cli-records workload passes to every command
        args = ["--preset", "paper-quick", "--seed", "301", "--out", str(tmp_path)]
        for command in ("simulate", "analyze", "test"):
            assert main([command, *args]) == 0, command

    @pytest.mark.parametrize("command", ["analyze", "test"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--config", "tiny.cfg", "--seed", "43"], "name another config than"),
            (["--seed", "42"], "name another config than"),  # the default preset, as in simulate
            (["--preset", "paper-quick"], "name another config than"),
            (["--config", "missing.cfg"], "cannot read --config"),
        ],
    )
    def test_other_config_refused(self, tmp_path, tiny_config_path, capsys, command, flags, message):
        out = tmp_path / "run"
        assert main(["simulate", "--config", tiny_config_path, "--out", str(out)]) == 0
        if command == "test":
            assert main(["analyze", "--out", str(out)]) == 0
        before = sorted(p.name for p in out.iterdir())
        flags = [str(tmp_path / f) if f.endswith(".cfg") else f for f in flags]
        capsys.readouterr()
        assert main([command, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        if "43" in flags:
            assert err.rstrip().endswith(": seed")
        assert sorted(p.name for p in out.iterdir()) == before
        # the flags that name the record's own config pass
        assert main([command, "--config", tiny_config_path, "--seed", "42", "--out", str(out)]) == 0


# 10*log10(v) of this file's v_min is not the dB value that maps back to v_min
ECHO_CONFIG = """squeezing_db = -2.172996242706244
antisqueezing_db = 4.0691477742112045
lo_power_uw = 85.99888875594469
n_phases = 8
samples_per_phase = 200
blocked_samples = 400
lo_scan_powers_uw = 0,100,275
"""


@pytest.mark.parametrize(
    "text",
    [ECHO_CONFIG, ECHO_CONFIG.replace("lo_scan_powers_uw = 0,100,275", "lo_scan_powers_uw =")],
    ids=["db", "no-lo-scan"],
)
def test_config_echo_names_its_config(tmp_path, text):
    # analyze and test rebuild the config from the echo in their input
    path = tmp_path / "echo.cfg"
    path.write_text(text)
    out = str(tmp_path / "run")
    for command in ("simulate", "analyze", "test"):
        assert main([command, "--config", str(path), "--out", out]) == 0, command


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    squeezing=st.floats(-10.0, 0.0),
    antisqueezing=st.floats(0.0, 12.0),
    power=st.floats(1.0, 400.0),
    lo_scan=st.booleans(),
)
def test_config_echo_round_trips(squeezing, antisqueezing, power, lo_scan):
    """The flat echo of a file-built config, with or without an LO scan, builds
    that config again."""
    assume(squeezing + antisqueezing >= 0.0)
    flat = {
        "preset": "paper-quick",
        "squeezing_db": repr(squeezing),
        "antisqueezing_db": repr(antisqueezing),
        "lo_power_uw": repr(power),
    }
    if not lo_scan:
        flat["lo_scan_powers_uw"] = ""
    cfg = config_mod.build_config(flat)
    echo = config_mod.config_to_flat(cfg)
    assert echo.keys() == config_mod.ECHO_KEYS  # the keys each config echo must give
    assert config_mod.build_config(echo) == cfg


def negate_variances(separation):
    """Set a separation's covariance to minus its absolute diagonal."""
    separation["cov"] = np.diag(-np.abs(np.diag(separation["cov"]))).tolist()


class _FullDisk:
    """A file whose writes after the first (a record's header) fail as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(data)


class TestExitCodes:
    def test_unphysical_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("squeezing_db = -3.0\nantisqueezing_db = -3.0\n")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "uncertainty" in err or "variance product" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        [
            "lo_field_strength",
            "lo_power_uw",
            "drift_rate",
            "lo_scan_field_strengths",
            "lo_scan_powers_uw",
            "lo_scan_phase_rad",
            "gain1",
            "gain2",
            "dark_uncorr1",
            "dark_uncorr2",
            "dark_corr",
            "lo_excess",
            "squeezing_db",
            "antisqueezing_db",
        ],
    )
    def test_non_finite_value(self, tmp_path, capsys, key, bad):
        value = f"0,{bad}" if key.startswith("lo_scan_") and key != "lo_scan_phase_rad" else bad
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"preset = paper-quick\n{key} = {value}\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("bad", ["1e5", "1e308"])
    @pytest.mark.parametrize("key", ["squeezing_db", "antisqueezing_db"])
    def test_db_overflow(self, tmp_path, capsys, key, bad):
        # 10 ** (dB / 10) overflows a float
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"preset = paper-quick\n{key} = {bad}\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: key '{key}'" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["simulate", "reproduce-paper"])
    @pytest.mark.parametrize("key", ["dark_uncorr1", "dark_uncorr2", "dark_corr"])
    def test_product_overflow(self, tmp_path, capsys, key, command):
        # a finite covariance whose products' squares, summed by the estimator, overflow
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"preset = paper-quick\n{key} = 1e308\n")
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: sample products overflow" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "grid",
        [
            "lo_scan_field_strengths = 0",
            "lo_scan_field_strengths = 0,0",
            "lo_scan_field_strengths = 0,1.4,1.4",
            "lo_scan_powers_uw = 0,1e5",
        ],
    )
    def test_short_lo_grid(self, tmp_path, capsys, grid):
        # separate_by_lo needs 3 distinct strengths: refused before anything is written
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"preset = paper-quick\n{grid}\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: the LO scan grid needs at least 3 distinct" in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_tiny_lo_grid(self, tmp_path, capsys):
        # E_L^2 underflows on this grid; the by-LO fit on E_L / e_ref does not
        cfg = tmp_path / "tiny_grid.cfg"
        cfg.write_text("preset = paper-quick\nlo_scan_field_strengths = 0,1e-200,2e-200\n")
        out = tmp_path / "run"
        assert main(["reproduce-paper", "--config", str(cfg), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert (out / "lo_table.txt").exists()

    def test_non_passive_splitter(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("splitter_ts2 = 0.9\nsplitter_rs2 = 0.1\nsplitter_tl2 = 0.1\nsplitter_rl2 = 0.9\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "passive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "reproduce-paper"])
    def test_negative_seed_flag(self, tmp_path, tiny_config_path, capsys, command):
        # --seed reaches the config through with_seed, which checks the seed alone
        out = tmp_path / "run"
        assert main([command, "--config", tiny_config_path, "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: seed" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "reproduce-paper"])
    @pytest.mark.parametrize(
        "lines", ["gain1 = 1e-90\ngain2 = 1e-90\n", "eta1 = 1e-320\n"], ids=["gains", "eta1"]
    )
    def test_underflowing_products(self, tmp_path, capsys, command, lines):
        # every segment's stderr would underflow: refused before --out is made
        cfg = tmp_path / "tiny_products.cfg"
        cfg.write_text(TINY + lines)
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: sample products underflow" in err and "Traceback" not in err
        assert not out.exists()

    def test_underflowing_record(self, tmp_path, tiny_config_path, capsys):
        # a hand-scaled record: every sample times 1e-90, so the squared deviations of
        # the products (about 1e-360) underflow to 0.0 and would leave no standard error
        out = tmp_path / "run"
        assert main(["simulate", "--config", tiny_config_path, "--out", str(out)]) == 0
        for name in ("phase_scan.txt", "lo_scan.txt"):
            lines = (out / name).read_bytes().splitlines(keepends=True)
            for i, line in enumerate(lines):
                if not line.startswith(b"#"):
                    pair = np.frombuffer(bytes.fromhex(line[:-1].decode()), "<f8") * 1e-90
                    lines[i] = pair.astype("<f8").tobytes().hex().encode() + b"\n"
            (out / name).write_bytes(b"".join(lines))
        capsys.readouterr()
        assert main(["analyze", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "squared deviations underflow" in err and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["lo_scan.txt", "phase_scan.txt"]

    def test_simulate_takes_no_format(self, tmp_path, tiny_config_path, capsys):
        # simulate writes records only: argparse refuses the report format
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", tiny_config_path, "--out", str(out), "--format", "text"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("totally_unknown = 1\n")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_unknown_key_in_records(self, tmp_path, tiny_config_path, capsys):
        # a misspelt key in both record headers is refused, not analyzed with gain 1
        out = tmp_path / "run"
        assert main(["simulate", "--config", tiny_config_path, "--out", str(out)]) == 0
        for name in ("phase_scan.txt", "lo_scan.txt"):
            add_old_echo_lines(out / name, ["# gian1=2.0\n"])
        capsys.readouterr()
        assert main(["analyze", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "unknown keys 'gian1'" in err and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["lo_scan.txt", "phase_scan.txt"]

    @pytest.mark.parametrize("flags", [[], ["--config", "tiny.cfg"]])
    def test_unknown_key_in_separation(self, tmp_path, tiny_separation, capsys, flags):
        # a config error in separation.json: exit 2, as for its other config errors
        (tmp_path / "tiny.cfg").write_text(TINY)
        doc = copy.deepcopy(tiny_separation)
        doc["config"]["gian1"] = "2.0"
        out = tmp_path / "run"
        out.mkdir()
        (out / "separation.json").write_text(json.dumps(doc))
        flags = [str(tmp_path / f) if f.endswith(".cfg") else f for f in flags]
        capsys.readouterr()
        assert main(["test", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "gian1" in err and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["separation.json"]

    @pytest.mark.parametrize("key", ["schedule", "sig_threshold"])
    def test_removed_key(self, tmp_path, capsys, key):
        # the acquisition plan and the 3 sigma verdict threshold are fixed
        line = next(line for line in OLD_ECHO_LINES if line.startswith(f"# {key}="))
        bad = tmp_path / "bad.cfg"
        bad.write_text(line[2:])
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unknown key '{key}'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("squeeze_angle_rad = 1e308", "squeeze angle must be finite when doubled, got 1e+308"),
            ("squeeze_angle_rad = nan", "angle must be finite, got nan"),
            ("alpha_re = inf", "alpha must be finite, got (inf+0j)"),
        ],
    )
    def test_non_finite_signal_named(self, tmp_path, capsys, line, message):
        # the message names the signal quantity and its value
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"preset = paper-quick\n{line}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "reproduce-paper"])
    def test_huge_squeeze_angle(self, tmp_path, capsys, command):
        # a finite angle whose double is not: exp(2i angle) has no value
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("preset = paper-quick\nsqueeze_angle_rad = 1e308\n")
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "must be finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_swapped_segment_kinds(self, tmp_path, tiny_config_path, capsys):
        # blocked-LO run b written first: what a version with a configurable plan wrote
        # for another plan; its rows would go to the wrong segments
        out = tmp_path / "run"
        assert main(["simulate", "--config", tiny_config_path, "--out", str(out)]) == 0
        record = out / "phase_scan.txt"
        text = record.read_text()
        swaps = ((0, "blocked_lo_a", "blocked_lo_b"), (17, "blocked_lo_b", "blocked_lo_a"))
        for i, kind, swapped in swaps:
            line = f"# segment.{i}.kind={kind}\n"
            assert line in text
            text = text.replace(line, f"# segment.{i}.kind={swapped}\n")
        record.write_text(text)
        capsys.readouterr()
        assert main(["analyze", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "calibration run blocked_lo_a (plan position 0)" in err and "kind" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["lo_scan.txt", "phase_scan.txt"]

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            (TINY + "visibility 0.9\n", [], "expected 'key = value'"),
            (TINY, ["--preset", "paper-quick"], "either --config or --preset"),
            (TINY + "lo_power_uw = 275.0\n", [], "either lo_field_strength or lo_power_uw"),
            (
                TINY + "lo_scan_powers_uw = 0,117,166,216,275\n",
                [],
                "either lo_scan_field_strengths or lo_scan_powers_uw",
            ),
        ],
        ids=[
            "line-without-equals",
            "config-and-preset",
            "lo-field-strength-and-power",
            "lo-grid-strengths-and-powers",
        ],
    )
    def test_config_refused(self, tmp_path, capsys, text, flags, message):
        cfg, out = tmp_path / "bad.cfg", tmp_path / "run"
        cfg.write_text(text)
        for command in ("simulate", "reproduce-paper"):
            assert main([command, "--config", str(cfg), *flags, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "config error:" in err and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "reproduce-paper"])
    def test_out_under_a_file(self, tmp_path, tiny_config_path, capsys, command):
        # an --out directory below a regular file cannot be made: nothing is written
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        assert main([command, "--config", tiny_config_path, "--out", str(blocker / "run")]) == 3
        err = capsys.readouterr().err
        assert "data error: output directory not writable" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "tiny.cfg"]
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text, out: text.replace(b"# kind=", b"# note=\xff\n# kind="), "not UTF-8"),
            (
                lambda text, out: re.sub(rb"# segment\.1\.phi=[^\n]*", b"# segment.1.phi=nan", text),
                "phase nan in the header is not finite",
            ),
            (lambda text, out: (out / "lo_scan.txt").read_bytes(), "holds a lo_scan record"),
        ],
        ids=["header-not-utf8", "nan-segment-phase", "lo-record-as-phase-record"],
    )
    def test_record_refused(self, tmp_path, tiny_config_path, capsys, edit, message):
        out = tmp_path / "run"
        assert main(["simulate", "--config", tiny_config_path, "--out", str(out)]) == 0
        record = out / "phase_scan.txt"
        record.write_bytes(edit(record.read_bytes(), out))
        capsys.readouterr()
        assert main(["analyze", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "data error:" in err and message in err and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["lo_scan.txt", "phase_scan.txt"]

    def test_partial_record_echo_refused(self, tmp_path, capsys):
        # both headers without their squeezing lines: build_config would read the
        # preset's -2.7 and 5.5 dB in place of this config's -6 and 8
        cfg, out = tmp_path / "squeezed.cfg", tmp_path / "run"
        cfg.write_text(
            TINY.replace("squeezing_db = -2.7", "squeezing_db = -6").replace("= 5.5", "= 8")
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("phase_scan.txt", "lo_scan.txt"):
            text, count = re.subn(rb"# (anti)?squeezing_db=[^\n]*\n", b"", (out / name).read_bytes())
            assert count == 2
            (out / name).write_bytes(text)
        capsys.readouterr()
        assert main(["analyze", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "phase_scan.txt: its config echo lacks antisqueezing_db, squeezing_db" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["lo_scan.txt", "phase_scan.txt"]

    @pytest.mark.parametrize(
        "name, position, segment",
        [
            ("lo_scan.txt", 0, "segment lo_phase 0 (plan position 0)"),
            ("lo_scan.txt", 3, "segment lo_phase_pi 1 (plan position 3)"),
            ("lo_scan.txt", 8, "calibration run blocked_signal (plan position 8)"),
            ("phase_scan.txt", 0, "calibration run blocked_lo_a (plan position 0)"),
        ],
    )
    def test_planned_phase_checked(self, tmp_path, tiny_config_path, capsys, name, position, segment):
        # the plan fixes the phase of every segment but a phase scan's phases: a phase
        # line that is not the plan's would move phi_ref or mislabel the segment
        out = tmp_path / "run"
        assert main(["simulate", "--config", tiny_config_path, "--out", str(out)]) == 0
        record = out / name
        text, count = re.subn(
            rf"# segment\.{position}\.phi=[^\n]*".encode(),
            f"# segment.{position}.phi=0.1".encode(),
            record.read_bytes(),
        )
        assert count == 1
        record.write_bytes(text)
        capsys.readouterr()
        assert main(["analyze", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "data error:" in err and segment in err and "phi '0.1'" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["lo_scan.txt", "phase_scan.txt"]

    def test_record_write_error(self, tmp_path, tiny_config_path, capsys, monkeypatch):
        # an OSError while a record is written, as on a full disk: no file is left
        monkeypatch.setattr(records, "open", lambda *args: _FullDisk(open(*args)), raising=False)
        out = tmp_path / "run"
        assert main(["simulate", "--config", tiny_config_path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "data error: cannot write" in err and "No space left" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_missing_record(self, tmp_path, capsys):
        assert main(["analyze", "--out", str(tmp_path / "empty")]) == 3
        assert "data error" in capsys.readouterr().err

    def test_truncated_record(self, tmp_path, tiny_config_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--config", tiny_config_path, "--out", str(out)]) == 0
        record = out / "phase_scan.txt"
        record.write_text("".join(record.read_text().splitlines(keepends=True)[:-1000]))
        capsys.readouterr()
        assert main(["analyze", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "blocked_signal" in err and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["lo_scan.txt", "phase_scan.txt"]

    @pytest.mark.parametrize(
        "command, name",
        [
            ("simulate", "phase_scan.txt"),
            ("simulate", "lo_scan.txt"),
            ("analyze", "phase_scan.txt"),
            ("analyze", "lo_scan.txt"),
            ("analyze", "fit_report.txt"),
            ("analyze", "separation.json"),
            ("test", "separation.json"),
            ("test", "det_table.txt"),
        ],
    )
    def test_path_is_a_directory(
        self, tmp_path, tiny_config_path, capsys, monkeypatch, command, name
    ):
        # an input or output file that is a directory is a data error: no file of
        # an earlier run is written or replaced, and nothing is drawn
        out = tmp_path / "run"
        steps = ("simulate", "analyze", "test")
        for step in steps[: steps.index(command) + 1]:
            assert main([step, "--config", tiny_config_path, "--out", str(out)]) == 0
        (out / name).unlink()
        (out / name).mkdir()

        def snapshot():
            return {
                p.name: p.is_dir() or (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
                for p in out.iterdir()
            }

        before, draws = snapshot(), []
        segment_chunks = detector.segment_chunks
        monkeypatch.setattr(
            detector, "segment_chunks", lambda *args: draws.append(args) or segment_chunks(*args)
        )
        capsys.readouterr()
        assert main([command, "--config", tiny_config_path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "data error:" in err and "Traceback" not in err
        assert snapshot() == before
        assert draws == []

    def test_test_requires_analyze_output(self, tmp_path, capsys):
        assert main(["test", "--out", str(tmp_path)]) == 3
        assert "analyze" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, code, message",
        [
            ("{not json", 3, "data error: malformed"),
            ('{"config": {}}', 3, "data error: malformed"),
            ("[1,2]", 3, "data error: malformed"),
            # the embedded config is checked like a config file
            ('{"config": {"seed": "-1"}}', 2, "config error: seed"),
            # edits of the file analyze writes for TINY: valid JSON, bad contents
            (lambda doc: doc.update(phis=[]), 3, "data error: malformed"),
            (lambda doc: doc["phase"].update(params=doc["phase"]["params"][:3]), 3, "data error: malformed"),
            (lambda doc: doc["lo"].pop("phi_ref"), 3, "data error: malformed"),
            (lambda doc: doc["phase"]["cov"][5].__setitem__(5, "x"), 3, "data error: malformed"),
            (lambda doc: doc["phase"].update(cov=[[math.nan] * 6] * 6), 3, "data error: malformed"),
            # well-formed separations in each other's place
            (lambda doc: doc.update(phase=doc["lo"]), 3, "data error: malformed"),
            (lambda doc: doc.update(lo=doc["phase"]), 3, "data error: malformed"),
            # a negative variance would certify every phase with det < 0 at inf sigma
            (lambda doc: negate_variances(doc["phase"]), 3, "data error: malformed"),
            (lambda doc: negate_variances(doc["lo"]), 3, "data error: malformed"),
            # build_config would read the missing keys with the preset's values
            (
                lambda doc: [doc["config"].pop(key) for key in ("seed", "squeezing_db")],
                3,
                "separation.json: its config echo lacks seed, squeezing_db",
            ),
            # JSON integers beyond the float range
            (lambda doc: doc["phase"]["params"].__setitem__(0, 10**400), 3, "data error: malformed"),
            (lambda doc: doc["phis"].__setitem__(0, 10**400), 3, "data error: malformed"),
            # finite parameters whose contributions overflow to inf
            (
                lambda doc: doc["phase"].update(params=[1e308] * 6),
                4,
                "test precondition error: the contributions overflow",
            ),
        ],
        ids=[
            "not-json",
            "no-separation",
            "not-an-object",
            "bad-config",
            "empty-phis",
            "short-coeffs",
            "lo-without-phi-ref",
            "c0-sigma-not-a-number",
            "nan-coeff-cov",
            "lo-as-phase",
            "phase-as-lo",
            "phase-negative-variances",
            "lo-negative-variances",
            "partial-echo",
            "params-past-float-range",
            "phis-past-float-range",
            "overflowing-contributions",
        ],
    )
    def test_malformed_separation(self, tmp_path, capsys, request, content, code, message):
        if callable(content):
            doc = copy.deepcopy(request.getfixturevalue("tiny_separation"))
            content(doc)
            content = json.dumps(doc)
            capsys.readouterr()
        (tmp_path / "separation.json").write_text(content)
        for fmt in ("text", "structured"):
            assert main(["test", "--out", str(tmp_path), "--format", fmt]) == code
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["separation.json"]

    def test_stale_lo_record(self, tmp_path, tiny_config_path, capsys):
        # a second simulate without an LO grid leaves the first run's lo_scan.txt behind
        out = tmp_path / "run"
        args = ["simulate", "--out", str(out), "--config"]
        assert main([*args, tiny_config_path, "--seed", "1"]) == 0
        no_lo = tmp_path / "no_lo.cfg"
        no_lo.write_text(TINY.replace("lo_scan_field_strengths = 0.0,1.4,2.0,2.8", "lo_scan_powers_uw ="))
        assert main([*args, str(no_lo), "--seed", "2"]) == 0
        capsys.readouterr()
        assert main(["analyze", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "lo_scan.txt" in err and "phase_scan.txt" in err and "different configs" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["lo_scan.txt", "phase_scan.txt"]

    def test_constant_segment(self, tmp_path, tiny_config_path, capsys):
        # segment.1, the first phase after the 9 000 rows of blocked_lo_a, made all zero:
        # its zero stderr among positive ones leaves the fit without weights
        out = tmp_path / "run"
        assert main(["simulate", "--config", tiny_config_path, "--out", str(out)]) == 0
        record = out / "phase_scan.txt"
        lines = record.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 9000
        lines[first : first + 3000] = ["0" * 32 + "\n"] * 3000
        record.write_text("".join(lines))
        capsys.readouterr()
        assert main(["analyze", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "all positive or all zero" in err and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["lo_scan.txt", "phase_scan.txt"]

    def test_constant_lo_segment(self, tmp_path, tiny_config_path, capsys):
        # the same for the LO scan: segment.2 (lo_phase at the second field strength,
        # after two 3 000-row segments) made all zero; each segment is one design row,
        # so no average over the phase pair hides its zero stderr
        out = tmp_path / "run"
        assert main(["simulate", "--config", tiny_config_path, "--out", str(out)]) == 0
        record = out / "lo_scan.txt"
        lines = record.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 6000
        lines[first : first + 3000] = ["0" * 32 + "\n"] * 3000
        record.write_text("".join(lines))
        capsys.readouterr()
        assert main(["analyze", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "all positive or all zero" in err and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["lo_scan.txt", "phase_scan.txt"]

    def test_balanced_splitter_precondition(self, tmp_path, capsys):
        cfg = tmp_path / "balanced.cfg"
        cfg.write_text(
            TINY.replace("splitter_ts2 = 0.86", "splitter_ts2 = 0.5")
            .replace("splitter_tl2 = 0.86", "splitter_tl2 = 0.5")
            .replace("splitter_rs2 = 0.14", "splitter_rs2 = 0.5")
            .replace("splitter_rl2 = 0.14", "splitter_rl2 = 0.5")
        )
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", str(cfg), "--out", out]) == 0
        assert main(["analyze", "--out", out]) == 0
        code = main(["test", "--out", out])
        assert code == 4
        err = capsys.readouterr().err
        assert "unbalanced" in err

    def test_unequal_splitter_products_refused(self, tmp_path, capsys):
        # t0 != 1: simulate and analyze run, the determinant test refuses and writes nothing
        cfg = tmp_path / "asymmetric.cfg"
        cfg.write_text(CLASSICAL_ASYMMETRIC)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["analyze", "--out", str(out)]) == 0
        before = sorted(p.name for p in out.iterdir())
        capsys.readouterr()
        assert main(["test", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "test precondition error: splitter with |T_S R_S| != |T_L R_L| (t0 = 1.17236)" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == before
        with pytest.raises(PreconditionError, match=r"\|T_S R_S\| != \|T_L R_L\|"):
            run_pipeline(config_mod.load_config(str(cfg)))

    def test_degenerate_splitter_precondition(self, tmp_path, capsys):
        # passive but lossy, with R_L = 0: the coefficient algebra has no finite solution
        cfg = tmp_path / "degenerate.cfg"
        cfg.write_text(
            TINY.replace("splitter_ts2 = 0.86", "splitter_ts2 = 0.5")
            .replace("splitter_tl2 = 0.86", "splitter_tl2 = 0.5")
            .replace("splitter_rs2 = 0.14", "splitter_rs2 = 0.1")
            .replace("splitter_rl2 = 0.14", "splitter_rl2 = 0")
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["analyze", "--out", str(out)]) == 0
        before = sorted(p.name for p in out.iterdir())
        capsys.readouterr()
        assert main(["test", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "test precondition error: need rl2 > 0 and ts2 > 0" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == before
        repro = tmp_path / "repro"
        assert main(["reproduce-paper", "--config", str(cfg), "--out", str(repro)]) == 4
        assert "Traceback" not in capsys.readouterr().err
        assert not any(repro.iterdir())


# a small config on which simulate, analyze and test all run in milliseconds
FUZZ_BASE = {
    "n_phases": "8",
    "samples_per_phase": "200",
    "blocked_samples": "400",
    "seed": "3",
    "lo_field_strength": "2.8",
    "lo_scan_field_strengths": "0,1.4,2.8",
}
# keys that replace a FUZZ_BASE key given in another parametrization
FUZZ_REPLACES = {
    "lo_power_uw": "lo_field_strength",
    "lo_amp_per_sqrt_uw": "lo_field_strength",
    "lo_scan_powers_uw": "lo_scan_field_strengths",
}


# every key, every extreme value; a list key also after a leading 0 (the LO grid's blocked point)
FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e5", "1e308", "1e-320", "1e-200", "1e-50", "x", "")
FUZZ_CASES = [
    (key, value, after_zero)
    for key in sorted(config_mod._ALL_KEYS)
    for value in FUZZ_VALUES
    for after_zero in ((False, True) if key in config_mod._LIST_KEYS else (False,))
]

def test_unknown_preset_refused():
    with pytest.raises(ConfigError, match="unknown preset 'papr'"):
        config_mod.preset_config("papr")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # extreme values overflow on purpose
def test_cli_fuzz_exit_codes():
    """One config key set to an extreme value, for the whole grid: every CLI step
    exits with a documented code, raises nothing, and leaves no temporary or
    partial file, and every separation.json that analyze writes loads again.
    (eta1 = 1e-320 makes the segment variances subnormal, and squeeze_angle_rad =
    1e308 the phase factor exp(2i angle): both are refused when the config is
    built.)"""
    keys = len(config_mod._ALL_KEYS) + len(config_mod._LIST_KEYS)
    assert len(FUZZ_CASES) == len(FUZZ_VALUES) * keys
    for key, value, after_zero in FUZZ_CASES:
        case = (key, value, after_zero)
        flat = {k: v for k, v in FUZZ_BASE.items() if k != FUZZ_REPLACES.get(key)}
        flat[key] = f"0,{value}" if after_zero else value
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = os.path.join(tmp, "fuzz.cfg"), os.path.join(tmp, "run")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{k} = {v}\n" for k, v in flat.items()))
            written = set()
            for args in (["simulate", "--config", cfg], ["analyze"], ["test"]):
                code = main([*args, "--out", out])
                assert code in (0, 2, 3, 4), (case, args[0], code)
                files = set(os.listdir(out)) if os.path.isdir(out) else set()
                assert not any(name.endswith(".tmp") for name in files), case
                if code != 0:
                    # a failed step writes nothing
                    assert files == written, (case, args[0], files - written)
                    break
                if args[0] == "analyze":
                    with open(os.path.join(out, "separation.json"), encoding="utf-8") as fh:
                        payload = json.load(fh)
                    for part in {"phase", "lo"} & payload.keys():
                        SeparatedContributions.from_dict(payload[part])
                written = files
