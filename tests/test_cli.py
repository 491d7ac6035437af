import copy
import hashlib
import json
import math
import os
import tempfile

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from hccm import config as config_mod
from hccm import detector
from hccm.cli import main

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
            "phase_scan.txt": "7bc5a3b810a96003c4d3e8f6b459bb1261337b5f18ce4d66a85f59c9f4ec05af",
            "lo_scan.txt": "64167f2332fd41b65a2cad363563cac5eda93d312b751d12ebd2d4a3d1256bf5",
            "separation.json": "fcfb18badee12f8126291f41b9765607c7e70de1b0104fbb6024ba61833c1083",
            "det_table.txt": "d6b4efebd73f251bfec86530a3da56ec4761c0018cf57f0b1cb6c63bbf1c00b4",
        }
        assert chain_digests(tmp_path / "run", tiny_config_path, golden) == golden

    def test_noisy_tiny_outputs_golden(self, tmp_path):
        # the same for TINY with dark noise and LO noise on: pins the noisy sampler,
        # which draws each segment from the Cholesky factor of its total covariance
        golden = {
            "phase_scan.txt": "d9f37dd32c7b57df738ae676c20734a98fcff3c72fa46ba2c73750b0f64da176",
            "lo_scan.txt": "0a5f3a476637ddd38f2305653c5e901263fa199168dd181861f474a789f282ae",
            "separation.json": "ad384fa3d057183f77ea14546c6b8554e0cbd1cc0985a5aa84eb4b4f244c1cc5",
            "det_table.txt": "918ae710a3c7a766744446ddb7e543f895babe6a87a8ae0aafa549af0009eba2",
        }
        path = tmp_path / "noisy.cfg"
        path.write_text(NOISY_TINY)
        assert chain_digests(tmp_path / "run", str(path), golden) == golden


class TestConfigCheck:
    """analyze and test read their config from their input; --config, --preset
    and --seed given to them must name that config."""

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
    assert config_mod.build_config(config_mod.config_to_flat(cfg)) == cfg


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
            "sig_threshold",
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

    @pytest.mark.parametrize("threshold", ["0", "-1"])
    def test_non_positive_sig_threshold(self, tmp_path, capsys, threshold):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"sig_threshold = {threshold}\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: sig_threshold must be > 0" in err and "Traceback" not in err
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
            (lambda doc: doc.update(coeffs=doc["coeffs"][:3]), 3, "data error: malformed"),
            (lambda doc: doc["lo"].pop("phi_ref"), 3, "data error: malformed"),
            (lambda doc: doc.update(c0_sigma="x"), 3, "data error: malformed"),
            (lambda doc: doc.update(coeff_cov=[[math.nan] * 5] * 5), 3, "data error: malformed"),
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # extreme values overflow on purpose
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    key=st.sampled_from(sorted(config_mod._ALL_KEYS)),
    value=st.sampled_from(
        ["nan", "inf", "-inf", "0", "-1", "1e5", "1e308", "1e-320", "1e-200", "1e-50"]
    ),
    after_zero=st.booleans(),
)
# eta1 = 1e-320 makes the segment variances subnormal: refused when the config is built
@example(key="eta1", value="1e-320", after_zero=False)
def test_cli_fuzz_exit_codes(key, value, after_zero):
    """One config key set to an extreme value: every CLI step exits with a
    documented code, raises nothing, and leaves no temporary or partial file."""
    flat = {k: v for k, v in FUZZ_BASE.items() if k != FUZZ_REPLACES.get(key)}
    flat[key] = f"0,{value}" if after_zero and key in config_mod._LIST_KEYS else value
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "fuzz.cfg"), os.path.join(tmp, "run")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in flat.items()))
        written = set()
        for args in (["simulate", "--config", cfg], ["analyze"], ["test"]):
            code = main([*args, "--out", out])
            event(f"{args[0]} {code}")
            assert code in (0, 2, 3, 4), (args[0], code)
            files = set(os.listdir(out)) if os.path.isdir(out) else set()
            assert not any(name.endswith(".tmp") for name in files)
            if code != 0:
                # a failed step writes nothing
                assert files == written, (args[0], files - written)
                break
            written = files
