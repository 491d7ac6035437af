import json
import math
import os
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hccm import config as config_mod
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


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


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
        # the record round trip changes no report byte
        two, one = str(tmp_path / "two"), str(tmp_path / "one")
        assert main(["simulate", "--config", tiny_config_path, "--out", two]) == 0
        assert main(["analyze", "--out", two]) == 0
        assert main(["test", "--out", two]) == 0
        assert main(["reproduce-paper", "--config", tiny_config_path, "--out", one]) == 0
        for name in ("fit_report.txt", "phase_table.txt", "lo_table.txt", "det_table.txt"):
            assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


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

    def test_non_passive_splitter(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("splitter_ts2 = 0.9\nsplitter_rs2 = 0.1\nsplitter_tl2 = 0.1\nsplitter_rl2 = 0.9\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "passive" in capsys.readouterr().err
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

    def test_test_requires_analyze_output(self, tmp_path, capsys):
        assert main(["test", "--out", str(tmp_path)]) == 3
        assert "analyze" in capsys.readouterr().err

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
    value=st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e5", "1e308"]),
    after_zero=st.booleans(),
)
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
