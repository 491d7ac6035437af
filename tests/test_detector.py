import decimal
import importlib.util
import itertools
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hccm import detector
from hccm.analysis import CHUNK_ROWS, estimate_correlation, reduce_chunks
from hccm.config import preset_config
from hccm.detector import (
    _KIND_IDS,
    KIND_PHASE,
    DetectorConfig,
    ExperimentConfig,
    SignalParams,
    _ziggurat_normals,
    _ziggurat_tables,
    draw_segment,
    drift_factor,
    expected_segments,
    lo_scan_plan,
    phase_scan_plan,
    plan_chunks,
    plan_seeds,
    scan_estimates,
    scan_plan,
    segment_factors,
    segment_statistics,
    simulate_estimates,
    simulate_segments,
    substream,
)
from hccm.errors import ConfigError
from hccm.pipeline import analyze_phase_estimates, run_pipeline
from hccm.gaussian import (
    LocalOscillator,
    apply_loss,
    from_quadrature_variances,
    photocurrent_covariance,
    two_mode_output,
    vacuum,
)
from hccm.splitter import BeamSplitter, symmetric_splitter

from conftest import truth_correlation

BENCH = Path(__file__).resolve().parent.parent / "bench"


def draw_plan(cfg, specs):
    return [draw_segment(cfg, spec) for spec in specs]


def _segment_rng(cfg, spec):
    """The generator of one segment's substream, as every sampler seeds it."""
    return substream(plan_seeds(cfg, [spec])[0])


def seed_sequence_row(seed, kind, index):
    """The oracle of a row of plan_seeds: row index of the uint64 words of numpy's
    SeedSequence([seed, kind id])."""
    seq = np.random.SeedSequence([seed, _KIND_IDS[kind]])
    return seq.generate_state(3 * (index + 1), np.uint64)[3 * index :]


NOISY = DetectorConfig(
    eta1=0.9,
    eta2=0.8,
    gain1=1.3,
    gain2=0.7,
    dark_uncorr1=2.0,
    dark_uncorr2=1.0,
    dark_corr=0.5,
    lo_excess=0.002,
)


def small_config(**overrides):
    base = dict(
        signal=SignalParams(v_min=0.537, v_max=3.548, angle=np.pi / 2, alpha=3.0 + 0j),
        e_l=2.8,
        phases=tuple(2 * np.pi * i / 12 for i in range(12)),
        samples_per_phase=2000,
        blocked_samples=4000,
        seed=77,
        detector=DetectorConfig(eta1=0.94, eta2=0.94),
        splitter=symmetric_splitter(0.14),
        visibility=0.96,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_bad_samples(self):
        with pytest.raises(ConfigError):
            small_config(samples_per_phase=1)

    def test_empty_phases(self):
        with pytest.raises(ConfigError):
            small_config(phases=())

    def test_bad_visibility(self):
        with pytest.raises(ConfigError):
            small_config(visibility=0.0)

    def test_negative_seed(self):
        with pytest.raises(ConfigError):
            small_config(seed=-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["e_l", "drift_rate", "lo_scan_phi", "phases", "lo_scan_e_l"])
    def test_non_finite_rejected(self, field, bad):
        value = {"phases": (0.0, bad, 1.0), "lo_scan_e_l": (0.0, bad)}.get(field, bad)
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field", ["gain1", "gain2", "dark_uncorr1", "dark_uncorr2", "dark_corr", "lo_excess"]
    )
    def test_non_finite_detector_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            DetectorConfig(**{field: bad})

    def test_signal_checks_match_the_state(self):
        # SignalParams refuses, in closed form and with its message, what
        # from_quadrature_variances refuses; a non-finite variance it names, with its value
        grid = (0.0, 0.5, 1.0 - 1e-10, 1.0, 2.0, np.inf, np.nan)
        for v_min, v_max in itertools.product(grid, repeat=2):
            try:
                from_quadrature_variances(v_min, v_max, 0.3, 1j)
            except ValueError as exc:
                message = str(exc)
                if not np.isfinite([v_min, v_max]).all():
                    name, value = ("v_max", v_max) if np.isfinite(v_min) else ("v_min", v_min)
                    message = f"{name} must be finite, got {value!r}"
                with pytest.raises(ConfigError, match=re.escape(message)):
                    SignalParams(v_min, v_max, 0.3, 1j)
            else:
                SignalParams(v_min, v_max, 0.3, 1j)

    @pytest.mark.parametrize(
        "angle, alpha", [(1e308, 0j), (-1e308, 0j), (np.nan, 0j), (0.0, complex(0.0, np.inf))]
    )
    def test_signal_phase_factor_finite(self, angle, alpha):
        # segment_statistics takes exp(2i angle): a finite angle whose double is not is refused
        with pytest.raises(ConfigError, match="must be finite"):
            SignalParams(1.0, 2.0, angle, alpha)

    def test_non_passive_splitter_rejected(self):
        # a valid BeamSplitter whose amplitude map amplifies: no vacuum completion
        bs = BeamSplitter(ts2=0.9, tl2=0.1, rs2=0.1, rl2=0.9)
        with pytest.raises(ConfigError, match="passive"):
            small_config(splitter=bs)

    @pytest.mark.parametrize(
        "overrides",
        [
            # finite rate, but the drift factor of the last block is not
            dict(drift_rate=1e308),
            dict(drift_rate=1e308, signal=SignalParams(1.0, 1.0, 0.0, 0j)),
            # finite values whose squares overflow the covariance
            dict(drift_rate=1e160),
            dict(e_l=1e160),
            dict(lo_scan_e_l=(0.0, 1e160)),
            dict(detector=DetectorConfig(gain1=1e200)),
            dict(detector=DetectorConfig(dark_corr=1e300, gain1=1e10)),
        ],
    )
    def test_covariance_overflow_rejected(self, overrides):
        with pytest.raises(ConfigError, match="overflows"):
            small_config(**overrides)

    def test_lo_grid_must_start_at_zero(self):
        with pytest.raises(ConfigError, match="LO scan grid"):
            small_config(lo_scan_e_l=(1.0, 2.0))
        with pytest.raises(ConfigError, match="LO scan grid"):
            small_config(lo_scan_e_l=(0.0, -1.0))


def composed_statistics(cfg, spec):
    """segment_statistics through validated Gaussian states: the reference."""
    det = cfg.detector
    e_l = 0.0 if spec.kind in ("blocked_lo_a", "blocked_lo_b") else spec.e_l
    state = cfg.signal.state(drift_factor(cfg, spec.block))
    if spec.kind == "blocked_signal":
        state = vacuum()
    lo = LocalOscillator(cfg.visibility * e_l, spec.phi)
    joint = apply_loss(two_mode_output(state, lo, cfg.splitter), (det.eta1, det.eta2))
    pcov = photocurrent_covariance(joint)
    etas, gains = np.array([det.eta1, det.eta2]), np.array([det.gain1, det.gain2])
    lo_ports = np.array([cfg.splitter.rl2, cfg.splitter.tl2])
    pcov[np.diag_indices(2)] += etas * (1.0 - cfg.visibility**2) * e_l**2 * lo_ports
    lo_flux = etas * e_l**2 * lo_ports
    sigma_q = np.outer(gains, gains) * pcov
    sigma_total = sigma_q + det.dark_corr * np.outer(gains, gains)
    sigma_total[np.diag_indices(2)] += gains**2 * np.array([det.dark_uncorr1, det.dark_uncorr2])
    sigma_total += det.lo_excess * np.outer(gains * lo_flux, gains * lo_flux)
    return sigma_q, sigma_total, lo_flux


def random_passive_splitter(rng):
    """Random asymmetric lossy splitter with a passive amplitude map."""
    while True:
        ts2, tl2 = rng.uniform(0.05, 0.95, size=2)
        rs2, rl2 = rng.uniform(0.02, 1.0 - ts2), rng.uniform(0.0, 1.0 - tl2)
        bs = BeamSplitter(ts2=ts2, tl2=tl2, rs2=rs2, rl2=rl2)
        amp = [[bs.t_s, bs.r_l], [-bs.r_s, bs.t_l]]
        if np.linalg.svd(amp, compute_uv=False)[0] <= 1.0:
            return bs


def test_closed_form_matches_composed_states(rng):
    kinds = set()
    worst = 0.0
    for _ in range(60):
        r, extra = rng.uniform(0.0, 1.0), rng.uniform(1.0, 2.0)
        cfg = small_config(
            signal=SignalParams(
                v_min=extra * np.exp(-2 * r),
                v_max=extra * np.exp(2 * r),
                angle=rng.uniform(0.0, 2 * np.pi),
                alpha=complex(*rng.uniform(-3.0, 3.0, size=2)),
            ),
            e_l=rng.uniform(0.1, 4.0),
            phases=tuple(rng.uniform(0.0, 2 * np.pi, size=4)),
            drift_rate=rng.uniform(0.0, 0.05),
            detector=DetectorConfig(
                eta1=rng.uniform(0.3, 1.0),
                eta2=rng.uniform(0.3, 1.0),
                gain1=rng.uniform(0.2, 3.0),
                gain2=rng.uniform(0.2, 3.0),
                dark_uncorr1=rng.uniform(0.0, 2.0),
                dark_uncorr2=rng.uniform(0.0, 2.0),
                dark_corr=rng.uniform(0.0, 1.0),
                lo_excess=rng.uniform(0.0, 0.1),
            ),
            splitter=random_passive_splitter(rng),
            visibility=rng.uniform(0.5, 1.0),
        )
        grid = (0.0, *rng.uniform(0.1, 4.0, size=2))
        for spec in phase_scan_plan(cfg) + lo_scan_plan(cfg, rng.uniform(0, 2 * np.pi), grid):
            kinds.add(spec.kind)
            for ours, ref in zip(segment_statistics(cfg, spec), composed_statistics(cfg, spec)):
                scale = np.abs(ref).max()
                assert np.abs(ours - ref).max() <= 1e-12 * scale
                worst = max(worst, np.abs(ours - ref).max() / max(scale, 1e-300))
    assert len(kinds) == 6
    print(f"closed form vs composed states: worst relative difference {worst:.1e}")


class TestDeterminism:
    def test_identical_records(self):
        cfg = small_config()
        r1 = draw_plan(cfg, phase_scan_plan(cfg))
        r2 = draw_plan(cfg, phase_scan_plan(cfg))
        for (a1, a2), (b1, b2) in zip(r1, r2):
            np.testing.assert_array_equal(a1, b1)
            np.testing.assert_array_equal(a2, b2)

    def test_order_independent_segments(self, rng):
        # drawing segments in any order reproduces the record bitwise
        cfg = small_config()
        record = draw_plan(cfg, phase_scan_plan(cfg))
        specs = list(phase_scan_plan(cfg))
        order = rng.permutation(len(specs))
        drawn = {i: draw_segment(cfg, specs[i]) for i in order}
        for i, (seg_c1, seg_c2) in enumerate(record):
            c1, c2 = drawn[i]
            np.testing.assert_array_equal(seg_c1, c1)
            np.testing.assert_array_equal(seg_c2, c2)

    def test_seed_changes_samples(self):
        cfg1, cfg2 = small_config(seed=1), small_config(seed=2)
        r1 = draw_plan(cfg1, phase_scan_plan(cfg1))
        r2 = draw_plan(cfg2, phase_scan_plan(cfg2))
        assert not np.array_equal(r1[0][0], r2[0][0])


LO_GRID = (0.0, 1.4, 2.0, 2.8)


def draw_scans(cfg):
    """Every segment of cfg's phase and LO plans, drawn."""
    specs = scan_plan(cfg, "phase_scan") + scan_plan(cfg, "lo_scan")
    return [draw_segment(cfg, spec) for spec in specs]


def assert_draws_equal(draws, expected):
    assert len(draws) == len(expected)
    for got, want in zip(draws, expected):
        np.testing.assert_array_equal(np.column_stack(got), np.column_stack(want))


class TestSeedFreePlan:
    """The seed-free part of sampling (scan specs, Cholesky factors) is built once per
    config and shared by its with_seed copies, never by a config with other fields."""

    @pytest.mark.parametrize(
        "det", [DetectorConfig(eta1=0.94, eta2=0.94), NOISY], ids=["clean", "noisy"]
    )
    def test_with_seed_draws_equal_replace(self, det):
        cfg = small_config(detector=det, lo_scan_e_l=LO_GRID)
        draw_scans(cfg)  # fills the shared plan
        for seed in (0, 5, 2**40):
            copy, rebuilt = cfg.with_seed(seed), replace(cfg, seed=seed)
            assert copy == rebuilt and hash(copy) == hash(rebuilt)
            assert_draws_equal(draw_scans(copy), draw_scans(rebuilt))
        assert cfg.seed == 77

    def test_with_seed_checks_the_seed(self):
        cfg = small_config()
        for make in (cfg.with_seed, lambda seed: replace(cfg, seed=seed)):
            with pytest.raises(ConfigError, match="^seed must be a non-negative integer$"):
                make(-1)

    @pytest.mark.parametrize(
        "change",
        [dict(e_l=2.0), dict(detector=replace(NOISY, dark_corr=1.5)), dict(phases=(0.1, 0.7, 2.0))],
        ids=["e_l", "dark_corr", "phases"],
    )
    def test_replace_starts_a_new_plan(self, change):
        cfg = small_config(detector=NOISY, lo_scan_e_l=LO_GRID)
        stale = draw_scans(cfg.with_seed(9))
        changed = replace(cfg.with_seed(9), **change)
        fresh = small_config(**{"detector": NOISY, "lo_scan_e_l": LO_GRID, "seed": 9, **change})
        drawn = draw_scans(changed)
        assert_draws_equal(drawn, draw_scans(fresh))
        # the change shows in the samples, so a stale plan would fail the line above
        assert not all(np.array_equal(a[0], b[0]) for a, b in zip(drawn, stale))

    def test_plans_are_new_lists(self):
        cfg = small_config(lo_scan_e_l=LO_GRID)
        plans = [
            lambda: phase_scan_plan(cfg),
            lambda: lo_scan_plan(cfg, cfg.lo_scan_phi, cfg.lo_scan_e_l),
            lambda: scan_plan(cfg, "phase_scan"),
            lambda: scan_plan(cfg, "lo_scan"),
        ]
        for plan in plans:
            first = plan()
            expected = list(first)
            first.append(first[0])
            first.reverse()
            second = plan()
            assert second is not first and second == expected
        assert scan_plan(cfg, "phase_scan") == phase_scan_plan(cfg)

    def test_seed_free_work_once_per_config(self, monkeypatch):
        # building the config computes each plan segment's covariance once; its
        # with_seed runs compute none again and never validate the config again
        counts = {"segment_statistics": 0, "__post_init__": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            detector, "segment_statistics", counted("segment_statistics", segment_statistics)
        )
        monkeypatch.setattr(
            ExperimentConfig,
            "__post_init__",
            counted("__post_init__", ExperimentConfig.__post_init__),
        )
        cfg = small_config(lo_scan_e_l=LO_GRID)
        for seed in range(5):
            run_pipeline(cfg.with_seed(seed), with_lo_scan=True)
        segments = len(scan_plan(cfg, "phase_scan")) + len(scan_plan(cfg, "lo_scan"))
        assert counts == {"segment_statistics": segments, "__post_init__": 1}


class TestSubstreams:
    """Pin the substream generator: a change of bit generator, of its seeding or of
    numpy's normal sampler changes every record of a seed, and must do so loudly."""

    def test_generator_is_sfc64(self):
        cfg = small_config()
        rng = _segment_rng(cfg, phase_scan_plan(cfg)[1])
        assert isinstance(rng.bit_generator, np.random.SFC64)

    def test_first_draws_pinned(self):
        # seed 77, kind "phase" (id 0), index 0
        cfg = small_config()
        spec = phase_scan_plan(cfg)[1]
        assert (spec.kind, spec.index) == (KIND_PHASE, 0)
        draws = _segment_rng(cfg, spec).standard_normal(4)
        assert [float(z).hex() for z in draws] == [
            "0x1.dbed2e6284967p-1",
            "-0x1.1f2fe4004fc36p+1",
            "-0x1.4fe9551a648a7p-3",
            "0x1.bd153edb05f37p-2",
        ]

    def test_noisy_pairs_pinned(self):
        # seed 77, kind "blocked_signal" (id 3), index 0 of a noisy config: the LO is
        # on, so dark noise and LO noise both enter the pairs, through sigma_total
        cfg = small_config(detector=NOISY)
        spec = phase_scan_plan(cfg)[-1]
        assert (spec.kind, spec.index, cfg.seed) == ("blocked_signal", 0, 77)
        c1, c2 = draw_segment(cfg, spec)
        pairs = [(float(x).hex(), float(y).hex()) for x, y in zip(c1[:2], c2[:2])]
        assert pairs == [
            ("0x1.51979a34a97c6p-1", "-0x1.852d57de2f227p+0"),
            ("0x1.903ddde80d374p+1", "0x1.05f66a74ce764p+0"),
        ]

    def test_plan_seeds_follow_the_keys(self):
        # segment (kind, index) takes row index of SeedSequence([seed, kind id])'s words:
        # one- to three-word seeds, across the word boundaries, and random 63-bit seeds
        seeds = [0, 2**32 - 1, 2**32, 2**64 + 3]
        seeds += [int(s) for s in np.random.default_rng(20261019).integers(0, 2**63, 4)]
        for seed in seeds:
            cfg = small_config(seed=seed)
            specs = phase_scan_plan(cfg) + lo_scan_plan(cfg, 1.0, [0.0, 1.0, 2.0])
            rows = plan_seeds(cfg, specs)
            assert rows.shape == (len(specs), 3) and rows.dtype == np.uint64
            for spec, row in zip(specs, rows):
                np.testing.assert_array_equal(row, seed_sequence_row(seed, spec.kind, spec.index))
                if spec.index == 0:  # row 0: the words SFC64 takes from the kind's SeedSequence
                    seq = np.random.SeedSequence([seed, _KIND_IDS[spec.kind]])
                    np.testing.assert_array_equal(
                        substream(row).bit_generator.state["state"]["state"],
                        np.random.SFC64(seq).state["state"]["state"],
                    )

    def test_rows_do_not_depend_on_the_plan(self):
        # a segment's row is the same in the 60- and the 120-phase plan, in any order
        rows = {}
        for n_phases in (60, 120):
            cfg = small_config(phases=tuple(2 * np.pi * i / n_phases for i in range(n_phases)))
            specs = phase_scan_plan(cfg)[::-1]
            for spec, row in zip(specs, plan_seeds(cfg, specs)):
                rows.setdefault((spec.kind, spec.index), []).append(row.tolist())
        assert len(rows) == 123
        assert sum(len(pair) == 2 and pair[0] == pair[1] for pair in rows.values()) == 63

    def test_paper_rows_distinct(self):
        cfg = preset_config("paper")
        specs = scan_plan(cfg, "phase_scan") + scan_plan(cfg, "lo_scan")
        assert len(specs) == 134
        assert len({tuple(row) for row in plan_seeds(cfg, specs).tolist()}) == 134

    def test_segments_uncorrelated_over_seeds(self):
        # the first normals of every pair of the paper-quick phase plan's 63 segments,
        # over S seeds: |corr| below 5/sqrt(S) for every pair
        cfg = preset_config("paper-quick")
        specs = scan_plan(cfg, "phase_scan")
        n_seeds = 1000
        firsts = np.array(
            [
                [substream(row).standard_normal() for row in plan_seeds(cfg.with_seed(seed), specs)]
                for seed in range(n_seeds)
            ]
        )
        corr = np.corrcoef(firsts, rowvar=False)[np.triu_indices(len(specs), 1)]
        print(f"largest |corr| of {corr.size} segment pairs: {np.abs(corr).max():.3f}")
        assert np.abs(corr).max() < 5 / np.sqrt(n_seeds)

    def test_kinds_and_segments_differ(self):
        # blocked_lo_a, phases 0 and 1 (one kind, two indices), blocked_lo_b: index 0 of
        # three kinds; and the lo_phase segments, whose indices repeat those of the phases
        cfg = small_config()
        specs = phase_scan_plan(cfg)[:4] + lo_scan_plan(cfg, 1.0, [0.0, 1.0])[:3]
        assert len({(s.kind, s.index) for s in specs}) == len(specs)
        firsts = {_segment_rng(cfg, s).standard_normal() for s in specs}
        assert len(firsts) == len(specs)


class TestSamplingStatistics:
    def test_degenerate_blocked_vacuum(self):
        cfg = small_config(
            signal=SignalParams(v_min=1.0, v_max=1.0, angle=0.0, alpha=0.0),
            e_l=0.0,
            detector=DetectorConfig(),
            visibility=1.0,
        )
        spec = [s for s in phase_scan_plan(cfg) if s.kind == KIND_PHASE][0]
        c1, c2 = draw_segment(cfg, spec)
        np.testing.assert_allclose(c1, 0.0, atol=1e-12)
        np.testing.assert_allclose(c2, 0.0, atol=1e-12)

    def test_sample_covariance_matches_model(self):
        cfg = small_config(
            samples_per_phase=200_000,
            detector=DetectorConfig(
                eta1=0.9,
                eta2=0.8,
                gain1=1.3,
                gain2=0.7,
                dark_uncorr1=2.0,
                dark_uncorr2=1.0,
                dark_corr=0.5,
                lo_excess=0.002,
            ),
        )
        spec = phase_scan_plan(cfg)[2]
        assert spec.kind == KIND_PHASE
        c1, c2 = draw_segment(cfg, spec)
        _, sigma_total, _ = segment_statistics(cfg, spec)
        emp = np.cov(np.vstack([c1, c2]))
        scale = np.sqrt(np.outer(np.diag(sigma_total), np.diag(sigma_total)))
        np.testing.assert_allclose(emp / scale, sigma_total / scale, atol=0.02)

    def test_draws_match_matrix_product(self):
        # the elementwise Cholesky product equals z @ L.T up to rounding, with L the
        # factor of sigma_total (sigma_q when no noise is on) and z the per-chunk normals
        for detector in (DetectorConfig(eta1=0.94, eta2=0.94), NOISY):
            cfg = small_config(detector=detector)
            spec = phase_scan_plan(cfg)[3]
            sigma_q, sigma_total, _ = segment_statistics(cfg, spec)
            assert (detector is NOISY) != np.array_equal(sigma_q, sigma_total)
            expected = per_chunk_normals(cfg, spec).T @ np.linalg.cholesky(sigma_total).T
            c1, c2 = draw_segment(cfg, spec)
            scale = np.sqrt(np.diag(sigma_total))
            np.testing.assert_allclose(c1, expected[:, 0], rtol=0, atol=1e-12 * scale[0])
            np.testing.assert_allclose(c2, expected[:, 1], rtol=0, atol=1e-12 * scale[1])

    def test_noise_settings_share_the_normals(self):
        # paired seeds: a clean and a noisy config at one seed draw the same z in
        # every segment, each scaled by its own Cholesky factor
        clean = small_config(samples_per_phase=500)
        noisy = small_config(samples_per_phase=500, detector=NOISY)
        for spec in phase_scan_plan(clean):
            normals = []
            for cfg in (clean, noisy):
                c1, c2 = draw_segment(cfg, spec)
                a, b, c = segment_factors(cfg, spec)
                z0 = c1 / a
                normals.append(np.column_stack([z0, (c2 - b * z0) / c]))
            np.testing.assert_allclose(normals[0], normals[1], rtol=0, atol=1e-9)

    def test_noisy_segment_coverage(self):
        # dark noise and LO noise on: over 300 seeds, the z-scores of 5 700 segment
        # estimates against the exact sigma_total[0, 1] cover +-1 at the normal
        # rate, within 5 binomial sigma
        base = small_config(
            phases=tuple(2 * np.pi * i / 16 for i in range(16)),
            blocked_samples=2000,
            detector=replace(NOISY, lo_excess=0.1),
        )
        specs, exact = zip(*expected_segments(base))
        z = [
            (est.value - truth.value) / est.stderr
            for seed in range(300)
            for (_, est), truth in zip(simulate_segments(base.with_seed(seed), specs), exact)
        ]
        p = math.erf(1.0 / math.sqrt(2.0))
        band = 5.0 * math.sqrt(p * (1.0 - p) / len(z))
        coverage = np.mean(np.abs(z) <= 1.0)
        assert abs(coverage - p) <= band, f"1-sigma coverage {coverage:.4f}, band {p:.4f} +- {band:.4f}"

    @pytest.mark.parametrize("name", ["small-noisy", "paper-quick", "full-chunks"])
    def test_estimates_cover_the_exact_correlation(self, name):
        # over many seeds, each segment estimate's z-score against expected_segments (the
        # exact sigma_total[0, 1] and the exact stderr sqrt((s11 s22 + s12^2) / n) of the
        # products' mean) covers +-1 in AC-9's band and never exceeds 5: no pinned bit
        # enters.  small-noisy: every segment of a noisy config, 200 seeds; paper-quick:
        # 10 of its 20 000-pair phase segments and its 200 000-pair blocked-signal run,
        # 7 chunks, 200 seeds; full-chunks: 94 seeds of a noisy config whose 15 segments
        # are each one full chunk, drawn by the vectorised ziggurat (1 410 z-scores)
        noisy, seeds = replace(NOISY, lo_excess=0.1), 200
        if name == "small-noisy":
            base = small_config(detector=noisy)
        elif name == "paper-quick":
            base = preset_config("paper-quick")
        else:
            base = small_config(detector=noisy, samples_per_phase=CHUNK_ROWS, blocked_samples=CHUNK_ROWS)
            seeds = 94
        segments = list(expected_segments(base))
        if name == "paper-quick":
            segments = segments[1:-2:6] + segments[-1:]
        specs, exact = zip(*segments)
        z = [
            (est.value - truth.value) / truth.stderr
            for seed in range(seeds)
            for (_, est), truth in zip(simulate_segments(base.with_seed(seed), specs), exact)
        ]
        coverage = np.mean(np.abs(z) <= 1.0)
        assert 0.63 <= coverage <= 0.73, f"{name}: 1-sigma coverage {coverage:.3f} over {len(z)}"
        assert np.abs(z).max() <= 5.0

    @pytest.mark.parametrize("name", ["paper", "paper-quick", "thermal", "coherent"])
    def test_expected_segments_fit_the_reference(self, name):
        # the phase-scan fit of the exact estimates is the closed form a0..b2 of the
        # benchmark's reference, to 1e-9 of the largest (b1 and b2 of paper are rounding
        # noise); coherent light's, and its exact correlations, are all 0, so there a
        # floor of 1e-12 of the largest stderr
        spec = importlib.util.spec_from_file_location("reference", BENCH / "reference.py")
        reference = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(reference)
        cfg = preset_config(name)
        est = scan_estimates("phase_scan", cfg, expected_segments(cfg))
        fitted = analyze_phase_estimates(est).fit.coeffs
        coef = reference.fourier_coefficients(cfg)
        expected = np.array([coef[key] for key in ("a0", "a1", "b1", "a2", "b2")])
        scale = 1e-12 * est.stderr.max() if name == "coherent" else 1e-9 * np.abs(expected).max()
        assert scale > 0
        np.testing.assert_allclose(fitted, expected, rtol=0, atol=scale)

    def test_ac_coupling_zero_means(self):
        cfg = small_config(samples_per_phase=50_000)
        for spec in [s for s in phase_scan_plan(cfg) if s.kind == KIND_PHASE]:
            for arr in draw_segment(cfg, spec):
                se = arr.std(ddof=1) / np.sqrt(arr.size)
                assert abs(arr.mean()) < 6 * se

    def test_estimates_converge_to_prediction(self):
        cfg = small_config(samples_per_phase=400_000, blocked_samples=400_000)
        est = simulate_estimates(cfg)
        for phi, value, stderr in zip(est.phis, est.values, est.stderr):
            expected = truth_correlation(cfg, phi) + est.blocked_signal.value
            assert abs(value - expected) < 5 * np.hypot(stderr, est.blocked_signal.stderr)

    def test_segment_covariance_equals_truth_helper(self):
        # the analytic Fourier truth and the exact covariance builder agree
        cfg = small_config()
        for spec in phase_scan_plan(cfg):
            if spec.kind != KIND_PHASE:
                continue
            _, sigma_total, _ = segment_statistics(cfg, spec)
            expected = truth_correlation(cfg, spec.phi)
            assert sigma_total[0, 1] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_cross_term_equals_predicted_correlation(self):
        # with equal efficiencies, detection loss folds into the signal state
        # and the LO strength, closing the loop with the analytic prediction
        from hccm.gaussian import apply_loss, normal_ordered_signal_moments
        from hccm.splitter import delta_g_contributions, predicted_correlation

        cfg = small_config()
        eta = cfg.detector.eta1
        degraded = apply_loss(cfg.signal.state(), eta)
        e_int = np.sqrt(eta) * cfg.e_l
        for spec in phase_scan_plan(cfg)[1:5]:
            m = normal_ordered_signal_moments(degraded, spec.phi)
            dg = delta_g_contributions(m, e_int, cfg.splitter)
            pred = predicted_correlation(
                dg, cfg.detector.gain1, cfg.detector.gain2, cfg.visibility
            )
            sigma_q, _, _ = segment_statistics(cfg, spec)
            assert sigma_q[0, 1] == pytest.approx(pred, rel=1e-9, abs=1e-12)

    def test_gain_scaling_is_exact(self):
        cfg1 = small_config()
        cfg2 = small_config(
            detector=DetectorConfig(eta1=0.94, eta2=0.94, gain1=2.5, gain2=0.4)
        )
        s1 = draw_segment(cfg1, phase_scan_plan(cfg1)[3])
        s2 = draw_segment(cfg2, phase_scan_plan(cfg2)[3])
        np.testing.assert_allclose(s2[0], 2.5 * s1[0], rtol=1e-12)
        np.testing.assert_allclose(s2[1], 0.4 * s1[1], rtol=1e-12)

    def test_uncorrelated_dark_leaves_expectation(self):
        # paired seeds: both configs draw the same normals, each through its own Cholesky factor
        diffs = []
        for seed in range(30):
            cfg_a = small_config(seed=seed, samples_per_phase=4000)
            cfg_b = small_config(
                seed=seed,
                samples_per_phase=4000,
                detector=DetectorConfig(eta1=0.94, eta2=0.94, dark_uncorr1=50.0, dark_uncorr2=50.0),
            )
            spec = phase_scan_plan(cfg_a)[1]
            ca = np.column_stack(draw_segment(cfg_a, spec))
            cb = np.column_stack(draw_segment(cfg_b, spec))
            diffs.append(estimate_correlation(cb).value - estimate_correlation(ca).value)
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / np.sqrt(diffs.size)
        assert abs(diffs.mean()) < 4 * se

    def test_correlated_noise_offset_recoverable(self):
        cfg = small_config(
            samples_per_phase=300_000,
            blocked_samples=300_000,
            detector=DetectorConfig(eta1=0.94, eta2=0.94, dark_corr=3.0, lo_excess=0.001),
        )
        est = simulate_estimates(cfg)
        # the blocked-signal run recovers the full phi-independent offset
        for value, stderr, phi in zip(est.values, est.stderr, est.phis):
            corrected = value - est.blocked_signal.value
            expected = truth_correlation(cfg, phi)
            tol = 5 * np.hypot(stderr, est.blocked_signal.stderr)
            assert abs(corrected - expected) < tol


class TestDrift:
    def test_drift_factor_schedule(self):
        cfg = small_config(drift_rate=0.01)
        specs = phase_scan_plan(cfg)
        assert specs[0].kind == "blocked_lo_a" and specs[0].block == 0
        assert specs[-1].kind == "blocked_signal"
        assert drift_factor(cfg, specs[-2].block) == pytest.approx(
            1.0 + 0.01 * (len(cfg.phases) + 1)
        )

    def test_blocked_runs_separate_with_drift(self):
        gaps = []
        for drift in (0.0, 0.003, 0.008):
            vals = []
            for seed in range(8):
                cfg = small_config(seed=seed, drift_rate=drift, blocked_samples=50_000)
                est = simulate_estimates(cfg)
                vals.append(abs(est.blocked_lo[0].value - est.blocked_lo[1].value))
            gaps.append(np.mean(vals))
        assert gaps[0] < gaps[1] < gaps[2]
        assert gaps[2] > 3 * gaps[0]


class TestScanAssembly:
    def test_phase_plan_is_fixed(self):
        # blocked-LO runs a and b around the phases, so that |a - b| measures drift
        plan = phase_scan_plan(small_config())
        kinds = ["blocked_lo_a", *["phase"] * 12, "blocked_lo_b", "blocked_signal"]
        assert [s.kind for s in plan] == kinds
        assert [s.block for s in plan] == list(range(len(kinds)))

    @pytest.mark.parametrize("kind", ["phase_scan", "lo_scan"])
    def test_segments_off_the_plan_refused(self, kind):
        # segments are assembled by position: their kinds must be the plan's
        cfg = small_config(lo_scan_e_l=(0.0, 1.4, 2.8), samples_per_phase=50, blocked_samples=50)
        segments = list(simulate_segments(cfg, scan_plan(cfg, kind)))
        detector.scan_estimates(kind, cfg, iter(segments))
        for bad in (segments[::-1], segments[:-1], segments + segments[-1:], []):
            with pytest.raises(ValueError, match=f"the {kind} plan"):
                detector.scan_estimates(kind, cfg, bad)


class TestLoScan:
    def test_plan_validation(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            lo_scan_plan(cfg, 0.5, [])
        with pytest.raises(ValueError):
            lo_scan_plan(cfg, 0.5, [1.0, 2.0])
        with pytest.raises(ValueError):
            lo_scan_plan(cfg, 0.5, [0.0, -1.0])

    def test_grid_zero_matches_blocked(self):
        cfg = small_config()
        plan = lo_scan_plan(cfg, 3 * np.pi / 4, [0.0, 1.0, 2.0])
        spec0 = [s for s in plan if s.kind != "blocked_signal" and s.index == 0][0]
        _, sigma_total, _ = segment_statistics(cfg, spec0)
        blocked_spec = phase_scan_plan(cfg)[0]
        _, sigma_blocked, _ = segment_statistics(cfg, blocked_spec)
        np.testing.assert_allclose(sigma_total, sigma_blocked, rtol=1e-9)

    def test_offsets_draw_from_their_own_substreams(self):
        # the blocked-signal segments of the two scans measure the same offset, but
        # the two separations must not share its noise: distinct seeds, distinct estimates
        cfg = small_config(lo_scan_e_l=(0.0, 1.4, 2.8), lo_scan_phi=0.0)
        kinds = ("phase_scan", "lo_scan")
        specs = [scan_plan(cfg, kind)[-1] for kind in kinds]
        assert {(s.kind, s.phi, s.e_l, s.n) for s in specs} == {("blocked_signal", 0.0, 2.8, 4000)}
        seeds = plan_seeds(cfg, specs)
        assert not np.array_equal(seeds[0], seeds[1])
        offsets = [simulate_estimates(cfg, kind).blocked_signal for kind in kinds]
        assert offsets[0].value != offsets[1].value

    def test_phase_pair_recorded(self):
        cfg = small_config(samples_per_phase=500)
        plan = lo_scan_plan(cfg, 1.0, [0.0, 1.5])
        kinds = [s.kind for s in plan]
        assert kinds.count("lo_phase") == 2
        assert kinds.count("lo_phase_pi") == 2
        assert kinds.count("blocked_signal") == 1
        phis = {s.phi for s in plan if s.kind != "blocked_signal"}
        assert phis == {1.0, (1.0 + np.pi) % (2 * np.pi)}


def per_chunk_normals(cfg, spec):
    """The normals z0, z1 of a segment as a (2, n) array: from the substream seeded with
    the words of numpy's SeedSequence, each chunk of k = min(CHUNK_ROWS, rest) pairs
    draws a (2, k) array, its row 0 the chunk's z0 and its row 1 its z1: a full chunk
    by the vectorised ziggurat, a shorter one by standard_normal."""
    rng = substream(seed_sequence_row(cfg.seed, spec.kind, spec.index))

    def chunk(k):
        if k < CHUNK_ROWS:
            return rng.standard_normal((2, k))
        z = np.empty(2 * k)
        _ziggurat_normals(rng, z, np.empty(2 * k, np.int64))
        return z.reshape(2, k)

    return np.hstack([chunk(min(CHUNK_ROWS, spec.n - at)) for at in range(0, spec.n, CHUNK_ROWS)])


def per_chunk_draw(cfg, spec):
    """The oracle of a chunked draw: per_chunk_normals, then the same elementwise
    operations with the Cholesky factor of sigma_total."""
    a, b, c = segment_factors(cfg, spec)
    c1, c2 = per_chunk_normals(cfg, spec)
    c2 *= c
    c2 += b * c1
    c1 *= a
    return c1, c2


class TestChunkBoundaries:
    """Segments of 2 rows, one row either side of a chunk, and past two chunks, of a
    config with every noise source on."""

    SIZES = (2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 7)

    @pytest.fixture(params=SIZES)
    def segment(self, request):
        cfg = small_config(detector=NOISY)
        return cfg, replace(phase_scan_plan(cfg)[3], n=request.param)

    def test_draw_equals_per_chunk_draw(self, segment):
        cfg, spec = segment
        c1, c2 = draw_segment(cfg, spec)
        o1, o2 = per_chunk_draw(cfg, spec)
        np.testing.assert_array_equal(c1, o1)
        np.testing.assert_array_equal(c2, o2)

    def test_chunks_have_contiguous_columns(self, segment):
        # the transform and the products run unit-stride on each column
        cfg, spec = segment
        [(_, chunks)] = plan_chunks(cfg, [spec])
        for chunk in chunks:
            assert chunk.shape[1] == 2
            assert chunk[:, 0].flags.c_contiguous and chunk[:, 1].flags.c_contiguous

    def test_chunk_normals_are_uncorrelated(self, segment):
        # z0 and z1 recovered from each chunk's pairs, pooled by chunk position over
        # seeds (200 of 2-row segments, 4 otherwise): the sum of z0*z1 over m pairs is
        # within 5 sigma of 0, and z0 and z1 have unit variance.  Columns that read the
        # same normals would give mean z0*z1 = 1
        cfg, spec = segment
        a, b, c = segment_factors(cfg, spec)
        pooled = {}
        for seed in range(200 if spec.n < 100 else 4):
            [(_, chunks)] = plan_chunks(cfg.with_seed(seed), [spec])
            for i, chunk in enumerate(chunks):
                z0 = chunk[:, 0] / a
                z1 = (chunk[:, 1] - b * z0) / c
                pooled.setdefault(i, []).append(np.stack([z0, z1]))
        assert len(pooled) == -(-spec.n // CHUNK_ROWS)
        for z0, z1 in (np.hstack(zs) for zs in pooled.values()):
            m = z0.size
            assert abs(np.dot(z0, z1)) < 5.0 * math.sqrt(m)
            for z in (z0, z1):
                assert abs(np.dot(z, z) / m - 1.0) < 5.0 * math.sqrt(2.0 / m)

    def test_streamed_estimate_equals_estimate_correlation(self, segment):
        cfg, spec = segment
        [(_, streamed)] = simulate_segments(cfg, [spec])
        assert streamed == estimate_correlation(np.column_stack(draw_segment(cfg, spec)))
        assert streamed.n == spec.n

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_estimate_matches_numpy(self, segment, offset):
        # offset 1e4: |mean| of the products is about 1e3 times their std
        cfg, spec = segment
        pairs = np.column_stack(draw_segment(cfg, spec)) + offset
        products = pairs[:, 0] * pairs[:, 1]
        est = estimate_correlation(pairs)
        assert est.value == pytest.approx(products.mean(), rel=1e-12, abs=0)
        stderr = products.std(ddof=1) / np.sqrt(spec.n)
        assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0)


def test_product_moments_take_whole_chunks():
    assert reduce_chunks([np.ones((5, 2))]).n == 5
    with pytest.raises(ValueError, match="only the last may be shorter"):
        reduce_chunks([np.ones((5, 2)), np.ones((5, 2))])
    with pytest.raises(ValueError):
        reduce_chunks([np.ones((CHUNK_ROWS + 1, 2))])


class TestZiggurat:
    """The full-chunk sampler against the exact normal law, over the 2^24 normals of 256
    full chunks: its tables, each layer's rectangle and wedge, the tail, each branch."""

    N_CHUNKS = 256

    @pytest.fixture(scope="class")
    def draws(self):
        # each chunk's words are replayed from a copy of the generator's state, so each
        # candidate's branch is known: fast (rabs below k), wedge (layer >= 1) or tail
        k, w, _, r = _ziggurat_tables()
        x = w[1:256] * 2.0**52
        edges = np.concatenate([-x[::-1], [0.0], x])
        counts = np.zeros(edges.size + 1, np.int64)
        out, layer = np.empty(2 * CHUNK_ROWS), np.empty(2 * CHUNK_ROWS, np.int64)
        rng = substream(np.array([2026, 10, 20], np.uint64))
        tails, branches = [], dict.fromkeys(["fast", "wedge_accept", "wedge_redraw", "tail"], 0)
        branches.update(fast_changed=0, tail_within_r=0)
        for _ in range(self.N_CHUNKS):
            replay = np.random.SFC64()
            replay.state = rng.bit_generator.state
            words = replay.random_raw(out.size)
            idx = (words & 511).astype(np.intp)
            rabs = (words >> 12).astype(np.int64)
            candidate = rabs * w[idx]
            fast = rabs < k[idx]
            wedge, tail = ~fast & (idx % 256 > 0), ~fast & (idx % 256 == 0)
            _ziggurat_normals(rng, out, layer)
            accepted = out[wedge] == candidate[wedge]
            beyond = (np.abs(out[tail]) > r) & (np.sign(out[tail]) == np.sign(candidate[tail]))
            branches["fast_changed"] += int((out[fast] != candidate[fast]).sum())
            branches["tail_within_r"] += int((~beyond).sum())
            branches["fast"] += int(fast.sum())
            branches["wedge_accept"] += int(accepted.sum())
            branches["wedge_redraw"] += int((~accepted).sum())
            branches["tail"] += int(tail.sum())
            counts += np.bincount(np.searchsorted(edges, out), minlength=counts.size)
            tails.append(np.abs(out[np.abs(out) > r]))
        return edges, counts, np.sort(np.concatenate(tails)), branches

    def test_tables(self):
        # every layer has area v: the boxes l >= 2 to 1e-12, the base (rectangle r f(r)
        # plus the tail past r) to 1e-11, and the top box closes, v / x_1 + f(x_1) = 1;
        # and a 40-digit recomputation of the recurrence agrees to 1e-10
        k, w, f, r = _ziggurat_tables()
        v = 4.92867323399e-3
        x = np.append(0.0, w[1:256] * 2.0**52)
        assert x[255] == r and np.array_equal(f, np.exp(-0.5 * x * x))
        areas = x[2:] * (f[1:-1] - f[2:])
        np.testing.assert_allclose(areas, v, rtol=1e-12, atol=0)
        tail = math.sqrt(math.pi / 2.0) * math.erfc(r / math.sqrt(2.0))
        assert r * f[255] + tail == pytest.approx(v, rel=1e-11, abs=0)
        assert abs(v / x[1] + f[1] - 1.0) < 1e-10
        assert w[0] * 2.0**52 == pytest.approx(v / f[255], rel=1e-15)
        np.testing.assert_array_equal(w[256:], -w[:256])
        np.testing.assert_array_equal(k[256:], k[:256])
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            d_r, d_v, d_x = decimal.Decimal(r), decimal.Decimal(v), [decimal.Decimal(0)] * 256
            d_x[255] = d_r
            for i in range(255, 1, -1):
                d_x[i - 1] = (-2 * (d_v / d_x[i] + (-d_x[i] * d_x[i] / 2).exp()).ln()).sqrt()
            d_f = [(-xi * xi / 2).exp() for xi in d_x]
            d_k = [d_r * d_f[255] / d_v] + [d_x[i - 1] / d_x[i] for i in range(1, 256)]
        np.testing.assert_allclose(x, [float(xi) for xi in d_x], rtol=1e-10, atol=0)
        np.testing.assert_allclose(f, [float(fi) for fi in d_f], rtol=1e-10, atol=0)
        np.testing.assert_allclose(k[:256] * 2.0**-52, [float(ki) for ki in d_k], rtol=1e-10, atol=1e-16)

    def test_layers_chi2(self, draws):
        # 512 bins: edges at +-x_1 .. +-x_255 and 0, so each bin holds one layer's wedge
        # over the rectangles of the wider layers; the outermost two are the tails.
        # chi2 on 511 dof, by the Wilson-Hilferty normal, below 5 sigma
        edges, counts, _, _ = draws
        sf = [0.5 * math.erfc(e / math.sqrt(2.0)) for e in np.append(edges, np.inf)]
        p = -np.diff(np.append(1.0, sf))
        expected = counts.sum() * p
        assert counts.sum() == self.N_CHUNKS * 2 * CHUNK_ROWS
        chi2, dof = float(((counts - expected) ** 2 / expected).sum()), counts.size - 1
        z = ((chi2 / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
        assert z < 5.0, f"chi2 {chi2:.0f} on {dof} dof"

    def test_tail(self, draws):
        # |z| > r as often as the normal law says, within 5 sigma, and the tail values
        # follow its conditional CDF: Kolmogorov-Smirnov below 1.95 (p = 0.001)
        _, counts, tails, _ = draws
        r = _ziggurat_tables()[3]
        p = math.erfc(r / math.sqrt(2.0))
        expected = counts.sum() * p
        assert abs(tails.size - expected) < 5.0 * math.sqrt(expected)
        cdf = np.array([1.0 - math.erfc(t / math.sqrt(2.0)) / p for t in tails])
        n = tails.size
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert math.sqrt(n) * ks < 1.95

    def test_branches(self, draws):
        # fast, wedge-accept, wedge-redraw and tail candidates all occur; a fast one is
        # returned as it is and a tail one past r with its own sign; redraws, the only
        # rejections, come at the exact rate 1 - sqrt(pi/2) / (256 v), within 5 sigma:
        # a wedge that takes or refuses too much moves it
        branches = dict(draws[-1])
        assert branches.pop("fast_changed") == branches.pop("tail_within_r") == 0, branches
        assert all(branches.values()), branches
        n = sum(branches.values())
        assert n == self.N_CHUNKS * 2 * CHUNK_ROWS
        rate = 1.0 - math.sqrt(math.pi / 2.0) / (256 * 4.92867323399e-3)
        expected = n * rate
        assert abs(branches["wedge_redraw"] - expected) < 5.0 * math.sqrt(expected), branches
