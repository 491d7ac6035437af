"""Flat key=value experiment configuration, presets, and (de)serialization.

The file format is plain text, one ``key = value`` per line, ``#`` comments.
Keys carry unit suffixes (``_db``, ``_uw``, ``_rad``).  The LO strength may be
given directly (``lo_field_strength``) or as an optical power plus a single
calibration constant (``lo_power_uw`` and ``lo_amp_per_sqrt_uw``); amplitudes
scale with the square root of power.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .detector import DetectorConfig, ExperimentConfig, SignalParams
from .errors import ConfigError
from .splitter import BeamSplitter

_LIST_KEYS = {"lo_scan_field_strengths", "lo_scan_powers_uw"}

_BASE = {
    "squeezing_db": "-2.7",
    "antisqueezing_db": "5.5",
    "squeeze_angle_rad": repr(math.pi / 2),
    "alpha_re": "3.0",
    "alpha_im": "0.0",
    "lo_power_uw": "275.0",
    "lo_amp_per_sqrt_uw": repr(3.0 / math.sqrt(284.0)),
    "n_phases": "120",
    "samples_per_phase": "458000",
    "blocked_samples": "4580000",
    "seed": "20250809",
    "drift_rate": "0.0",
    "splitter_ts2": "0.86",
    "splitter_tl2": "0.86",
    "splitter_rs2": "0.14",
    "splitter_rl2": "0.14",
    "visibility": "0.96",
    "eta1": "0.94",
    "eta2": "0.94",
    "gain1": "1.0",
    "gain2": "1.0",
    "dark_uncorr1": "0.0",
    "dark_uncorr2": "0.0",
    "dark_corr": "0.0",
    "lo_excess": "0.0",
    "lo_scan_powers_uw": "0,117,166,216,275",
    "lo_scan_phase_rad": repr(0.75 * math.pi),
}

# every key a config file may give: the preset values, plus the alternatives to
# the LO power parametrization and the preset name
_ALL_KEYS = set(_BASE) | {"lo_field_strength", "lo_scan_field_strengths", "preset"}
# the keys of a configurable plan and verdict threshold, which older record headers
# and separation.json files still echo: tolerated there and ignored
LEGACY_KEYS = {"schedule", "sig_threshold"}

_QUICK = {"n_phases": "60", "samples_per_phase": "20000", "blocked_samples": "200000"}

PRESETS = {
    # full scale: 120 phases x 4.58e5 samples, 14:86 splitter, 96% visibility
    "paper": dict(_BASE),
    "paper-quick": {**_BASE, **_QUICK},
    "coherent": {**_BASE, **_QUICK, "squeezing_db": "0.0", "antisqueezing_db": "0.0"},
    "thermal": {
        **_BASE,
        **_QUICK,
        "squeezing_db": "4.0",
        "antisqueezing_db": "4.0",
        "alpha_re": "1.5",
    },
}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a flat string dict."""
    flat = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        flat[key] = value
    return flat


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        flat = parse_config_text(fh.read())
    return build_config(flat)


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return build_config(dict(PRESETS[name]))


def _get_float(flat: dict, key: str) -> float:
    try:
        return float(flat[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {flat[key]!r}") from exc


def _get_db(flat: dict, key: str) -> float:
    """A variance given in dB as a linear factor."""
    try:
        return 10.0 ** (_get_float(flat, key) / 10.0)
    except OverflowError as exc:
        raise ConfigError(f"key {key!r}: {flat[key]} dB overflows") from exc


def _get_int(flat: dict, key: str) -> int:
    try:
        return int(flat[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {flat[key]!r}") from exc


def _get_float_list(flat: dict, key: str):
    try:
        return tuple(float(tok) for tok in flat[key].split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a comma-separated number list") from exc


def _field_strength(calib: float, power_uw: float) -> float:
    if not power_uw >= 0:
        raise ConfigError(f"LO powers must be >= 0, got {power_uw!r}")
    return calib * math.sqrt(power_uw)


def build_config(flat: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a flat string dict (preset-aware); a key outside
    _ALL_KEYS and LEGACY_KEYS is refused."""
    if unknown := sorted(set(flat) - _ALL_KEYS - LEGACY_KEYS):
        raise ConfigError(f"unknown keys {', '.join(map(repr, unknown))}")
    if "preset" in flat and flat["preset"] not in PRESETS:
        raise ConfigError(f"unknown preset {flat['preset']!r}")
    merged = dict(PRESETS[flat["preset"]]) if "preset" in flat else dict(_BASE)
    # explicit field strengths replace the default power parametrization
    if "lo_field_strength" in flat:
        merged.pop("lo_power_uw", None)
    if "lo_scan_field_strengths" in flat:
        merged.pop("lo_scan_powers_uw", None)
    merged.update({k: v for k, v in flat.items() if k != "preset"})

    v_min, v_max = _get_db(merged, "squeezing_db"), _get_db(merged, "antisqueezing_db")
    alpha = complex(_get_float(merged, "alpha_re"), _get_float(merged, "alpha_im"))
    signal = SignalParams(v_min, v_max, _get_float(merged, "squeeze_angle_rad"), alpha)
    splitter = BeamSplitter(
        **{f.name: _get_float(merged, f"splitter_{f.name}") for f in fields(BeamSplitter)}
    )
    detector = DetectorConfig(
        **{f.name: _get_float(merged, f.name) for f in fields(DetectorConfig)}
    )

    # each LO value is a power (as in the presets) or a field strength, never both
    if "lo_field_strength" in merged and "lo_power_uw" in merged:
        raise ConfigError("give either lo_field_strength or lo_power_uw, not both")
    if "lo_scan_field_strengths" in merged and "lo_scan_powers_uw" in merged:
        raise ConfigError("give either lo_scan_field_strengths or lo_scan_powers_uw, not both")
    calib = _get_float(merged, "lo_amp_per_sqrt_uw")
    if "lo_field_strength" in merged:
        e_l = _get_float(merged, "lo_field_strength")
    else:
        e_l = _field_strength(calib, _get_float(merged, "lo_power_uw"))
    if "lo_scan_field_strengths" in merged:
        lo_grid = _get_float_list(merged, "lo_scan_field_strengths")
    else:
        powers = _get_float_list(merged, "lo_scan_powers_uw")
        lo_grid = tuple(_field_strength(calib, p) for p in powers)

    n_phases = _get_int(merged, "n_phases")
    if n_phases < 1:
        raise ConfigError("n_phases must be >= 1")
    phases = tuple(2.0 * math.pi * i / n_phases for i in range(n_phases))

    return ExperimentConfig(
        signal=signal,
        e_l=e_l,
        phases=phases,
        samples_per_phase=_get_int(merged, "samples_per_phase"),
        seed=_get_int(merged, "seed"),
        blocked_samples=_get_int(merged, "blocked_samples"),
        drift_rate=_get_float(merged, "drift_rate"),
        detector=detector,
        splitter=splitter,
        visibility=_get_float(merged, "visibility"),
        lo_scan_e_l=lo_grid,
        lo_scan_phi=_get_float(merged, "lo_scan_phase_rad"),
    )


def _db_echo(v: float) -> str:
    """The float within two ulps of 10*log10(v) that _get_db maps back to v exactly."""
    db = 10.0 * math.log10(v)
    near = (db + k * math.ulp(db) for k in (0, 1, -1, 2, -2))
    return repr(next((x for x in near if 10.0 ** (x / 10.0) == v), db))


def config_to_flat(cfg: ExperimentConfig) -> dict:
    """Canonical flat echo of a config (field strengths resolved)."""
    bs, det = cfg.splitter, cfg.detector
    flat = {
        "squeezing_db": _db_echo(cfg.signal.v_min),
        "antisqueezing_db": _db_echo(cfg.signal.v_max),
        "squeeze_angle_rad": repr(cfg.signal.angle),
        "alpha_re": repr(cfg.signal.alpha.real),
        "alpha_im": repr(cfg.signal.alpha.imag),
        "lo_field_strength": repr(cfg.e_l),
        "n_phases": str(len(cfg.phases)),
        "samples_per_phase": str(cfg.samples_per_phase),
        "blocked_samples": str(cfg.n_blocked),
        "seed": str(cfg.seed),
        "drift_rate": repr(cfg.drift_rate),
        "visibility": repr(cfg.visibility),
        "lo_scan_phase_rad": repr(cfg.lo_scan_phi),
    }
    flat.update({f"splitter_{f.name}": repr(getattr(bs, f.name)) for f in fields(bs)})
    flat.update({f.name: repr(getattr(det, f.name)) for f in fields(det)})
    # an empty grid too: build_config would take the preset's grid in place of a missing one
    flat["lo_scan_field_strengths"] = ",".join(repr(e) for e in cfg.lo_scan_e_l)
    return flat
