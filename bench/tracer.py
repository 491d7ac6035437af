"""Outside-in span tracer for the traced benchmark run.

The tracer wraps public functions of ``hccm`` by replacing module attributes:
the defining module's attribute and every other ``hccm`` module attribute (or
module-level dict entry, such as the CLI's command table) that holds the same
function object, so names imported by value are covered too.  Spans (name,
start, end, parent, operation id) are kept in memory and written out once,
when the run ends.  Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time

import numpy as np

# span name -> the (module, attribute) pairs it wraps; "reports.render" covers
# every report renderer
SPANS = {
    "config.build_config": [("hccm.config", "build_config")],
    "detector.segment_statistics": [("hccm.detector", "segment_statistics")],
    "detector.draw_segment": [("hccm.detector", "draw_segment")],
    "gaussian.two_mode_output": [("hccm.gaussian", "two_mode_output")],
    "gaussian.apply_loss": [("hccm.gaussian", "apply_loss")],
    "gaussian.photocurrent_covariance": [("hccm.gaussian", "photocurrent_covariance")],
    "analysis.estimate_correlation": [("hccm.analysis", "estimate_correlation")],
    "analysis.fit_trig_poly": [("hccm.analysis", "fit_trig_poly")],
    "analysis.separate_by_phase": [("hccm.analysis", "separate_by_phase")],
    "analysis.separate_by_lo": [("hccm.analysis", "separate_by_lo")],
    "pipeline.analyze_phase_estimates": [("hccm.pipeline", "analyze_phase_estimates")],
    "pipeline.analyze_lo_estimates": [("hccm.pipeline", "analyze_lo_estimates")],
    "nonclassicality.build_L": [("hccm.nonclassicality", "build_L")],
    "nonclassicality.det_with_error": [("hccm.nonclassicality", "det_with_error")],
    "nonclassicality.squeezed_phases": [("hccm.nonclassicality", "squeezed_phases")],
    "nonclassicality.classify_phase_range": [("hccm.nonclassicality", "classify_phase_range")],
    "records.stream_record": [("hccm.records", "stream_record")],
    "records.read_record": [("hccm.records", "read_record")],
    "reports.render": [
        ("hccm.reports", name)
        for name in (
            "fit_report_dict",
            "fit_report_text",
            "phase_table_rows",
            "phase_table_text",
            "lo_table_rows",
            "lo_table_text",
            "det_table_rows",
            "det_table_text",
            "det_summary_dict",
            "structured_report",
        )
    ],
    "cli.simulate": [("hccm.cli", "cmd_simulate")],
    "cli.analyze": [("hccm.cli", "cmd_analyze")],
    "cli.test": [("hccm.cli", "cmd_test")],
}

# work counters: per-call count added from the call's arguments and result
COUNTERS = (
    "gaussian.GaussianState.calls",
    "detector.draw_segment.samples",
    "detector.draw_segment.bytes",
    "analysis.estimate_correlation.samples",
    "analysis.estimate_correlation.bytes",
    "records.stream_record.rows",
    "records.stream_record.bytes",
    "records.read_record.rows",
)


def _draw_segment_counts(args, result):
    c1, c2 = result
    return {
        "detector.draw_segment.samples": c1.size,
        "detector.draw_segment.bytes": c1.nbytes + c2.nbytes,
    }


def _estimate_counts(args, result):
    # bytes of the (N, 2) float64 pair array the call reduces, computed from its size
    return {
        "analysis.estimate_correlation.samples": result.n,
        "analysis.estimate_correlation.bytes": 16 * result.n,
    }


def _stream_counts(args, result):
    return {
        "records.stream_record.rows": result,
        "records.stream_record.bytes": os.path.getsize(args[1]),
    }


def _read_counts(args, result):
    return {"records.read_record.rows": sum(seg.spec.n for seg in result.segments)}


_COUNT_HOOKS = {
    "detector.draw_segment": _draw_segment_counts,
    "analysis.estimate_correlation": _estimate_counts,
    "records.stream_record": _stream_counts,
    "records.read_record": _read_counts,
}


class Tracer:
    """Collects spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.read_peak_rss_mb = 0.0
        self.op_id = 0
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------------
    def install(self):
        modules = [
            importlib.import_module(m)
            for m in (
                "hccm",
                "hccm.config",
                "hccm.gaussian",
                "hccm.detector",
                "hccm.analysis",
                "hccm.pipeline",
                "hccm.nonclassicality",
                "hccm.records",
                "hccm.reports",
                "hccm.cli",
            )
        ]
        for span, targets in SPANS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod.__dict__, key, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is original:
                                    self._patch(value, k, wrapper)
        gaussian_state = sys.modules["hccm.gaussian"].GaussianState
        post_init = gaussian_state.__post_init__
        counters = self.counters

        def counted_post_init(state):
            counters["gaussian.GaussianState.calls"] += 1
            post_init(state)

        self._patches.append((gaussian_state, "__post_init__", post_init, True))
        gaussian_state.__post_init__ = counted_post_init

    def _patch(self, namespace, key, wrapper):
        self._patches.append((namespace, key, namespace[key], False))
        namespace[key] = wrapper

    def uninstall(self):
        for target, key, original, is_attr in reversed(self._patches):
            if is_attr:
                setattr(target, key, original)
            else:
                target[key] = original
        self._patches.clear()

    def _wrap(self, span, fn):
        hook = _COUNT_HOOKS.get(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            # nested renderers (text calling dict) count once, as the outer span
            if stack and tracer.spans[stack[-1]][0] == span:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            record = [span, time.perf_counter(), 0.0, stack[-1] if stack else -1, tracer.op_id]
            tracer.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                for key, value in hook(args, result).items():
                    tracer.counters[key] += int(value)
            if span == "records.read_record":
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                tracer.read_peak_rss_mb = max(tracer.read_peak_rss_mb, rss)
            return result

        return wrapper

    # -- output -------------------------------------------------------------
    def dump(self, path):
        payload = {
            "spans": self.spans,
            "counters": self.counters,
            "read_peak_rss_mb": self.read_peak_rss_mb,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def merge(self, path, op_id):
        """Add the spans and counters a traced child process dumped to path."""
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        base = len(self.spans)
        for name, start, end, parent, _ in payload["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op_id])
        for key, value in payload["counters"].items():
            self.counters[key] += value
        self.read_peak_rss_mb = max(self.read_peak_rss_mb, payload["read_peak_rss_mb"])


def self_times(spans):
    """Per span name: (calls, self seconds).

    Self time is a span's duration minus the time its direct child spans
    cover; spans run on one thread, so children never overlap.
    """
    child_time = np.zeros(len(spans))
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: [0, 0.0] for name in SPANS}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name][0] += 1
        out[name][1] += (end - start) - child_time[i]
    return out
