"""Per-layer metrics, derived from one traced pass's span summary.

Each entry is (metric name, unit, better, function of the summary). The
summary maps a span name to its calls, inclusive seconds ``s``, self
seconds ``self_s`` and any volumes its hook recorded (see tracer.py). A
layer a workload never calls reads 0.
"""

from __future__ import annotations


def _get(span: str, field: str, scale: float = 1.0):
    return lambda summary: float(summary.get(span, {}).get(field, 0.0)) * scale


def _per(span: str, num: str, den: str, scale: float = 1.0):
    def value(summary) -> float:
        row = summary.get(span, {})
        d = float(row.get(den, 0.0))
        return float(row.get(num, 0.0)) / d * scale if d > 0 else 0.0

    return value


SPAN_METRICS = (
    ("rng.generator.calls", "count", "lower", _get("rng.generator", "calls")),
    ("rng.generator.s", "s", "lower", _get("rng.generator", "s")),
    ("core.Image.constructed", "count", "lower", _get("core.Image.constructed", "calls")),
    ("core.scan_scores.calls", "count", "lower", _get("core.scan_scores", "calls")),
    ("core.scan_scores.s", "s", "lower", _get("core.scan_scores", "s")),
    ("core.scan_scores.gb_per_s", "GB/s", "higher",
     _per("core.scan_scores", "bytes", "s", 1e-9)),
    ("publicprep.PatchSet.matrix.calls", "count", "lower",
     _get("publicprep.PatchSet.matrix", "calls")),
    ("publicprep.PatchSet.matrix.s", "s", "lower", _get("publicprep.PatchSet.matrix", "s")),
    ("encrypt.encrypt_sample.calls", "count", "lower", _get("encrypt.encrypt_sample", "calls")),
    ("encrypt.encrypt_sample.us_per_call", "us", "lower",
     _per("encrypt.encrypt_sample", "s", "calls", 1e6)),
    ("encrypt.encrypt_epoch.s", "s", "lower", _get("encrypt.encrypt_epoch", "s")),
    ("encrypt.encrypt_input.calls", "count", "lower", _get("encrypt.encrypt_input", "calls")),
    ("encrypt.encrypt_input.s", "s", "lower", _get("encrypt.encrypt_input", "s")),
    ("encrypt.export_challenge.s", "s", "lower", _get("encrypt.export_challenge", "s")),
    ("cli.cmd_challenge.self_s", "s", "lower", _get("cli.cmd_challenge", "self_s")),
    ("publicprep.build_patchset.s", "s", "lower", _get("publicprep.build_patchset", "s")),
    ("publicprep.keypoint_counts.s", "s", "lower", _get("publicprep.keypoint_counts", "s")),
    ("publicprep.retention", "fraction", "higher",
     _per("publicprep.build_patchset", "kept", "candidates")),
    ("ihds.save_dataset.s", "s", "lower", _get("ihds.save_dataset", "s")),
    ("ihds.save_dataset.mb_per_s", "MB/s", "higher",
     _per("ihds.save_dataset", "bytes", "s", 1e-6)),
    ("ihds.load_dataset.s", "s", "lower", _get("ihds.load_dataset", "s")),
    ("ihds.load_dataset.mb_per_s", "MB/s", "higher",
     _per("ihds.load_dataset", "bytes", "s", 1e-6)),
    ("attacks.public_scan_attack.ms_per_query", "ms", "lower",
     _per("attacks.public_scan_attack", "s", "calls", 1e3)),
    ("attacks.braverman_attack.ms_per_query", "ms", "lower",
     _per("attacks.braverman_attack", "s", "calls", 1e3)),
    ("attacks.similarity_search_attack.ms_per_query", "ms", "lower",
     _per("attacks.similarity_search_attack", "s", "calls", 1e3)),
    ("attacks.ssim_pairwise.s", "s", "lower", _get("attacks.ssim_pairwise", "s")),
    ("attacks.ssim_pairwise.pairs_per_s", "pairs/s", "higher",
     _per("attacks.ssim_pairwise", "pairs", "s")),
    ("attacks.pair_detection_attack.s", "s", "lower", _get("attacks.pair_detection_attack", "s")),
    ("stats.indistinguishability_protocol.self_s", "s", "lower",
     _get("stats.indistinguishability_protocol", "self_s")),
    ("utility.train.s", "s", "lower", _get("utility.train", "s")),
    ("utility.evaluate.self_s", "s", "lower", _get("utility.evaluate", "self_s")),
    ("utility.predict_encrypted.calls", "count", "lower",
     _get("utility.predict_encrypted", "calls")),
)

# traced pass_s minus untraced pass_s, medians of the same run
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower")

# figures computed from array shapes by the workload, not measured
COMPUTED = (
    ("computed.scan.bytes_per_query", "B", "lower"),
    ("computed.ssim.window_pairs_per_query", "count", "lower"),
    ("computed.pair.gram_flops", "flop", "lower"),
    ("computed.ihds.read_mb", "MB", "lower"),
    ("computed.ihds.write_mb", "MB", "lower"),
)

PER_LAYER = (
    tuple((name, unit, better) for name, unit, better, _ in SPAN_METRICS)
    + (TRACE_OVERHEAD,)
    + COMPUTED
)


def span_metrics(summary: dict) -> dict[str, float]:
    return {name: fn(summary) for name, _, _, fn in SPAN_METRICS}
