"""Names and units of every metric the benchmark prints.

BENCHMARK.json lists the same metrics; test_benchmark.py keeps the two
in step.
"""

from __future__ import annotations

END_TO_END = {
    "balls_per_s": "balls/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# the eleven files of src/ballpack; "init" is __init__.py
MODULES = (
    "init", "apollonian", "cli", "documents", "exactnum", "linalg",
    "lorentz", "packings", "polytopes", "relations", "svgout",
)

# self time of these spans, in seconds per set-up plus one traced round
SELF_TIMES = (
    "apollonian.seed_s",
    "apollonian.generators_s",
    "apollonian.grow_s",
    "apollonian.grow_bigint_s",
    "apollonian.grow_ssa_s",
    "apollonian.ring_s",
    "apollonian.entries_s",
    "relations.integrality_s",
    "relations.gram_identity_s",
    "relations.soddy_residual_s",
    "relations.flag_relation_s",
    "polytopes.flags_s",
    "polytopes.edge_scribed_s",
    "packings.project_s",
    "lorentz.classify_pair_s",
    "documents.from_cluster_s",
    "documents.to_json_s",
    "documents.from_json_s",
    "documents.balls_s",
    "svgout.render_s",
    "cli.cluster_s",
    "cli.integrality_s",
    "cli.verify_s",
    "cli.render_s",
    "cli.project_s",
)

PER_LAYER = {
    **{name: "s" for name in SELF_TIMES},
    "cli.self_s": "s",
    "apollonian.grow_balls_per_s": "balls/s",
    "apollonian.grow_peak_mb": "MB",
    "lorentz.pairs": "count",
    "lorentz.pairs_per_s": "1/s",
    "documents.json_mb": "MB",
    "svgout.svg_mb": "MB",
    **{f"{m}.src_lines": "lines" for m in MODULES},
    "trace.balls_per_s": "balls/s",
    "trace.untraced_balls_per_s": "balls/s",
    "trace.overhead_pct": "%",
}

GROW = ("apollonian.grow_s", "apollonian.grow_bigint_s", "apollonian.grow_ssa_s")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, setup_self, setup_counts, rounds, untraced_rate, traced_rate,
              grow_peak_mb, lines) -> dict:
    """Per-layer values: one set-up plus the mean traced round.

    ``setup_self`` and ``setup_counts`` are the tracer's totals at the end
    of set-up; everything after them is spread over ``rounds`` rounds.
    """

    def one_run(totals, setup, name):
        return setup.get(name, 0.0) + (totals[name] - setup.get(name, 0.0)) / rounds

    self_s = {n: one_run(tracer.self_time, setup_self, n) for n in tracer.self_time}
    counts = {n: one_run(tracer.counts, setup_counts, n) for n in tracer.counts}
    values = {name: self_s.get(name, 0.0) for name in SELF_TIMES}
    values["cli.self_s"] = sum(v for n, v in self_s.items() if n.startswith("cli."))
    values["apollonian.grow_balls_per_s"] = _ratio(
        counts.get("grown_balls", 0.0), sum(values[n] for n in GROW)
    )
    values["apollonian.grow_peak_mb"] = grow_peak_mb
    values["lorentz.pairs"] = counts.get("pairs", 0.0)
    values["lorentz.pairs_per_s"] = _ratio(values["lorentz.pairs"], values["lorentz.classify_pair_s"])
    values["documents.json_mb"] = counts.get("json_bytes", 0.0) / 1e6
    values["svgout.svg_mb"] = counts.get("svg_bytes", 0.0) / 1e6
    for module, n in lines.items():
        values[f"{module}.src_lines"] = n
    values["trace.balls_per_s"] = traced_rate
    values["trace.untraced_balls_per_s"] = untraced_rate
    values["trace.overhead_pct"] = 100 * (_ratio(untraced_rate, traced_rate) - 1)
    return values
