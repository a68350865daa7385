"""Per-layer metrics of one traced pipeline, computed from its spans.

Each traced command contributes its external wall time (from harness) and
the spans its processes wrote (from tracer). A layer is the module a span's
name starts with. Shares divide by busy time: the sum of the self time of
every span, so the layer shares of a pipeline add up to 1.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import harness

LAYERS = ("mlp", "samplers", "diagnostics", "predictive", "chainio", "data", "cli")

#: Spans that load a dataset; load_vendored reads CSVs, generate_noisy_xor draws.
DATA_LOADS = ("data.load_vendored", "data.generate_noisy_xor")


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(commands) -> dict:
    """Metric name -> value for one traced pipeline, trace.overhead_ratio aside.

    BENCHMARK.json names and units the metrics. A layer a workload never
    enters reads 0.

    commands: list of (step, CommandResult, spans) in pipeline order.
    """
    spans = [span for _, _, command_spans in commands for span in command_spans]
    selfs = harness.self_times(spans)
    names = {span["id"]: span["name"] for span in spans}
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def dur(span):
        return span["end"] - span["start"]

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(dur(span) for span in by_name[name])

    def per_call(name, scale):
        return _ratio(total(name), calls(name)) * scale

    def attr_sum(spans_, key):
        return sum(span["attrs"][key] for span in spans_)

    busy = sum(selfs.values())
    layer_self = defaultdict(float)
    for span in spans:
        layer_self[span["name"].split(".", 1)[0]] += selfs[span["id"]]

    m = {}
    for fn in ("log_likelihood", "log_posterior", "grad_log_posterior", "event_probabilities"):
        m[f"mlp.{fn}.calls"] = calls(f"mlp.{fn}")
        m[f"mlp.{fn}.us_per_call"] = per_call(f"mlp.{fn}", 1e6)
    outermost = [
        span for span in spans
        if span["name"].startswith("mlp.") and span["attrs"]
        and not names.get(span["parent"], "").startswith("mlp.")
    ]
    m["mlp.rows_per_call"] = _ratio(attr_sum(outermost, "rows"), len(outermost))

    chains = by_name["samplers.run_posterior_chain"]
    for kind in ("mh", "pp", "hmc"):
        of_kind = [s for s in chains if s["attrs"]["kind"] == kind]
        m[f"samplers.iter_us.{kind}"] = 1e6 * _ratio(sum(dur(s) for s in of_kind),
                                                     attr_sum(of_kind, "iterations"))
    m["samplers.leapfrog.calls"] = calls("samplers.leapfrog")
    m["samplers.leapfrog.us_per_call"] = per_call("samplers.leapfrog", 1e6)
    m["samplers.accept_ratio"] = _ratio(attr_sum(chains, "accepted"), attr_sum(chains, "iterations"))
    m["samplers.swap_accept_ratio"] = _ratio(attr_sum(chains, "swap_accepted"),
                                             attr_sum(chains, "swap_attempts"))
    hmc = [s for s in chains if s["attrs"]["kind"] == "hmc"]
    m["samplers.divergence_ratio"] = _ratio(attr_sum(hmc, "divergences"), attr_sum(hmc, "iterations"))

    spread, chain_s, pool_s = 0.0, 0.0, 0.0
    for step, result, command_spans in commands:
        if step.stage != "sample":
            continue
        durations = [dur(s) for s in command_spans if s["name"] == "samplers.run_posterior_chain"]
        if durations:
            spread = max(spread, max(durations) / statistics.median(durations))
        chain_s += sum(durations)
        pool_s += step.jobs * result.wall
    m["samplers.chain_s.max_over_median"] = spread
    m["cli.pool_idle_ratio"] = 1.0 - chain_s / pool_s if pool_s else 0.0

    m["diagnostics.minse.calls"] = calls("diagnostics.minse")
    m["diagnostics.minse.ms_per_call"] = per_call("diagnostics.minse", 1e3)
    m["diagnostics.psrf_s"] = total("diagnostics.multivariate_psrf")
    m["diagnostics.ess_s"] = total("diagnostics.multivariate_ess")

    predict_wall = sum(result.wall for step, result, _ in commands if step.stage == "predict")
    m["predictive.predictive_distribution.s"] = total("predictive.predictive_distribution")
    m["predictive.draw_points_per_s"] = _ratio(
        attr_sum(by_name["predictive.predictive_distribution"], "draw_points"),
        total("predictive.predictive_distribution"))
    m["predictive.share"] = _ratio(total("predictive.predictive_distribution"), predict_wall)

    written = attr_sum(by_name["chainio.save_chain"], "bytes")
    m["chainio.save_chain.s"] = total("chainio.save_chain")
    m["chainio.save_mb_per_s"] = _ratio(written / 1e6, total("chainio.save_chain"))
    m["chainio.bytes_written"] = written
    m["chainio.load_chain.calls"] = calls("chainio.load_chain")
    m["chainio.load_chain.s"] = total("chainio.load_chain")
    m["chainio.load_mb_per_s"] = _ratio(attr_sum(by_name["chainio.load_chain"], "bytes") / 1e6,
                                        total("chainio.load_chain"))

    m["data.load.calls"] = sum(calls(name) for name in DATA_LOADS)
    m["data.load.s"] = sum(total(name) for name in DATA_LOADS)

    unaccounted = 0.0
    for _, result, command_spans in commands:
        library = [(s["start"], s["end"]) for s in command_spans if not s["name"].startswith("cli.")]
        unaccounted += result.wall - harness.union_length(library, result.start, result.end)
    m["cli.unaccounted_s"] = unaccounted

    for layer in LAYERS:
        m[f"{layer}.self_share"] = _ratio(layer_self[layer], busy)
    return m
