"""Metric catalogue, per-layer derivation and the result line.

Every ``*_ms`` per-layer metric is *self* time on the wall clock (a span's
duration minus its child spans), so the layers of one request add up to its
latency instead of counting nested work twice.  The two
``datamodel.*_ms_per_doc`` metrics are the exception: they are inclusive
(everything a view population takes, model calls too), which is what
``ingest_docs_per_s`` answers to.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Tuple

from kathbench import tracing
from kathbench.tracing import LAYER, RID, T0, T1
from kathbench.workloads import Phase, throughput

#: name -> (unit, better).  The order is the print order.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "query_p95_ms": ("ms", "lower"),
    "throughput_qps": ("1/s", "higher"),
    "cpu_ms_per_query": ("ms", "lower"),
    "tokens_per_query": ("tokens", "lower"),
    "answer_quality": ("share", "higher"),
    "rss_peak_mb": ("MB", "lower"),
    "ingest_docs_per_s": ("1/s", "higher"),
    "ingest_tokens_per_doc": ("tokens", "lower"),
}

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sched.queue_ms_per_query": ("ms", "lower"),
    "sched.shed_requests": ("count", "lower"),
    "api.prepared_hit_share": ("share", "higher"),
    "api.ms_per_query": ("ms", "lower"),
    "parser.ms_per_query": ("ms", "lower"),
    "parser.plan_ms_per_query": ("ms", "lower"),
    "parser.clarification_rounds_per_query": ("count", "lower"),
    "parser.correction_rounds_per_query": ("count", "lower"),
    "optimizer.ms_per_query": ("ms", "lower"),
    "optimizer.tokens_per_query": ("tokens", "lower"),
    "optimizer.candidates_per_query": ("count", "lower"),
    "fao.codegen_ms_per_query": ("ms", "lower"),
    "fao.profile_ms_per_query": ("ms", "lower"),
    "fao.critic_ms_per_query": ("ms", "lower"),
    "executor.ms_per_query": ("ms", "lower"),
    "executor.operators_per_query": ("count", "lower"),
    "executor.repairs_per_query": ("count", "lower"),
    "relational.ms_per_query": ("ms", "lower"),
    "gateway.calls_per_query": ("count", "lower"),
    "gateway.self_ms_per_call": ("ms", "lower"),
    "gateway.self_cpu_ms_per_call": ("ms", "lower"),
    "gateway.exact_hit_share": ("share", "higher"),
    "gateway.semantic_hit_share": ("share", "higher"),
    "gateway.coalesced_share": ("share", "higher"),
    "gateway.batched_share": ("share", "higher"),
    "gateway.tokens_saved_per_query": ("tokens", "higher"),
    "gateway.entries": ("count", "lower"),
    "gateway.evictions": ("count", "lower"),
    "gateway.ann_probes_per_lookup": ("count", "lower"),
    "gateway.ann_max_bucket": ("count", "lower"),
    "models.calls_per_query": ("count", "lower"),
    "models.compute_ms_per_query": ("ms", "lower"),
    "models.sim_wait_ms_per_query": ("ms", "lower"),
    "datamodel.scene_ms_per_doc": ("ms", "lower"),
    "datamodel.text_ms_per_doc": ("ms", "lower"),
    "datamodel.self_ms_per_doc": ("ms", "lower"),
    "datamodel.tokens_per_doc": ("tokens", "lower"),
    "datamodel.lineage_rows_per_query": ("count", "lower"),
    "explain.ms_per_call": ("ms", "lower"),
    "obs.spans_per_query": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.unattributed_share": ("share", "lower"),
    "trace.repro_cpu_ms_per_query": ("ms", "lower"),
}

#: Layers whose self time is the model simulator (compute, then synthetic wait);
#: everything else is the program's own overhead.
SIMULATOR_LAYERS = frozenset({"models", "wait"})


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _delta(phase: Phase, group: str, key: str) -> float:
    counters = getattr(phase, group)
    return counters["after"][key] - counters["before"][key]


def _inclusive_ms(spans: Iterable[list], layer: str) -> float:
    return sum((r[T1] - r[T0]) * 1000.0 for r in spans if r[LAYER] == layer)


def per_layer(untraced: Phase, traced: Phase) -> Dict[str, float]:
    """Every per-layer metric, from the traced phase (and the untraced one)."""
    spans = traced.tracer.spans
    requests = [r for r in spans if r[RID] is not None]
    layer = tracing.self_times(requests)
    done = [a for a in traced.answers if a.ok]
    queries = max(1, len(done))

    def per_query(name: str, key: str = "wall_ms") -> float:
        return layer[name][key] / queries if name in layer else 0.0

    served = sum(_delta(traced, "gateway", key) for key in
                 ("cache_hits", "cache_misses", "semantic_hits", "coalesced"))
    prepared = sum(_delta(traced, "prepared", key) for key in
                   ("hits", "misses", "uncacheable"))
    gateway_calls = layer["gateway"]["spans"] if "gateway" in layer else 0
    explain = layer.get("explain", {"spans": 0, "wall_ms": 0.0})
    loads = traced.population + traced.loads
    docs = sum(x.docs for x in loads)
    ingest = tracing.self_times(r for r in spans if r[RID] is None)
    attributed = tracing.attributed_ms(requests)
    latency = sum(a.latency_ms for a in done)
    covered = sum(a.queue_ms + attributed.get(rid, 0.0)
                  for rid, a in enumerate(traced.answers) if a.ok)
    own_cpu = sum(v["cpu_ms"] for name, v in layer.items() if name not in SIMULATOR_LAYERS)
    # The cost meter's sleep is the synthetic wait: its off-CPU time.  What
    # the meter spends on CPU is simulator bookkeeping, counted as compute.
    wait = layer.get("wait", {"wall_ms": 0.0, "cpu_ms": 0.0})
    untraced_qps, traced_qps = throughput(untraced), throughput(traced)
    return {
        "sched.queue_ms_per_query": sum(a.queue_ms for a in done) / queries,
        "sched.shed_requests": sum(1 for a in traced.answers if a.shed),
        "api.prepared_hit_share": _share(_delta(traced, "prepared", "hits"), prepared),
        "api.ms_per_query": per_query("api"),
        "parser.ms_per_query": per_query("parser"),
        "parser.plan_ms_per_query": per_query("plan"),
        "parser.clarification_rounds_per_query":
            tracing.info_total(requests, "parser", "clarifications") / queries,
        "parser.correction_rounds_per_query":
            tracing.info_total(requests, "parser", "corrections") / queries,
        "optimizer.ms_per_query": per_query("optimizer"),
        "optimizer.tokens_per_query": tracing.info_total(requests, "optimizer", "tokens") / queries,
        "optimizer.candidates_per_query":
            tracing.info_total(requests, "optimizer", "candidates") / queries,
        "fao.codegen_ms_per_query": per_query("codegen"),
        "fao.profile_ms_per_query": per_query("profile"),
        "fao.critic_ms_per_query": per_query("critic"),
        "executor.ms_per_query": per_query("executor"),
        "executor.operators_per_query": tracing.info_total(requests, "executor", "operators") / queries,
        "executor.repairs_per_query": tracing.info_total(requests, "executor", "repairs") / queries,
        "relational.ms_per_query": per_query("relational"),
        "gateway.calls_per_query": gateway_calls / queries,
        "gateway.self_ms_per_call": _share(layer["gateway"]["wall_ms"], gateway_calls)
        if gateway_calls else 0.0,
        "gateway.self_cpu_ms_per_call": _share(layer["gateway"]["cpu_ms"], gateway_calls)
        if gateway_calls else 0.0,
        "gateway.exact_hit_share": _share(_delta(traced, "gateway", "cache_hits"), served),
        "gateway.semantic_hit_share": _share(_delta(traced, "gateway", "semantic_hits"), served),
        "gateway.coalesced_share": _share(_delta(traced, "gateway", "coalesced"), served),
        "gateway.batched_share": _share(_delta(traced, "gateway", "batched_calls"), served),
        "gateway.tokens_saved_per_query": _delta(traced, "gateway", "tokens_saved") / queries,
        "gateway.entries": traced.gateway["after"]["cache_entries"],
        "gateway.evictions": _delta(traced, "gateway", "evictions"),
        "gateway.ann_probes_per_lookup": _share(_delta(traced, "gateway", "ann_probes"),
                                                _delta(traced, "gateway", "ann_lookups")),
        "gateway.ann_max_bucket": traced.gateway["after"]["ann_max_bucket"],
        "models.calls_per_query": per_query("models", "spans"),
        "models.compute_ms_per_query": per_query("models") + wait["cpu_ms"] / queries,
        "models.sim_wait_ms_per_query": (wait["wall_ms"] - wait["cpu_ms"]) / queries,
        "datamodel.scene_ms_per_doc": _share(_inclusive_ms(spans, "scene"), docs),
        "datamodel.text_ms_per_doc": _share(_inclusive_ms(spans, "text"), docs),
        "datamodel.self_ms_per_doc": _share(sum(ingest[name]["wall_ms"] for name in
                                                ("datamodel", "scene", "text")
                                                if name in ingest), docs),
        "datamodel.tokens_per_doc": _share(sum(x.tokens for x in loads), docs),
        "datamodel.lineage_rows_per_query":
            sum(n for rid, n in traced.tracer.lineage_rows.items() if rid is not None) / queries,
        "explain.ms_per_call": _share(explain["wall_ms"], explain["spans"]),
        "obs.spans_per_query": sum(a.obs_spans for a in done) / queries,
        "trace.overhead_pct": (untraced_qps / traced_qps - 1.0) * 100.0,
        "trace.unattributed_share": 1.0 - _share(covered, latency),
        "trace.repro_cpu_ms_per_query": own_cpu / queries,
    }


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], catalogue: Dict[str, Tuple[str, str]]) -> str:
    """The JSON object the benchmark prints as its last line."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in catalogue.items()},
    })


def summary(phases: List[Phase]) -> Tuple[bool, int, int, List[str]]:
    """(correct, attempted, failed, failure messages) over ``phases``."""
    failures = [message for phase in phases for message in phase.failures()]
    attempted = sum(len(phase.answers) for phase in phases)
    failed = len(failures)
    return failed == 0, attempted, failed, failures

