"""The three workloads: set-up, a closed-loop timed phase, checks, metrics.

Every workload runs the default ``KathDBService`` configuration; only
``simulate_model_latency`` differs.  A run is::

    set up SETUP_REPEATS times (the last service is kept) -> serve the
    pre-built request sequence from closed-loop clients -> check every
    answer -> derive the metrics

Request counts are fixed from ``--seconds`` and a nominal rate, not by a
time window, so a seed always produces the same requests and token counts.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import (KathDBConfig, KathDBService, QueryOptions, QueryRequest,
                   ScriptedUser, build_movie_corpus)
from repro.data.mmqa import MovieCorpus

from kathbench import generators, oracle
from kathbench.generators import Spec
from kathbench.tracing import LayerTracer

CORPUS_DOCS = 48
#: The fixed corpus of warm_mix and fresh_questions (the seed the repo's own
#: tests and benchmarks use); the workload seed drives the request sequence.
CORPUS_SEED = 7
RELOAD_DOCS = 200
CLIENTS = 2
SETUP_REPEATS = 3
MAX_WARM_PASSES = 8
#: Fresh-question answers re-run serially after the timed phase.
FRESH_RECHECKS = 8
#: Extra 48-document loads (each into a fresh service) that the serving
#: workloads time for their ingest metrics beside their set-up loads: a
#: single 0.3 s load varies by a quarter on a shared 2-vCPU machine.
INGEST_PROBES = 6


@dataclass
class Answer:
    """What the benchmark keeps of one response."""

    spec: Spec
    corpus: MovieCorpus
    latency_ms: float = 0.0
    ok: bool = False
    error: Optional[str] = None
    shed: bool = False
    queue_ms: float = 0.0
    tokens: int = 0
    table: Any = None
    explained: bool = True
    obs_spans: int = 0

    def failure(self) -> Optional[str]:
        """Why this answer counts as failed, or None."""
        if not self.ok or self.table is None:
            return f"not ok: {self.error}"
        if self.shed:
            return "shed"
        if not self.explained:
            return "explanation requested but missing"
        return None


@dataclass
class Load:
    docs: int
    wall_s: float
    tokens: int


@dataclass
class Window:
    """One slice of a timed phase, served back to back: its clocks."""

    completed: int
    wall_s: float
    cpu_s: float


@dataclass
class Phase:
    """One timed phase: its answers, its clocks and its counters."""

    answers: List[Answer] = field(default_factory=list)
    windows: List[Window] = field(default_factory=list)
    loads: List[Load] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    rss_peak_mb: float = 0.0
    mismatches: List[str] = field(default_factory=list)
    gateway: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    prepared: Dict[str, Dict[str, int]] = field(default_factory=dict)
    tracer: Optional[LayerTracer] = None
    # Loads outside the timed phase: one per set-up, plus any ingest probes.
    population: List[Load] = field(default_factory=list)

    def failures(self) -> List[str]:
        found = [f"{a.spec.text!r}: {a.failure()}" for a in self.answers if a.failure()]
        return found + self.mismatches


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------
def build_request(spec: Spec) -> QueryRequest:
    """The QueryRequest a client sends for ``spec`` (a fresh scripted user)."""
    return QueryRequest(nl_query=spec.text,
                        user=ScriptedUser(spec.clarification_map(), list(spec.corrections)),
                        options=QueryOptions(explain=spec.explain,
                                             explain_top=spec.explain_top))


def new_service(latency: float) -> KathDBService:
    return KathDBService(KathDBConfig(simulate_model_latency=latency))


def load(service: KathDBService, corpus: MovieCorpus) -> Load:
    """Load ``corpus`` and measure the ingest."""
    tokens = service.total_tokens()
    start = time.perf_counter()
    service.load_corpus(corpus)
    return Load(docs=len(corpus), wall_s=time.perf_counter() - start,
                tokens=service.total_tokens() - tokens)


def warm_up(service: KathDBService) -> None:
    """Repeat the six default queries until a pass charges no fewer tokens."""
    previous = None
    for _ in range(MAX_WARM_PASSES):
        spent = 0
        for spec in generators.default_specs():
            response = service.query(build_request(
                replace(spec, explain=True, explain_top=True)))
            if not response.ok:
                raise RuntimeError(f"warm-up query failed: {response.error}")
            spent += response.total_tokens
        if previous is not None and spent >= previous:
            return
        previous = spent
    raise RuntimeError(f"warm-up did not settle in {MAX_WARM_PASSES} passes")


def answer_of(spec: Spec, corpus: MovieCorpus, response, latency_ms: float,
              service: Optional[KathDBService]) -> Answer:
    result = response.result
    answer = Answer(spec=spec, corpus=corpus, latency_ms=latency_ms, ok=response.ok,
                    error=response.error, shed=response.shed_reason is not None,
                    queue_ms=response.queue_ms, tokens=response.total_tokens,
                    table=result.final_table if result is not None else None)
    if response.ok:
        wants_top = spec.explain_top and len(answer.table) and \
            answer.table.schema.has_column("lid")
        answer.explained = ((not spec.explain or bool(response.explanation))
                            and (not wants_top or bool(response.top_explanation)))
    if service is not None and response.trace_id is not None:
        trace = service.trace(response.trace_id)
        answer.obs_spans = len(trace.spans) if trace is not None else 0
    return answer


def serve(service: KathDBService, specs: Sequence[Spec], corpus: MovieCorpus,
          clients: int, tracer: Optional[LayerTracer] = None,
          first_rid: int = 0) -> Tuple[List[Answer], float, float]:
    """Serve ``specs`` from ``clients`` closed-loop client threads.

    Requests are built before the clock starts.  Returns the answers (in
    ``specs`` order), the wall time and the process CPU time of the call.
    """
    requests = [build_request(spec) for spec in specs]
    if tracer is not None:
        for offset, request in enumerate(requests):
            tracer.register(first_rid + offset, request)
    answers: List[Optional[Answer]] = [None] * len(specs)
    start = threading.Barrier(clients + 1)

    def client(lane: range) -> None:
        start.wait()
        for index in lane:
            began = time.perf_counter()
            try:
                response = service.query(requests[index])
            except Exception as error:  # noqa: BLE001 - counted as a failed answer
                answers[index] = Answer(specs[index], corpus, error=repr(error))
                continue
            latency_ms = (time.perf_counter() - began) * 1000.0
            answers[index] = answer_of(specs[index], corpus, response, latency_ms,
                                       service if tracer is not None else None)

    threads = [threading.Thread(target=client, args=(range(lane, len(specs), clients),),
                                name=f"bench-client-{lane}")
               for lane in range(clients)]
    for thread in threads:
        thread.start()
    start.wait()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for thread in threads:
        thread.join()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return [a if a is not None else Answer(s, corpus, error="no response")
            for a, s in zip(answers, specs)], wall, cpu


def reference_digests(specs: Sequence[Spec], corpus: MovieCorpus,
                      ignore: Sequence[str] = ()) -> Dict[Spec, str]:
    """Row digests of a serial run: a fresh service, one request at a time.

    Each request runs alone in its own session (``KathDBService.query``);
    explain flags do not change rows, so they are dropped from the key.
    """
    service = new_service(0.0)
    try:
        service.load_corpus(corpus)
        digests = {}
        for spec in specs:
            key = _row_key(spec)
            if key in digests:
                continue
            response = service.query(build_request(key))
            if not response.ok:
                raise RuntimeError(f"reference run failed for {spec.text!r}: {response.error}")
            digests[key] = oracle.rows_digest(response.result.final_table, ignore)
        return digests
    finally:
        service.shutdown()


def _row_key(spec: Spec) -> Spec:
    return replace(spec, explain=False, explain_top=False)


def compare_rows(answers: Sequence[Answer], reference: Dict[Spec, str],
                 ignore: Sequence[str] = ()) -> List[str]:
    """One message per answer whose rows differ from the serial reference."""
    mismatches = []
    for answer in answers:
        expected = reference.get(_row_key(answer.spec))
        if expected is not None and answer.table is not None and \
                oracle.rows_digest(answer.table, ignore) != expected:
            mismatches.append(f"{answer.spec.text!r}: rows differ from the serial run")
    return mismatches


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counters(service: KathDBService) -> Tuple[Dict[str, Any], Dict[str, int]]:
    stats = service.gateway.stats()
    flat = dict(service.gateway_stats())
    flat["ann_lookups"] = stats["semantic"]["ann"]["lookups"]
    return flat, dict(service.prepared_stats())


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class Workload:
    """Shared flow; subclasses define set-up, the sequence and the phase."""

    name = ""
    latency = 0.0
    #: Requests per window: the timed phase is served window by window, and
    #: throughput and CPU per query are the medians over windows, so a
    #: burst of interference from outside moves one window, not the run.
    window = 1
    #: Requests per second of ``--seconds``: sets the fixed number of windows
    #: in a run (close to the rate measured on a 2-vCPU machine; reload_churn
    #: runs longer than ``--seconds`` to reach eight loads).
    nominal_rate = 1.0

    def windows(self, seconds: float) -> int:
        return max(2, round(seconds * self.nominal_rate / self.window))

    def serve_windows(self, service: KathDBService, specs: Sequence[Spec],
                      corpus: MovieCorpus, clients: int, phase: Phase) -> None:
        for start in range(0, len(specs), self.window):
            answers, wall, cpu = serve(service, specs[start:start + self.window], corpus,
                                       clients, phase.tracer, first_rid=len(phase.answers))
            phase.answers += answers
            phase.windows.append(Window(sum(1 for a in answers if a.ok), wall, cpu))

    def setup(self, seed: int) -> Tuple[KathDBService, Load]:
        raise NotImplementedError

    def run(self, seed: int, seconds: float, repeats: Optional[int] = None,
            tracer: Optional[LayerTracer] = None) -> Phase:
        """Set up ``repeats`` times (default ``SETUP_REPEATS``), then run the
        timed phase on the last service."""
        phase = Phase(tracer=tracer)
        service = None
        for _ in range(repeats or SETUP_REPEATS):
            if service is not None:
                # Free the previous set-up before the next one is timed.
                service.shutdown()
                service = None
                gc.collect()
            started = time.perf_counter()
            service, population = self.setup(seed)
            phase.setup_s.append(time.perf_counter() - started)
            phase.population.append(population)
        try:
            phase.gateway["before"], phase.prepared["before"] = _counters(service)
            self.timed(service, seed, seconds, phase)
            phase.rss_peak_mb = rss_peak_mb()
            phase.gateway["after"], phase.prepared["after"] = _counters(service)
        finally:
            service.shutdown()
        self.probe_ingest(phase)
        self.check(seed, phase)
        return phase

    def timed(self, service: KathDBService, seed: int, seconds: float, phase: Phase) -> None:
        raise NotImplementedError

    def probe_ingest(self, phase: Phase) -> None:
        """Time extra corpus loads for the ingest metrics (none by default)."""

    def check(self, seed: int, phase: Phase) -> None:
        """Append row mismatches against a serial reference to ``phase``."""


class Serving(Workload):
    """A workload serving queries over the fixed 48-document corpus."""

    def __init__(self) -> None:
        self.corpus = build_movie_corpus(size=CORPUS_DOCS, seed=CORPUS_SEED)

    def probe_ingest(self, phase):
        """Time ``INGEST_PROBES`` more loads of the corpus for the ingest metrics."""
        for _ in range(INGEST_PROBES):
            service = new_service(self.latency)
            try:
                phase.population.append(load(service, self.corpus))
            finally:
                service.shutdown()


class WarmMix(Serving):
    """Steady interactive serving of the six default queries (CPU-bound)."""

    name = "warm_mix"
    latency = 0.0
    window = 12 * sum(generators.WARM_WEIGHTS.values())
    nominal_rate = 55.0

    def __init__(self) -> None:
        super().__init__()
        self._reference: Optional[Dict[Spec, str]] = None

    def setup(self, seed):
        service = new_service(self.latency)
        population = load(service, self.corpus)
        warm_up(service)
        return service, population

    def timed(self, service, seed, seconds, phase):
        specs = generators.warm_mix_specs(seed, self.windows(seconds) * self.window)
        self.serve_windows(service, specs, self.corpus, CLIENTS, phase)

    def check(self, seed, phase):
        if self._reference is None:
            self._reference = reference_digests(generators.default_specs(), self.corpus)
        phase.mismatches += compare_rows(phase.answers, self._reference)


class FreshQuestions(Serving):
    """An ad-hoc analyst: every request new, model latency simulated."""

    name = "fresh_questions"
    latency = 1.0
    window = 3 * sum(generators.FRESH_WEIGHTS.values())
    nominal_rate = 17.0

    def setup(self, seed):
        service = new_service(self.latency)
        population = load(service, self.corpus)
        warmup = [build_request(spec) for spec in generators.fresh_warmup_specs()]
        failed = [r.error for r in service.query_batch(warmup, jobs=4) if not r.ok]
        if failed:
            raise RuntimeError(f"warm-up query failed: {failed[0]}")
        return service, population

    def timed(self, service, seed, seconds, phase):
        specs = generators.fresh_specs(seed, self.windows(seconds) * self.window,
                                       exclude=generators.fresh_warmup_specs())
        self.serve_windows(service, specs, self.corpus, CLIENTS, phase)

    def check(self, seed, phase):
        sample = random.Random(f"fresh_questions/recheck:{seed}").sample(
            [a.spec for a in phase.answers], min(FRESH_RECHECKS, len(phase.answers)))
        phase.mismatches += compare_rows(phase.answers,
                                         reference_digests(sample, self.corpus))


class ReloadChurn(Workload):
    """Corpus reloads beside cold queries; the caches' working set grows."""

    name = "reload_churn"
    latency = 0.0
    #: One window per load: the questions asked after it.
    window = len(generators.reload_specs())
    nominal_rate = window / 2.5

    def corpora(self, seed: int, loads: int) -> List[MovieCorpus]:
        """The setup corpus plus one fresh corpus per timed load."""
        return [build_movie_corpus(size=RELOAD_DOCS, seed=corpus_seed)
                for corpus_seed in generators.corpus_seeds(seed, loads + 1)]

    def setup(self, seed):
        service = new_service(self.latency)
        population = load(service, self._corpora[0])
        return service, population

    def run(self, seed, seconds, repeats=None, tracer=None):
        self._corpora = self.corpora(seed, self.windows(seconds))
        return super().run(seed, seconds, repeats, tracer)

    def timed(self, service, seed, seconds, phase):
        for corpus in self._corpora[1:]:
            phase.loads.append(load(service, corpus))
            self.serve_windows(service, generators.reload_specs(), corpus, 1, phase)

    def check(self, seed, phase):
        # Lineage ids are allocated by the service-wide lineage store, which
        # keeps every earlier corpus's entries, so a service that loaded
        # other corpora first numbers the same rows differently; every other
        # column must match the fresh service's rows.
        last = self._corpora[-1]
        final = [a for a in phase.answers if a.corpus is last]
        ignore = ("lid",)
        phase.mismatches += compare_rows(
            final, reference_digests([a.spec for a in final], last, ignore), ignore)


WORKLOADS = {workload.name: workload for workload in (WarmMix, FreshQuestions, ReloadChurn)}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method, linear interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def throughput(phase: Phase) -> float:
    """Completed queries per second: the median over the phase's windows."""
    return statistics.median(w.completed / w.wall_s for w in phase.windows)


def end_to_end(phase: Phase) -> Dict[str, float]:
    """Every end-to-end metric of one untraced phase."""
    done = [a for a in phase.answers if a.ok]
    latencies = [a.latency_ms for a in phase.answers]
    # Ingest is timed on the loads of the timed phase where there are any
    # (reload_churn), else on the set-up loads.
    loads = phase.loads or phase.population
    return {
        "setup_s": statistics.median(phase.setup_s),
        "query_p50_ms": statistics.median(latencies),
        "query_p95_ms": percentile(latencies, 95),
        "throughput_qps": throughput(phase),
        "cpu_ms_per_query": statistics.median(w.cpu_s * 1000.0 / max(1, w.completed)
                                              for w in phase.windows),
        "tokens_per_query": sum(a.tokens for a in done) / max(1, len(done)),
        "answer_quality": statistics.fmean(
            oracle.score(a.spec, a.corpus, oracle.answer_ids(a.table)) for a in done)
        if done else 0.0,
        "rss_peak_mb": phase.rss_peak_mb,
        "ingest_docs_per_s": statistics.median(x.docs / x.wall_s for x in loads),
        "ingest_tokens_per_doc": sum(x.tokens for x in loads) / sum(x.docs for x in loads),
    }
