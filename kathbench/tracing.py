"""The traced run: spans around each layer's public entry points.

:class:`LayerTracer` wraps entry points of ``src/repro`` from the outside
(it patches class and module attributes and restores them on
:meth:`LayerTracer.uninstall`).  Every wrapped call records one span: name,
layer, request id, parent span, start and end on the wall clock
(``perf_counter``) and on the thread's CPU clock (``thread_time``).  Spans
nest per thread; a span's *self* time is its duration minus the time its
child spans cover, so the self times of one request add up to the part of
its latency the layers account for.

A call nested directly inside a span of the same layer records no span of
its own (an embedding call inside another embedding call, a gateway batch
member inside its batch): its time stays in the enclosing span, and the
per-call wrapper cost is paid once per layer entry instead of once per
inner call.

Spans stay in memory and :meth:`LayerTracer.write` writes them out when the
run ends.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.api.service import KathDBService
from repro.api.session import Session
from repro.datamodel.lineage import LineageStore
from repro.datamodel.views import ViewPopulator
from repro.executor.engine import ExecutionEngine
from repro.explain.explainer import Explainer
from repro.fao.codegen import Coder
from repro.fao.critic import Critic
from repro.fao.profiler import Profiler
from repro.gateway import proxy
from repro.gateway.gateway import ModelGateway
from repro.gateway.vectorized import GatewayBatchClient
from repro.models.cost import CostMeter
from repro.models.detector import PixelObjectDetector
from repro.models.embeddings import EmbeddingModel
from repro.models.llm import SimulatedLLM
from repro.models.ner import EntityExtractor
from repro.models.ocr import OCRTextExtractor
from repro.models.vlm import SimulatedVLM
from repro.optimizer.optimizer import QueryOptimizer
from repro.parser.nl_parser import NLParser
from repro.parser.plan_generator import LogicalPlanGenerator
from repro.parser.plan_verifier import PlanVerifier
from repro.relational import operators

# Span record fields (a list per span, mutated in place while it is open).
ID, NAME, LAYER, RID, PARENT, T0, T1, C0, C1, CHILD_WALL, CHILD_CPU, INFO = range(12)

#: Model class -> the gateway proxy whose methods are that model's call surface.
MODEL_SURFACES = (
    (SimulatedLLM, proxy.GatewayLLM),
    (SimulatedVLM, proxy.GatewayVLM),
    (EmbeddingModel, proxy.GatewayEmbeddings),
    (EntityExtractor, proxy.GatewayNER),
    (PixelObjectDetector, proxy.GatewayDetector),
    (OCRTextExtractor, proxy.GatewayOCR),
)

#: Public operator functions of the relational layer.
RELATIONAL_FUNCTIONS = ("filter_rows", "project", "extend", "rename_columns", "distinct",
                        "sort", "limit", "union_all", "cross_product", "hash_join",
                        "aggregate")


def _parse_info(result: Any, args: Tuple[Any, ...]) -> Dict[str, int]:
    return {"clarifications": result.clarification_rounds,
            "corrections": result.correction_rounds}


def _optimize_info(result: Any, args: Tuple[Any, ...]) -> Dict[str, int]:
    report = result[1]
    return {"tokens": report.tokens_spent, "candidates": report.candidates_evaluated}


def _execute_info(result: Any, args: Tuple[Any, ...]) -> Dict[str, int]:
    return {"operators": len(result.records), "repairs": result.repairs_performed()}


def _load_info(result: Any, args: Tuple[Any, ...]) -> Dict[str, int]:
    return {"docs": len(args[1])}


class LayerTracer:
    """Records spans around the layers' entry points while installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.lineage_rows: Dict[Optional[int], int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        # id(QueryRequest) and id(user agent) -> request id, registered by
        # the client before it submits; the service's worker thread finds
        # the request id through whichever of the two objects it is handed.
        self._request_ids: Dict[int, int] = {}

    # -- request ids -------------------------------------------------------------
    def register(self, rid: int, request: Any) -> None:
        """Tag ``request`` (and its user agent) with request id ``rid``."""
        self._request_ids[id(request)] = rid
        if request.user is not None:
            self._request_ids[id(request.user)] = rid

    def _rid_of_request(self, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Optional[int]:
        request = args[1] if len(args) > 1 else kwargs.get("request")
        return self._request_ids.get(id(request))

    def _rid_of_user(self, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Optional[int]:
        user = args[1] if len(args) > 1 else kwargs.get("user")
        return self._request_ids.get(id(user)) if user is not None else None

    # -- installation ---------------------------------------------------------------
    def install(self) -> "LayerTracer":
        wrap = self._wrap
        wrap(KathDBService, "session", "api", rid_of=self._rid_of_user)
        wrap(Session, "query", "api", rid_of=self._rid_of_request)
        wrap(NLParser, "parse", "parser", info=_parse_info)
        for attr in ("generate", "revise"):
            wrap(LogicalPlanGenerator, attr, "plan")
        wrap(PlanVerifier, "verify", "plan")
        wrap(QueryOptimizer, "optimize", "optimizer", info=_optimize_info)
        for attr in ("generate", "repair"):
            wrap(Coder, attr, "codegen")
        wrap(Profiler, "profile", "profile")
        for attr in ("review", "review_and_repair"):
            wrap(Critic, attr, "critic")
        wrap(ExecutionEngine, "execute", "executor", info=_execute_info)
        for name in RELATIONAL_FUNCTIONS:
            wrap(operators, name, "relational")
        wrap(ModelGateway, "invoke", "gateway")
        wrap(GatewayBatchClient, "invoke", "gateway")
        for model_class, surface in MODEL_SURFACES:
            for attr, value in vars(surface).items():
                if callable(value) and not attr.startswith("_") and attr in vars(model_class):
                    wrap(model_class, attr, "models")
        for attr in ("record", "record_batched"):
            wrap(CostMeter, attr, "wait")
        wrap(ViewPopulator, "load_corpus", "datamodel", info=_load_info)
        wrap(ViewPopulator, "populate_scene_views", "scene")
        wrap(ViewPopulator, "populate_text_views", "text")
        for attr in ("explain_tuple", "explain_pipeline"):
            wrap(Explainer, attr, "explain")
        self._count_lineage()
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, owner: Any, attr: str, layer: str,
              rid_of: Optional[Callable[..., Optional[int]]] = None,
              info: Optional[Callable[[Any, Tuple], Dict[str, int]]] = None) -> None:
        original = vars(owner)[attr]
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans, stack_of, ids = self.spans, self._stack, self._ids
        perf, cpu = time.perf_counter, time.thread_time

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            if parent is not None and parent[LAYER] == layer:
                return original(*args, **kwargs)
            rid = parent[RID] if parent is not None else None
            if rid is None and rid_of is not None:
                rid = rid_of(args, kwargs)
            record = [next(ids), name, layer, rid,
                      parent[ID] if parent is not None else None,
                      perf(), 0.0, cpu(), 0.0, 0.0, 0.0, None]
            stack.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[C1] = cpu()
                record[T1] = perf()
                stack.pop()
                if parent is not None:
                    parent[CHILD_WALL] += record[T1] - record[T0]
                    parent[CHILD_CPU] += record[C1] - record[C0]
                spans.append(record)
            if info is not None:
                record[INFO] = info(result, args)
            return result

        self._patch(owner, attr, traced)

    def _count_lineage(self) -> None:
        """Count lineage edges written, per request (a counter, not a span)."""
        original = vars(LineageStore)["record"]
        counts, stack_of = self.lineage_rows, self._stack

        @functools.wraps(original)
        def counted(*args, **kwargs):
            entry = original(*args, **kwargs)
            if entry is not None:
                stack = stack_of()
                counts[stack[-1][RID] if stack else None] += 1
            return entry

        self._patch(LineageStore, "record", counted)

    # -- output ----------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "layer", "request", "parent", "start", "end",
                "cpu_start", "cpu_end")
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for record in sorted(self.spans, key=lambda r: r[ID]):
                row = dict(zip(keys, record[:C1 + 1]))
                if record[INFO]:
                    row["info"] = record[INFO]
                out.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
def self_times(spans: Iterable[list]) -> Dict[str, Dict[str, float]]:
    """Per layer: span count and summed self wall / self CPU time (ms)."""
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"spans": 0, "wall_ms": 0.0, "cpu_ms": 0.0})
    for record in spans:
        entry = totals[record[LAYER]]
        entry["spans"] += 1
        entry["wall_ms"] += (record[T1] - record[T0] - record[CHILD_WALL]) * 1000.0
        entry["cpu_ms"] += (record[C1] - record[C0] - record[CHILD_CPU]) * 1000.0
    return totals


def info_total(spans: Iterable[list], layer: str, key: str) -> int:
    """Sum of one ``info`` field over a layer's spans."""
    return sum(record[INFO][key] for record in spans
               if record[LAYER] == layer and record[INFO])


def attributed_ms(spans: Iterable[list]) -> Dict[int, float]:
    """Per request id: the summed self wall time of its spans (ms)."""
    per_request: Dict[int, float] = defaultdict(float)
    for record in spans:
        if record[RID] is not None:
            per_request[record[RID]] += (record[T1] - record[T0] - record[CHILD_WALL]) * 1000.0
    return per_request
