"""Runtime tracing of the program's layers, from the benchmark's own code.

:class:`Tracer` wraps public functions and methods of each ``repro`` package
with span recorders while it is installed, and restores the originals when
it is removed; nothing under ``src/`` changes.  A span records its name,
start, end, parent span and thread.  Spans are kept in memory;
:meth:`Tracer.dump` writes them out when the run ends.  A span's self time is
its duration minus the part its child spans cover.

:func:`layer_metrics` turns the spans and counts of one pass into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from collections import Counter
from collections.abc import Mapping
from pathlib import Path
from typing import Callable

#: Per-layer metrics in output order: name -> unit.
LAYER_METRICS = {
    "linkage.index_build_s": "s",
    "linkage.match_s": "s",
    "linkage.queries": "count",
    "linkage.matched": "count",
    "fusion.harvest_s": "s",
    "fusion.attack_s": "s",
    "fuzzy.infer_s": "s",
    "fuzzy.records": "count",
    "anonymize.mdav_s": "s",
    "anonymize.mondrian_s": "s",
    "anonymize.datafly_s": "s",
    "anonymize.calls": "count",
    "anonymize.classes": "count",
    "metrics.score_s": "s",
    "core.fred_self_s": "s",
    "core.levels": "count",
    "dataset.ingest_s": "s",
    "dataset.render_s": "s",
    "dataset.fingerprint_s": "s",
    "dataset.append_s": "s",
    "dataset.bytes_in": "bytes",
    "dataset.bytes_out": "bytes",
    "service.register_s": "s",
    "service.release_s": "s",
    "service.attack_s": "s",
    "service.append_s": "s",
    "service.fred_compute_s": "s",
    "service.http_self_ms": "ms",
    "service.jobs_overhead_s": "s",
    "service.cache.hits": "count",
    "service.cache.misses": "count",
    "service.cache.computations": "count",
    "service.cache.invalidations": "count",
    "service.cache.disk_hits": "count",
    "service.cache.container_spills": "count",
    "service.spill_bytes": "bytes",
    "trace.fred_untraced_s": "s",
    "trace.fred_traced_s": "s",
    "trace.overhead_pct": "%",
}

#: Top-level ``AnonymizationService`` spans -> the metric they add to.
_SERVICE_METRICS = {
    "service.register_stream": "service.register_s",
    "service.release_csv": "service.release_s",
    "service.release": "service.release_s",
    "service.attack": "service.attack_s",
    "service.append_stream": "service.append_s",
    "service._compute_fred": "service.fred_compute_s",
}

#: Layers of the FRED pipeline.  When a tracer has a scope, their spans and
#: counts are kept only inside the scope span, so that on the in-process FRED
#: workloads they explain ``fred_s`` and leave out the service sessions.
SCOPED_LAYERS = ("linkage.", "fusion.", "fuzzy.", "anonymize.", "metrics.", "core.")

#: ``GET /stats`` cache counters -> per-layer metric.
CACHE_COUNTERS = {
    "memory_hits": "service.cache.hits",
    "misses": "service.cache.misses",
    "computations": "service.cache.computations",
    "invalidations": "service.cache.invalidations",
    "disk_hits": "service.cache.disk_hits",
    "container_spills": "service.cache.container_spills",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "child", "thread")

    def __init__(self, name: str, start: float, parent: "Span | None", thread: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child = 0.0  # time covered by direct child spans
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Span and count recorder that patches ``repro`` callables while installed.

    ``scope`` names a span (``"core.fred"``) outside which the
    :data:`SCOPED_LAYERS` are not counted; see :func:`layer_metrics`.
    """

    def __init__(self, scope: str | None = None) -> None:
        self.scope = scope
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []
        self._kept: list[dict] = []

    # Recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float) -> None:
        if self.scope is not None and name.startswith(SCOPED_LAYERS) and \
                not any(span.name == self.scope for span in self._stack()):
            return
        with self._lock:
            self.counts[name] += amount

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (a client-side request)."""
        span = Span(name, start, None, threading.get_ident())
        span.end = end
        self.spans.append(span)

    def _wrap(self, function: Callable, name: str | None,
              counter: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if name is None:
                result = function(*args, **kwargs)
                counter(tracer, args, result)
                return result
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, time.perf_counter(), parent, threading.get_ident())
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.duration
                tracer.spans.append(span)
            if counter is not None:
                counter(tracer, args, result)
            return result

        return traced

    # Patching ------------------------------------------------------------

    def patch_function(self, module, attribute: str, name: str,
                       counter: Callable | None = None) -> None:
        """Wrap a module function everywhere a ``repro`` module imported it."""
        original = getattr(module, attribute)
        traced = self._wrap(original, name, counter)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", {})
            if getattr(loaded, "__name__", "").startswith("repro") and \
                    namespace.get(attribute) is original:
                setattr(loaded, attribute, traced)
                self._undo.append(functools.partial(setattr, loaded, attribute, original))

    def patch_method(self, cls: type, attribute: str, name: str | None,
                     counter: Callable | None = None) -> None:
        """Wrap a method (or property getter) as seen from ``cls``.

        ``name=None`` wraps for counting only, without a span.
        """
        own = cls.__dict__.get(attribute)
        inherited = getattr(cls, attribute) if own is None else own
        if isinstance(inherited, property):
            replacement = property(self._wrap(inherited.fget, name, counter))
        else:
            replacement = self._wrap(inherited, name, counter)
        setattr(cls, attribute, replacement)
        if own is None:
            self._undo.append(functools.partial(delattr, cls, attribute))
        else:
            self._undo.append(functools.partial(setattr, cls, attribute, own))

    def install(self) -> None:
        """Wrap every traced layer boundary."""
        from repro.anonymize.datafly import DataflyAnonymizer
        from repro.anonymize.mdav import MDAVAnonymizer
        from repro.anonymize.mondrian import MondrianAnonymizer
        from repro.core.fred import FREDAnonymizer
        from repro.dataset import io as dataset_io
        from repro.dataset.table import Table
        from repro.fusion import attack as fusion_attack
        from repro.fuzzy.inference import MamdaniSystem
        from repro.fuzzy.tsk import SugenoSystem
        from repro.linkage.index import LinkageIndex
        from repro.metrics import dissimilarity, utility
        from repro.service.core import AnonymizationService

        self.patch_method(LinkageIndex, "__init__", "linkage.index_build")
        self.patch_method(LinkageIndex, "match_many", "linkage.match_many", _count_matches)
        self.patch_function(fusion_attack, "harvest_auxiliary", "fusion.harvest")
        self.patch_method(fusion_attack.WebFusionAttack, "run", "fusion.attack")
        for system in (MamdaniSystem, SugenoSystem):
            self.patch_method(system, "evaluate_batch", "fuzzy.infer", _count_records)
        for cls, label in ((MDAVAnonymizer, "mdav"), (MondrianAnonymizer, "mondrian"),
                           (DataflyAnonymizer, "datafly")):
            self.patch_method(cls, "anonymize", f"anonymize.{label}", _count_classes)
        for function in ("dissimilarity_before_fusion", "dissimilarity_after_fusion"):
            self.patch_function(dissimilarity, function, "metrics.score")
        self.patch_function(utility, "utility_of_result", "metrics.score")
        self.patch_method(FREDAnonymizer, "run", "core.fred")
        self.patch_method(FREDAnonymizer, "evaluate_level", None, _count_level)
        for function in ("stream_csv", "append_csv", "stream_jsonl"):
            self.patch_function(dataset_io, function, "dataset.ingest")
        self.patch_function(dataset_io, "render_csv", "dataset.render", _count_rendered)
        self.patch_method(Table, "fingerprint", "dataset.fingerprint")
        self.patch_method(Table, "append", "dataset.append")
        for method in ("register_stream", "release_csv", "release", "attack",
                       "append_stream", "_compute_fred"):
            self.patch_method(AnonymizationService, method, f"service.{method}")

    def remove(self) -> None:
        """Restore every wrapped callable."""
        while self._undo:
            self._undo.pop()()

    # Output --------------------------------------------------------------

    def take(self, label: str) -> tuple[list[Span], Counter]:
        """Hand over the spans and counts recorded so far, keeping a copy to dump."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        index = {id(span): i for i, span in enumerate(spans)}
        self._kept.append({
            "label": label,
            "spans": [
                [s.name, s.start, s.end, index.get(id(s.parent)), s.thread] for s in spans
            ],
            "counts": dict(counts),
        })
        return spans, counts

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ["name", "start", "end", "parent", "thread"]
        path.write_text(json.dumps({"span_columns": columns, "passes": self._kept}))


def _count_matches(tracer: Tracer, args: tuple, result: list) -> None:
    tracer.count("linkage.queries", len(args[1]))
    tracer.count("linkage.matched", sum(1 for match in result if match is not None))


def _count_records(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("fuzzy.records", len(result))


def _count_classes(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("anonymize.calls", 1)
    tracer.count("anonymize.classes", len(result.classes))


def _count_level(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("core.levels", 1)


def _count_rendered(tracer: Tracer, args: tuple, result: str) -> None:
    tracer.count("dataset.bytes_out", len(result.encode("utf-8")))


def _contained(outer: Span, spans: list[Span]) -> list[Span]:
    return [s for s in spans if s.start >= outer.start and s.end <= outer.end]


def _within(span: Span, scope: str) -> bool:
    """Whether ``span`` is a ``scope`` span or runs inside one."""
    while span is not None:
        if span.name == scope:
            return True
        span = span.parent
    return False


def layer_metrics(spans: list[Span], counts: Mapping[str, float],
                  extra: Mapping[str, float], scope: str | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``extra`` supplies figures measured outside the spans: cache counter
    deltas from ``GET /stats``, bytes uploaded, the spill directory size and the
    linkage index build time taken from the traced set-up.  With a ``scope``,
    spans of the :data:`SCOPED_LAYERS` count only inside the ``scope`` span;
    the ``dataset`` and ``service`` metrics still cover the whole pass.
    """
    values = {name: 0.0 for name in LAYER_METRICS}
    values.update(counts)
    for name, value in extra.items():
        values[name] = float(value)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        if scope is None or not span.name.startswith(SCOPED_LAYERS) or _within(span, scope):
            by_name.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def self_total(name: str) -> float:
        return sum(s.self_time for s in by_name.get(name, ()))

    values["linkage.match_s"] = total("linkage.match_many")
    values["fusion.harvest_s"] = self_total("fusion.harvest")
    values["fusion.attack_s"] = self_total("fusion.attack")
    values["fuzzy.infer_s"] = total("fuzzy.infer")
    for label in ("mdav", "mondrian", "datafly"):
        values[f"anonymize.{label}_s"] = total(f"anonymize.{label}")
    values["metrics.score_s"] = total("metrics.score")
    values["core.fred_self_s"] = self_total("core.fred")
    values["dataset.ingest_s"] = total("dataset.ingest")
    values["dataset.render_s"] = total("dataset.render")
    values["dataset.fingerprint_s"] = total("dataset.fingerprint")
    values["dataset.append_s"] = total("dataset.append")

    service_spans = []
    for span in spans:
        metric = _SERVICE_METRICS.get(span.name)
        if metric is None:
            continue
        if span.parent is not None and span.parent.name in _SERVICE_METRICS:
            continue  # nested inside another service call
        values[metric] += span.duration
        service_spans.append(span)

    http_self = []
    for hit in by_name.get("client.release_hit", ()):
        inside = sum(s.duration for s in _contained(hit, service_spans))
        http_self.append(hit.duration - inside)
    if http_self:
        values["service.http_self_ms"] = statistics.median(http_self) * 1000.0

    overhead = 0.0
    for job in by_name.get("client.fred_job", ()):
        fred = sum(s.duration for s in _contained(job, by_name.get("core.fred", [])))
        overhead += job.duration - fred
    values["service.jobs_overhead_s"] = overhead
    return values
