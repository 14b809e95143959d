"""In-memory span tracing around the program's layer boundaries.

The benchmark does not add spans inside ``src/``.  Instead
:func:`instrument` replaces each layer's public function, for the
duration of a ``with`` block, at the exact name its caller looks up
(``dataset.py`` calls ``encode_edges`` through its own module globals,
so the wrapper goes on ``repro.edgeio.dataset.encode_edges``).  Each
wrapped call records one span: name, start, end, thread and parent.
A span's parent is the innermost open span on the same thread, or the
root span when the thread has none open (the async executor's pool
threads), so a layer's self time is its duration minus the part of
that interval its child spans cover.  Spans stay in memory; a traced
run writes them out once, as Chrome-trace JSON, when it ends.

Work that runs in lane or service worker processes never passes
through these wrappers; it is read from counters the program already
returns (see ``workloads.py``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One recorded call: ``start``/``end`` are ``perf_counter`` seconds."""

    span_id: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe span and counter recorder.

    Counters are summed by name (``edgeio.bytes_decoded`` …) and are
    recorded at the same boundaries as the spans.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.root: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span around the ``with`` body."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id, name, parent, threading.get_ident(),
                    time.perf_counter())
        stack.append(span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    @contextlib.contextmanager
    def root_span(self, name: str) -> Iterator[Span]:
        """A span every parentless span on any thread attaches to."""
        with self.span(name) as span:
            self.root = span.span_id
            try:
                yield span
            finally:
                self.root = None

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] += amount

    def chrome_trace(self) -> Dict[str, object]:
        """Chrome/Perfetto ``traceEvents`` document of the kept spans."""
        with self._lock:
            spans = list(self.spans)
        origin = min((s.start for s in spans), default=0.0)
        events = [
            {
                "name": s.name, "ph": "X", "pid": os.getpid(),
                "tid": s.thread,
                "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
                "args": {"id": s.span_id, "parent": s.parent},
            }
            for s in spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()), encoding="utf-8")


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span], root: int) -> Dict[str, float]:
    """Summed self time per span name over ``root`` and its descendants.

    Self time is a span's duration minus the part of it its children
    cover (their union, so overlapping children on pool threads are not
    subtracted twice).  Within one thread the self times of a span tree
    add up to the root's duration exactly.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    totals: Dict[str, float] = defaultdict(float)
    pending = [s for s in spans if s.span_id == root]
    while pending:
        span = pending.pop()
        kids = children.get(span.span_id, [])
        covered = _covered([(k.start, k.end) for k in kids],
                           span.start, span.end)
        totals[span.name] += span.duration - covered
        pending.extend(kids)
    return dict(totals)


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
Counter = Callable[[tuple, dict, object], Dict[str, float]]


def _encoded(args, kwargs, result):
    return {"edgeio.bytes_encoded": len(result)}


def _decoded(args, kwargs, result):
    payload = args[0] if args else kwargs["payload"]
    return {"edgeio.bytes_decoded": len(payload)}


def _generated(args, kwargs, result):
    return {"generators.edges": len(result[0])}


def _sorted(args, kwargs, result):
    return {"sort.edges": len(result[0])}


#: ``(module or module:Class, attribute, span name, counter)`` for every
#: wrapped name.  Where two callers import one function under their own
#: names, both names are listed; each wraps the original once.
LAYER_TARGETS: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    # Kernel 0 generator: registry._kronecker looks it up in its module.
    ("repro.generators.registry", "kronecker_edges", "generators", _generated),
    # TSV codec, looked up by dataset.write_shard / read_shard(_file).
    ("repro.edgeio.dataset", "encode_edges", "edgeio.encode", _encoded),
    ("repro.edgeio.dataset", "decode_edges", "edgeio.decode", _decoded),
    # Shard files: everything around the codec (syscalls, CRC, npy
    # save/load, label-bound checks) is this span's self time.
    ("repro.edgeio.dataset", "write_shard", "edgeio.file_io", None),
    ("repro.edgeio.dataset:EdgeDataset", "read_shard", "edgeio.file_io", None),
    ("repro.edgeio.dataset", "read_shard_file", "edgeio.file_io", None),
    ("repro.core.async_executor", "write_shard", "edgeio.file_io", None),
    ("repro.core.async_executor", "read_shard_file", "edgeio.file_io", None),
    # Kernel 1 sort (the async executor imports it at call time).
    ("repro.backends.scipy_backend", "sort_edges", "sort", _sorted),
    ("repro.sort.inmemory", "sort_edges", "sort", _sorted),
    # Kernel 2 build (serial backend / out-of-core) and Kernel 3.
    ("repro.backends.scipy_backend:ScipyBackend", "kernel2",
     "backends.k2_build", None),
    ("repro.core.streaming", "streaming_kernel2", "backends.k2_build", None),
    ("repro.backends.scipy_backend:ScipyBackend", "kernel3",
     "backends.k3_iterate", None),
    # Service clients: submit, then block until the job's reply.
    ("repro.service.service:BenchmarkService", "submit", "service.submit",
     None),
    ("repro.service.service:BenchmarkService", "result", "service.result",
     None),
    # The four inter-kernel contracts.
    ("repro.core.stages:GenerateContract", "check", "contracts.k0", None),
    ("repro.core.stages:SortContract", "check", "contracts.k1", None),
    ("repro.core.stages:FilterContract", "check", "contracts.k2", None),
    ("repro.core.stages:RankContract", "check", "contracts.k3", None),
)


def _resolve(target: str) -> object:
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _wrap(tracer: Tracer, fn: Callable, name: str,
          counter: Optional[Counter]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            for key, amount in counter(args, kwargs, result).items():
                tracer.count(key, amount)
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every :data:`LAYER_TARGETS` name for the ``with`` block.

    Originals are restored on exit, so untraced runs before and after
    execute the program's own functions.
    """
    patched: List[Tuple[object, str, object]] = []
    try:
        for target, attr, name, counter in LAYER_TARGETS:
            owner = _resolve(target)
            original = owner.__dict__[attr]
            patched.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, counter))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
