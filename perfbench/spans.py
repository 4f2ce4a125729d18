"""Outside-in tracing: spans around calls into the program's public functions.

The benchmark never edits ``src/``.  In a traced run it replaces a few public
functions and methods with wrappers that record one span per call: an id, the
id of the span that caused it (the innermost open span of the same thread or
asyncio task), a name, start and end on ``time.perf_counter`` and one optional
number taken from the call (a count such as the patterns mined).  Spans stay
in memory as tuples and are written out as JSON lines when the run ends.

``install_watch`` wraps the miner's layers in the benchmark process;
``install_serve`` wraps the server's layers inside the ``repro serve`` child
(see ``serve_launcher.py``).  Untraced runs install nothing.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (span id, parent id, name, start, end, note)
Span = Tuple[int, int, str, float, float, float]

_clock = time.perf_counter


class Tracer:
    """An in-memory span recorder shared by every wrapper it installs."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Names of the spans still open, so a child can see what caused it.
        self.open_names: Dict[int, str] = {}
        self._ids = itertools.count(1)
        self._replaced: List[Tuple[object, str, object]] = []
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )

    def wrap(
        self,
        fn: Callable,
        name: str,
        note: Optional[Callable[[tuple, object], float]] = None,
        name_of: Optional[Callable[[tuple, int], str]] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``note(args, result)`` extracts a number stored on the span;
        ``name_of(args, parent_id)`` overrides the span name per call.
        """
        spans, ids, current, open_names = self.spans, self._ids, self._current, self.open_names

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span_id, parent = next(ids), current.get()
                token = current.set(span_id)
                open_names[span_id] = name
                start = _clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = _clock()
                    current.reset(token)
                    del open_names[span_id]
                    spans.append((span_id, parent, name, start, end, 0.0))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = next(ids), current.get()
            token = current.set(span_id)
            label = name if name_of is None else name_of(args, parent)
            open_names[span_id] = label
            start = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                current.reset(token)
                del open_names[span_id]
                value = 0.0 if note is None or result is None else float(note(args, result))
                spans.append((span_id, parent, label, start, end, value))

        return wrapper

    def wrap_iterator_factory(self, fn: Callable, name: str) -> Callable:
        """Wrap a function returning an iterator: one span per ``next`` call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))

            def timed():
                pull = tracer.wrap(lambda: next(inner), name)
                while True:
                    try:
                        item = pull()
                    except StopIteration:
                        return
                    yield item

            return timed()

        return wrapper

    def patch(
        self, owner: object, attribute: str, name: str, iterator: bool = False, **options
    ) -> None:
        """Replace ``owner.attribute`` (function, method or classmethod).

        ``iterator`` wraps a function that returns an iterator: one span per
        ``next`` call instead of one for the call itself.
        """
        raw = inspect.getattr_static(owner, attribute)
        self._replaced.append((owner, attribute, raw))
        if iterator:
            setattr(owner, attribute, self.wrap_iterator_factory(raw, name))
        elif isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(self.wrap(raw.__func__, name, **options)))
        else:
            setattr(owner, attribute, self.wrap(raw, name, **options))

    def uninstall(self) -> None:
        """Put back every function :meth:`patch` replaced."""
        while self._replaced:
            owner, attribute, raw = self._replaced.pop()
            setattr(owner, attribute, raw)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load_spans(path: Path) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]  # type: ignore[misc]


def install_watch(tracer: Tracer) -> None:
    """Wrap the layers a ``watch`` slide passes through (benchmark process)."""
    from repro.core import miner as core_miner
    from repro.core.algorithms import ALGORITHMS
    from repro.graph.edge_registry import EdgeRegistry
    from repro.history.journal import PatternJournal, SlideRecord
    from repro.storage.dsmatrix import DSMatrix
    from repro.stream.stream import GraphStream, TransactionStream

    for stream_class in (GraphStream, TransactionStream):
        tracer.patch(stream_class, "batches", "stream.batch", iterator=True)
    tracer.patch(EdgeRegistry, "encode", "graph.encode")
    tracer.patch(DSMatrix, "append_batch", "storage.commit")
    tracer.patch(core_miner.StreamSubgraphMiner, "mine", "core.mine")
    for algorithm in ALGORITHMS.values():
        if "mine" in vars(algorithm):
            tracer.patch(
                algorithm,
                "mine",
                "algorithms.mine",
                note=lambda args, result: args[0].stats.bitvector_intersections,
            )
    tracer.patch(SlideRecord, "__post_init__", "journal.canonicalise")
    tracer.patch(SlideRecord, "to_bytes", "journal.encode", note=lambda a, r: len(r))
    tracer.patch(PatternJournal, "append", "journal.append")


def query_family(query: object) -> str:
    """The benchmark's query family of a parsed algebra query (see serve.py)."""
    from repro.history import algebra

    if isinstance(query, algebra.History):
        return "history"
    if isinstance(query, algebra.TopK):
        return "topk_all" if query.where is None else "topk_latest"
    text = json.dumps(algebra.to_json(query))
    if '"contained_in"' in text:
        return "contained_in"
    if '"contains"' in text:
        return "select_contains"
    return "select_support"


def install_serve(tracer: Tracer) -> None:
    """Wrap the serving layers (runs inside the ``repro serve`` process).

    Parse, evaluate and ``json.dumps`` calls are named by what caused them:
    under an ``http.query`` span they belong to a served query, otherwise to
    the standing-query or SSE path.
    """
    from types import SimpleNamespace

    from repro.history import algebra
    from repro.history.journal import DiskJournal, SlideRecord
    from repro.serve import http
    from repro.serve.shards import ShardedJournalIndex
    from repro.serve.standing import StandingQuery
    from repro.serve.warm import JournalTail

    def in_query(parent: int) -> bool:
        return tracer.open_names.get(parent) == "http.query"

    tracer.patch(DiskJournal, "open", "journal.open")
    tracer.patch(SlideRecord, "from_bytes", "journal.decode")
    tracer.patch(ShardedJournalIndex, "__init__", "shards.build")
    tracer.patch(ShardedJournalIndex, "extend", "shards.extend")
    tracer.patch(JournalTail, "poll", "warm.poll", note=lambda a, r: len(r))
    tracer.patch(StandingQuery, "advance", "standing.advance", note=lambda a, r: len(r))
    tracer.patch(http.AsyncHistoryServer, "_handle_query", "http.query")
    tracer.patch(
        algebra,
        "parse_query",
        "algebra.parse",
        name_of=lambda args, parent: "algebra.parse" if in_query(parent) else "algebra.parse.other",
    )
    tracer.patch(
        algebra,
        "evaluate",
        "algebra.evaluate",
        name_of=lambda args, parent: (
            "algebra.evaluate." + query_family(args[0])
            if in_query(parent)
            else "algebra.evaluate.standing"
        ),
    )
    # The http module reaches json.dumps through its module global ``json``.
    http.json = SimpleNamespace(  # type: ignore[attr-defined]
        loads=json.loads,
        JSONDecodeError=json.JSONDecodeError,
        dumps=tracer.wrap(
            json.dumps,
            "http.serialise",
            name_of=lambda args, parent: "http.serialise" if in_query(parent) else "http.frame",
        ),
    )
