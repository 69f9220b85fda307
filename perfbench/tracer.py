"""In-memory span tracer that wraps xling's public functions from outside.

``install`` replaces every public function of the traced modules with a
wrapper that records one span per call: id, name, start, end, parent span,
the current utterance id, and whether the call failed.  It also rebinds
every name another ``xling`` module bound to the original with
``from ... import``, so ``cli.mel_spectrogram`` and ``model.uniform`` are
traced too.  Spans stay in memory and are written to one file per process
when tracing ends; forked pool workers write their own file at exit, with
their top-level spans parented to the span that was open at fork time.

``summarize`` reads those files and gives per function the call count,
busy seconds (sum of span durations), self seconds (duration minus the
part of it that child spans cover, across processes) and failures.

This module imports only the standard library, so ``run.py`` can read the
span files without loading numpy.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path

# layer name -> module, in pipeline order
LAYERS = {
    "cli": "xling.cli",
    "lexicon": "xling.lexicon",
    "audio": "xling.audio",
    "features": "xling.features",
    "regulator": "xling.regulator",
    "model": "xling.model",
    "prng": "xling.prng",
    "tensorio": "xling.tensorio",
    "corpus": "xling.corpus",
}
CLI_COMMANDS = ("g2p", "regulate", "features", "stats", "forward", "manifest")


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.active = True
        self.utt = None
        self.spans = []
        self.counters = {}
        self.gauges = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._local = threading.local()
        self._main = self._stack()
        self._fork_parent = None
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a helper thread's first span hangs under the main thread's open span
        return self._main[-1] if self._main else self._fork_parent

    @contextmanager
    def span(self, name):
        """Record a span around a block of benchmark code (e.g. an import)."""
        stack = self._stack()
        span_id = f"{self._pid}.{next(self._ids)}"
        parent = self._parent(stack)
        stack.append(span_id)
        start = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.utt, not ok))

    def count(self, key, n) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def gauge(self, key, value) -> None:
        """Keep the largest value seen (e.g. weight bytes per init)."""
        with self._lock:
            self.gauges[key] = max(self.gauges.get(key, value), value)

    def wrap(self, fn, name, after=None, failed=None):
        """``name`` is a span name or a function of (args, kwargs) giving one.

        ``after(tracer, args, kwargs, result)`` updates counters after a
        successful call; ``failed(result)`` marks a returned value as failure.
        """
        tracer = self
        label = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = f"{tracer._pid}.{next(tracer._ids)}"
            parent = tracer._parent(stack)
            utt = tracer.utt
            stack.append(span_id)
            bad = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                bad = failed(result) if failed else False
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, label(args, kwargs), start, end, parent, utt, bad)
                )
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def dump(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self._pid}.json"
        payload = {"spans": self.spans, "counters": self.counters, "gauges": self.gauges}
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def _after_fork(self):
        # runs in a forked multiprocessing child before its target starts
        self._fork_parent = self._parent(self._main)
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()
        self.spans = []
        self.counters = {}
        self.gauges = {}
        mp_util.Finalize(None, self._dump_if_traced, exitpriority=100)

    def _dump_if_traced(self):
        if self.spans:
            self.dump()


def install(tracer: Tracer, hooks: dict) -> None:
    """Wrap the public functions of every layer.

    ``hooks`` maps a span name to keyword arguments for :meth:`Tracer.wrap`.
    The layer modules must already be imported.
    """
    replaced = {}  # id(original) -> (original, wrapper)
    for layer, module_name in LAYERS.items():
        module = sys.modules[module_name]
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module_name:
                continue  # imported from elsewhere; rebound below
            if layer == "cli" and attr == "main":
                wrapper = tracer.wrap(value, _cli_span_name, failed=lambda code: code != 0)
            else:
                name = f"{layer}.{attr}"
                wrapper = tracer.wrap(value, name, **hooks.get(name, {}))
            replaced[id(value)] = (value, wrapper)
    lexicon = sys.modules[LAYERS["lexicon"]].Lexicon
    load = lexicon.load.__func__
    lexicon.load = classmethod(tracer.wrap(load, "lexicon.load"))

    for module_name, module in list(sys.modules.items()):
        if module_name != "xling" and not module_name.startswith("xling."):
            continue
        for attr, value in list(vars(module).items()):
            entry = replaced.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])


def _cli_span_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    command = str(argv[0]) if argv else "main"
    return f"cli.{command}" if command in CLI_COMMANDS else "cli.main"


# ------------------------------------------------------------- summaries

def load_spans(trace_dir) -> tuple[list, dict]:
    """All processes' spans, counters summed and gauges maxed into one dict."""
    spans, counters, gauges = [], {}, {}
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        spans.extend(tuple(s) for s in payload["spans"])
        for key, value in payload["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in payload["gauges"].items():
            gauges[key] = max(gauges.get(key, value), value)
    return spans, {**counters, **gauges}


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans) -> dict:
    """Per span name: calls, busy seconds, self seconds, failures."""
    children = {}
    for span_id, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    table = {}
    for span_id, name, start, end, _, _, bad in spans:
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "fail": 0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += (end - start) - _covered(children.get(span_id, ()), start, end)
        row["fail"] += int(bool(bad))
    return table
