"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps every public function of the `gha` modules from outside the
package: each wrapper replaces the function in every module that holds it by
name (`tables`, `hipt`, `oracle`, `vacuum` and `cli` import `solve_level` and
friends directly), so a call is seen whichever module makes it.

A span is recorded only inside an op, i.e. below a root span the benchmark
opens around each op; output checks run outside ops and are not traced.  The
span stack is kept per thread.  A span that starts on a thread with an empty
stack (a `run_table` pool worker) takes as parent the innermost span open on
the thread that runs the ops, which is the call that submitted the work.
Spans are held in memory and summarised, or written out, after a pass.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# per-call detail kept for the layer metrics: (model, n) of each level solve
# and the dimension of each oracle matrix build
_DETAIL = {
    "hartree.solve_level": lambda args: (args[0], args[1]) if len(args) > 1 else None,
    "oracle.hamiltonian_matrix":
        lambda args: args[1].dimension if len(args) > 1 else None,
}

NAME, START, END, PARENT, THREAD, DETAIL = range(6)
PACKAGE = "gha"


def _package_modules():
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions():
    """{qualified name: function} for the public functions of each module."""
    found = {}
    for modname, mod in _package_modules():
        if modname == PACKAGE:
            continue
        short = modname[len(PACKAGE) + 1:]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == modname
                    and not name.startswith("_")):
                found[f"{short}.{name}"] = obj
    return found


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._lists = []       # one span list per thread that recorded spans
        self._op_stack = None  # span stack of the thread that runs the ops

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.spans
        except AttributeError:
            local.stack, local.spans = [], []
            with self._lock:
                self._lists.append(local.spans)
            return local.stack, local.spans

    def _wrap(self, name, fn):
        state = self._thread_state
        perf = time.perf_counter
        ident = threading.get_ident
        detail = _DETAIL.get(name)

        def traced(*args, **kwargs):
            stack, spans = state()
            if stack:
                parent = stack[-1]
            else:
                ops = self._op_stack
                parent = ops[-1] if ops else None
                if parent is None:
                    return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, parent, ident(),
                    detail(args) if detail else None]
            stack.append(span)
            span[START] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf()
                stack.pop()
                spans.append(span)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextmanager
    def installed(self):
        """Wrap every public gha function in every module that binds it."""
        originals = public_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        patches = []
        for _, mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        self._op_stack, _ = self._thread_state()
        try:
            yield self
        finally:
            for mod, attr, value in patches:
                setattr(mod, attr, value)
            self._op_stack = None

    @contextmanager
    def op(self):
        """Root span of one op; library calls inside it are recorded."""
        stack, spans = self._thread_state()
        span = ["op", 0.0, 0.0, None, threading.get_ident(), None]
        stack.append(span)
        span[START] = time.perf_counter()
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            stack.pop()
            spans.append(span)

    def drain(self):
        """All spans recorded since the last drain."""
        with self._lock:
            lists = list(self._lists)
        out = []
        for spans in lists:
            out.extend(spans)
            spans.clear()
        return out


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarise(spans):
    """Per-name totals over a list of spans.

    Self time is a span's duration minus the part of its interval that its
    child spans cover, children on other threads included.  Returns
    {name: {"calls", "ms", "self_ms", "details", "workers"}} where "workers"
    holds, per span, the number of other threads its direct children ran on,
    or 1 when they all ran on its own thread.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[id(s[PARENT])].append(s)
    stats = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                 "details": [], "workers": []})
    for s in spans:
        kids = children.get(id(s), ())
        dur = s[END] - s[START]
        covered = _covered([(k[START], k[END]) for k in kids], s[START], s[END])
        st = stats[s[NAME]]
        st["calls"] += 1
        st["ms"] += 1e3 * dur
        st["self_ms"] += 1e3 * (dur - covered)
        if s[DETAIL] is not None:
            st["details"].append(s[DETAIL])
        st["workers"].append(max(1, len({k[THREAD] for k in kids} - {s[THREAD]})))
    return stats


def write_spans(path, spans):
    """Spans as gzipped JSON lines: name, start and end in ms from the first
    start, parent line index (or null) and a small thread number."""
    spans = sorted(spans, key=lambda s: s[START])
    index = {id(s): i for i, s in enumerate(spans)}
    threads = {}
    t0 = spans[0][START] if spans else 0.0
    with gzip.open(path, "wt") as fh:
        for s in spans:
            parent = index.get(id(s[PARENT])) if s[PARENT] is not None else None
            fh.write(json.dumps([s[NAME], round(1e3 * (s[START] - t0), 4),
                                 round(1e3 * (s[END] - t0), 4), parent,
                                 threads.setdefault(s[THREAD], len(threads))]))
            fh.write("\n")
