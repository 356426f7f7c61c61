"""In-memory spans and call counters around qfc's public functions.

The wrappers are installed on the name each caller looks up: a module that
binds a function with ``from ... import`` gets its own wrapper (for example
``qfc.entanglement.sme_step`` beside ``qfc.sme.sme_step``), and ``RngStream``
is replaced by a counting subclass in every module that constructs one.

A span records name, start, end, parent span and job id, and is kept until
the run ends.  Leaf functions called about 10^5 times per job (``sme_step``,
``format_value``, the RNG) keep a call count and a summed time per job
instead of one span per call.  Both kinds add their duration to the open
span of the calling thread, so a span's self time is its duration minus its
children.  A span opened on a worker thread has no parent.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# (module, attribute, metric name): each call is a span
SPANS = [
    ("qfc.cli", "main", "cli.main"),
    ("qfc.cli", "run_ensemble", "stochastic.run_ensemble"),
    ("qfc.cli", "entangle_protocol", "entanglement.entangle_protocol"),
    ("qfc.cli", "write_csv", "output.write_csv"),
    ("qfc.cli", "write_pgm", "output.write_pgm"),
    ("qfc.sme", "run_dephasing_ensemble", "sme.run_dephasing_ensemble"),
    ("qfc.purification", "mc_nofeedback_impurity", "purification.mc_nofeedback_impurity"),
    ("qfc.stabilization", "gap_surface", "stabilization.gap_surface"),
    ("qfc.chaos", "julia_raster", "chaos.julia_raster"),
    ("qfc.chaos", "lyapunov_estimate", "chaos.lyapunov_estimate"),
]

# (module, attribute, metric name): each call bumps a counter
LEAVES = [
    ("qfc.sme", "sme_step", "sme.sme_step"),
    ("qfc.entanglement", "sme_step", "sme.sme_step"),
    ("qfc.entanglement", "clip_psd", "entanglement.clip_psd"),
    ("qfc.purification", "nofeedback_impurity", "purification.nofeedback_impurity"),
    ("qfc.output", "format_value", "output.format_value"),
]

RNG_MODULES = ["qfc.stochastic", "qfc.cli", "qfc.sme", "qfc.purification",
               "qfc.entanglement"]


@dataclass
class Span:
    id: int
    name: str
    job: str | None
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.seconds - self.child_s


class Tracer:
    """Collects spans and leaf counters while installed."""

    def __init__(self):
        self.job = None
        self.spans = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_counters = []  # one dict per thread: (name, job) -> [calls, s]
        self._saved = []

    def _stack(self):
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            return local.stack

    def _counters(self):
        local = self._local
        try:
            return local.counters
        except AttributeError:
            local.counters = defaultdict(lambda: [0, 0.0])
            with self._lock:
                self._thread_counters.append(local.counters)
            return local.counters

    @property
    def counters(self):
        """(name, job) -> [calls, seconds], summed over threads."""
        total = defaultdict(lambda: [0, 0.0])
        with self._lock:
            for counters in self._thread_counters:
                for key, (calls, secs) in counters.items():
                    total[key][0] += calls
                    total[key][1] += secs
        return total

    def span(self, name, fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), name, self.job,
                        stack[-1].id if stack else None, perf_counter())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.seconds
                with self._lock:
                    self.spans.append(span)
        return traced

    def leaf(self, name, fn):
        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack = self._stack()
                if stack:
                    stack[-1].child_s += dt
                entry = self._counters()[(name, self.job)]
                entry[0] += 1
                entry[1] += dt
        return counted

    def install(self, modules):
        """Wrap the traced names; modules maps dotted names to modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        patches = []
        for mod, attr, name in SPANS:
            patches.append((modules[mod], attr, self.span(name, getattr(modules[mod], attr))))
        for mod, attr, name in LEAVES:
            patches.append((modules[mod], attr, self.leaf(name, getattr(modules[mod], attr))))
        base = modules["qfc.stochastic"].RngStream
        traced_rng = type("RngStream", (base,), {
            "__init__": self.leaf("stochastic.RngStream", base.__init__),
            "wiener": self.leaf("stochastic.RngStream.wiener", base.wiener),
        })
        for mod in RNG_MODULES:
            patches.append((modules[mod], "RngStream", traced_rng))
        for module, attr, replacement in patches:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- aggregation

    def span_totals(self, name, jobs=None):
        """(calls, seconds, self seconds) of every span with this name."""
        sel = [s for s in self.spans if s.name == name and (jobs is None or s.job in jobs)]
        return len(sel), sum(s.seconds for s in sel), sum(s.self_s for s in sel)

    def counter_totals(self, name, jobs=None):
        """(calls, seconds) of a leaf counter, optionally for some jobs only."""
        calls, secs = 0, 0.0
        for (n, job), (c, s) in self.counters.items():
            if n == name and (jobs is None or job in jobs):
                calls += c
                secs += s
        return calls, secs

    def breakdown(self, jobs):
        """Seconds per layer inside the given jobs: span self time plus leaf time."""
        out = defaultdict(float)
        for span in self.spans:
            if span.job in jobs:
                out[span.name] += span.self_s
        for (name, job), (_, secs) in self.counters.items():
            if job in jobs:
                out[name] += secs
        return dict(out)
