"""In-memory span tracer that wraps negclap's public functions from outside.

Each wrapped function records a span (name, start, end, parent) while the
tracer is active.  Functions are wrapped where their callers look them up:
every negclap module attribute that holds the original object is replaced,
so ``negclap.objective.encode_text_batch`` and ``negclap.training.train_step``
are traced without touching the package source.  ``Instrumentation.remove``
puts the originals back, so untraced repetitions run the unmodified code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("corpus", "negation", "model", "objective", "training", "evaluation", "cli")


class Tracer:
    """Spans of one traced section, kept in memory until written out."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.active = False

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span per call; ``hook(tracer, args, result)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside the block."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def inside(self, names) -> bool:
        """Whether a span with one of ``names`` is open."""
        return any(self.spans[i][0] in names for i in self._stack)

    def summary(self) -> "SpanSummary":
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = SpanSummary()
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out.calls[name] += 1
            out.total_s[name] += end - start
            out.self_s[name] += end - start - inner
            out.durations[name].append(end - start)
        out.counts.update(self.counts)
        out.spans = len(self.spans)
        return out


class SpanSummary:
    """Per-name call counts, inclusive and self times, plus hook counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.counts: Counter = Counter()
        self.spans = 0


class Instrumentation:
    """Replaces package attributes with traced wrappers and restores them."""

    def __init__(self, tracer: Tracer, package):
        self.tracer = tracer
        self.modules = [package] + [getattr(package, m) for m in MODULES]
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, name: str | None = None, hook=None) -> None:
        """Wrap ``negclap.<module>.<attr>`` at every module that imported it."""
        original = getattr(getattr(self.modules[0], module), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = self.tracer.wrap(name or f"{module}.{attr}", original, hook)
        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def lookup(self, module: str, attr: str, name: str) -> None:
        """Wrap only the name as ``negclap.<module>`` looks it up."""
        mod = getattr(self.modules[0], module)
        if attr not in vars(mod):
            self.missing.append(f"{module}.{attr}")
            return
        self._set(mod, attr, self.tracer.wrap(name, vars(mod)[attr]))

    def method(self, module: str, cls: str, attr: str, name: str | None = None,
               hook=None) -> None:
        """Wrap a method or classmethod in the class dict of ``negclap.<module>.<cls>``."""
        owner = getattr(getattr(self.modules[0], module), cls, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.missing.append(f"{module}.{cls}.{attr}")
            return
        name = name or f"{module}.{cls}.{attr}"
        if isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(self.tracer.wrap(name, raw.__func__, hook)))
        else:
            self._set(owner, attr, self.tracer.wrap(name, raw, hook))

    def remove(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []


def write_spans(path: Path, sections: list[tuple[str, list]]) -> None:
    """One JSON object per line: section label, then spans as [name, start, end, parent]."""
    with open(path, "w", encoding="utf-8") as f:
        for label, spans in sections:
            f.write(json.dumps({"section": label, "spans": spans}) + "\n")
