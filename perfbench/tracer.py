"""Spans around kernelforge's public functions, recorded from outside the program.

The package binds several functions by name in more than one module (gp and
harness import ``evaluate``, ``predict``, ``train_multiclass`` and
``fitness``), so each function is replaced at every module attribute that
holds it, and put back on ``uninstall``.  A function that no longer exists is
listed in ``absent`` and its metrics read 0, so a refactor that folds or
renames one does not break the benchmark.

Every tracer records which call ran under which, and the outcomes of calls
(fitness warnings, models returned unconverged), so the untraced run can
count failures too; one built with ``timed=False`` reads no clock.  An
``on_call`` hook runs before each wrapped call, outside its span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass

PACKAGE = "kernelforge"

# Public functions per layer (module) that the traced run wraps.
TRACED = {
    "gram": ("add", "multiply", "normalize", "build_bank"),
    "expr": ("evaluate",),
    "svm": ("train_binary", "train_multiclass", "predict"),
    "gp": ("fitness", "evolve", "crossover", "mutate", "tournament_select"),
    "harness": ("run_comparison", "best_single_kernel"),
    "retrieval": ("build_index", "save_index", "load_index", "query"),
    "kernel_io": ("read_kernel", "write_kernel"),
}

# The functions whose outcomes decide `failed`; wrapped in untraced runs too,
# where their entries also give the reference samples their moments.
PROBED = {"gp": ("fitness",), "svm": ("train_multiclass",)}


@dataclass(slots=True)
class Span:
    name: str  # "layer.function"
    parent: int  # index of the enclosing span, -1 at the top
    episode: int
    start: float = 0.0
    end: float = 0.0
    failed: bool = False  # raised, warned (fitness) or returned an unconverged model
    work: int = 0  # points (train_binary) or bytes (gram ops, kernel_io)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _outcome(span: Span, args, kwargs, result, new_warnings: list) -> None:
    """Fill in the failure flag and the work done, read off arguments and results."""
    name = span.name
    if name == "gp.fitness":
        span.failed = any(str(w.message).startswith("fitness of") for w in new_warnings)
    elif name in ("svm.train_binary", "svm.train_multiclass"):
        span.failed = not result.converged
        if name == "svm.train_binary":
            span.work = len(result.alpha)
    elif name in ("gram.add", "gram.multiply"):
        span.work = 3 * result.values.nbytes  # two operands read, one result written
    elif name in ("kernel_io.read_kernel", "kernel_io.write_kernel"):
        span.work = os.path.getsize(args[0] if args else kwargs["path"])


class Tracer:
    def __init__(self, functions: dict[str, tuple[str, ...]], timed: bool, on_call=None):
        self.functions = functions
        self.timed = timed
        self.on_call = on_call
        self.spans: list[Span] = []
        self.episodes: list[str] = []  # kind of each episode: "setup" or "iteration"
        self.absent: list[str] = []
        self.warnings: list = []  # the list a warnings.catch_warnings(record=True) fills
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, kind: str) -> int:
        """Start a new episode; spans recorded from now on belong to it."""
        self.episodes.append(kind)
        return len(self.episodes) - 1

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        self.absent = []
        for layer, names in self.functions.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter if self.timed else None
        on_call = self.on_call

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if on_call:
                on_call()
            span = Span(name, stack[-1] if stack else -1, len(self.episodes) - 1)
            spans.append(span)
            stack.append(len(spans) - 1)
            warned_from = len(self.warnings)
            if clock:
                span.start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                if clock:
                    span.end = clock()
                stack.pop()
            _outcome(span, args, kwargs, result, self.warnings[warned_from:])
            return result

        return wrapper

    def under(self, span: Span, ancestor: str) -> bool:
        """True if a span named `ancestor` encloses `span`."""
        i = span.parent
        while i >= 0:
            if self.spans[i].name == ancestor:
                return True
            i = self.spans[i].parent
        return False

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, parent, episode kind, start, end, failed, work."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = [s.name, s.parent, self.episodes[s.episode], s.start, s.end, s.failed, s.work]
                fh.write(json.dumps(row) + "\n")
