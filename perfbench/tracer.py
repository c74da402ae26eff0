"""In-memory call tracer for the fedattr benchmark.

The tracer replaces every binding of a target function (the defining module's
name and each module that imported it, e.g. `models.loss_and_grad` and
`attacks.loss_and_grad`) with a timing wrapper, and puts the originals back on
`uninstall`.  Each call of a span function becomes one span record
`(span_id, parent_id, op, name, binding, t0, t1, inclusive_s, self_s)`.  Leaf
functions that run hundreds of thousands of times per operation are
aggregated per (parent span, binding) instead of recorded one by one.

Self time is a call's duration minus the time spent in wrapped calls made
directly inside it.  Inclusive time counts only the outermost activation of a
function, so a function that re-enters itself is not counted twice.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from typing import Callable

Hook = Callable[[tuple, object], int]


def _short(module_name: str) -> str:
    return module_name.removeprefix("fedattr.")


def layer_of(target: str) -> str:
    """`fedattr.expcli.plots:emit_run_plots` -> `expcli.emit_run_plots`."""
    module_name, qualname = target.split(":")
    return f"{_short(module_name).split('.')[0]}.{qualname}"


class Tracer:
    """Wraps target functions under every binding; keeps spans in memory.

    `targets` are `module:qualname` strings.  `aggregated` names (in
    `layer.qualname` form) are recorded per parent span, not per call.
    `hooks` map a name to `(counter, fn)`; after each successful call,
    `fn(args, result)` is added to that counter.
    """

    def __init__(
        self,
        targets: list[str],
        aggregated: set[str],
        hooks: dict[str, tuple[str, Hook]] | None = None,
    ):
        self.targets = targets
        self.aggregated = aggregated
        self.hooks = hooks or {}
        self.op: int | None = None
        self.spans: list[tuple] = []
        # (parent span id, name, binding) -> [calls, inclusive_s, self_s]
        self.aggregates: dict[tuple, list] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []
        self._frames: list[list] = []  # [child seconds] per active wrapped call
        self._span_ids: list[int] = []  # active span ids, innermost last
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = itertools.count(1)

    # --- installation -------------------------------------------------------

    def _bindings(self, target: str) -> list[tuple[object, str, str, object]]:
        """(owner, attribute, binding label, original) for one target."""
        module_name, qualname = target.split(":")
        module = sys.modules[module_name]
        *outer, attr = qualname.split(".")
        if outer:  # a method: its only binding is the class attribute
            owner = module
            for part in outer:
                owner = getattr(owner, part)
            label = f"{_short(module_name)}.{qualname}"
            return [(owner, attr, label, owner.__dict__[attr])]
        original = getattr(module, attr)
        found = []
        for name, mod in sorted(sys.modules.items()):
            if name != "fedattr" and not name.startswith("fedattr."):
                continue
            for key, value in sorted(vars(mod).items()):
                if value is original:
                    found.append((mod, key, f"{_short(name)}.{key}", original))
        return found

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            name = layer_of(target)
            for owner, attr, label, original in self._bindings(target):
                setattr(owner, attr, self._wrap(name, label, original))
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every original binding and check that it is back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if vars(owner)[attr] is not original
        ]
        self._patched = []
        if stale:
            raise RuntimeError(f"bindings not restored: {stale}")

    # --- recording ----------------------------------------------------------

    def _wrap(self, name: str, binding: str, fn):
        frames, span_ids, depth = self._frames, self._span_ids, self._depth
        spans, aggregates, counters = self.spans, self.aggregates, self.counters
        clock = time.perf_counter
        aggregated = name in self.aggregated
        counter, hook = self.hooks.get(name, (None, None))
        next_id = self._next_id
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = span_ids[-1] if span_ids else None
            span_id = None
            if not aggregated:
                span_id = next(next_id)
                span_ids.append(span_id)
            outer = depth[name] == 0
            depth[name] += 1
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                depth[name] -= 1
                dur = t1 - t0
                if frames:
                    frames[-1][0] += dur
                incl = dur if outer else 0.0
                self_s = dur - frame[0]
                if aggregated:
                    key = (parent, name, binding)
                    acc = aggregates.get(key)
                    if acc is None:
                        acc = aggregates[key] = [0, 0.0, 0.0]
                    acc[0] += 1
                    acc[1] += incl
                    acc[2] += self_s
                else:
                    span_ids.pop()
                    spans.append(
                        (span_id, parent, tracer.op, name, binding, t0, t1, incl, self_s)
                    )
            if hook is not None:
                counters[counter] += hook(args, result)
            return result

        return wrapper

    # --- summaries ------------------------------------------------------------

    def _rows(self):
        for _, _, _, name, binding, _, _, incl, self_s in self.spans:
            yield name, binding, 1, incl, self_s
        for (_, name, binding), (calls, incl, self_s) in self.aggregates.items():
            yield name, binding, calls, incl, self_s

    def by_function(self) -> dict[str, dict[str, float]]:
        """Per `layer.qualname`: calls, inclusive seconds, self seconds."""
        out: dict[str, dict[str, float]] = {
            layer_of(t): {"calls": 0, "s": 0.0, "self_s": 0.0} for t in self.targets
        }
        for name, _, calls, incl, self_s in self._rows():
            row = out[name]
            row["calls"] += calls
            row["s"] += incl
            row["self_s"] += self_s
        return out

    def by_binding(self) -> dict[str, int]:
        """Call counts per binding, e.g. `attribution.utility`."""
        out: dict[str, int] = defaultdict(int)
        for _, binding, calls, _, _ in self._rows():
            out[binding] += calls
        return dict(sorted(out.items()))
