"""In-memory spans and counters recorded from outside the program.

The benchmark never edits ``src/``.  It times calls into each layer by
replacing public functions and methods with thin wrappers for the length
of one phase and restoring them afterwards (:class:`Patcher`).

Three kinds of wrapper exist:

* ``span``: one record per call -- name, start, end, parent span and the
  current tag (workload/cell id).  A span's self time is its duration
  minus the time its child spans cover.
* ``hot``: per-name call count and total seconds only, for calls too
  frequent to keep one record each (``WifiMedium.sinr_db``).  Their time
  still counts as child time of the enclosing span.
* ``count``: call counts only, no clock reads, used by the separate
  count-only pass so that the hottest inner calls
  (``Transmission.overlap_fraction``, ``Simulator.schedule``) cannot
  distort any timing.

Forked shard workers inherit whatever wrappers are installed when they
fork, but their records never reach the parent, so worker-side figures
come only from ``ShardedNetwork.worker_build_stats()`` and
``last_epoch_compute_s``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

now = time.perf_counter

#: Layer (module) of every span name prefix.
LAYER_OF_PREFIX = {
    "experiments": "repro.experiments",
    "phy": "repro.phy",
    "lte": "repro.lte.network",
    "sched": "repro.lte.scheduler",
    "cellfi": "repro.core.interference",
    "shard": "repro.sim.shard",
    "wifi": "repro.wifi",
    "engine": "repro.sim.engine",
}
LAYERS = list(LAYER_OF_PREFIX.values())
#: Count-only calls that join a layer's call count (``wifi.sinr_calls``
#: does not: its hot-call wrapper already counts it).
COUNTED_CALLS = ("wifi.history_scans", "wifi.transmissions", "engine.events")


def layer_of(name: str) -> str:
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


class Patcher:
    """Replace attributes for the length of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attr = make(current value)`` until the block exits."""
        own = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner)[attr] if own else None))
        setattr(owner, attr, make(getattr(owner, attr)))

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


class Tracer:
    """Spans, hot-call aggregates and counters, all kept in memory."""

    def __init__(self) -> None:
        #: Each span: [name, start, end, parent index or -1, tag, child_s].
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.hot: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.tag = ""

    # -- Recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, now(), 0.0, parent, self.tag, 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = now()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def span(self, name: str, after: Optional[Callable] = None):
        """Wrapper factory: one span per call; ``after(args, kwargs,
        result)`` may record counters once the call returns."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(index)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        return make

    def hot_call(self, name: str):
        """Wrapper factory: count and total seconds, no per-call record."""
        slot = self.hot[name]

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = now() - start
                    slot[0] += 1
                    slot[1] += elapsed
                    if self._stack:
                        self.spans[self._stack[-1]][5] += elapsed

            return wrapper

        return make

    def count_call(self, name: str, nonzero: Optional[str] = None):
        """Wrapper factory: call count (and, with ``nonzero``, the count of
        calls returning a non-zero value); reads no clock."""
        counts = self.counts

        def make(fn):
            if nonzero is None:
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)
            else:
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    result = fn(*args, **kwargs)
                    if result:
                        counts[nonzero] += 1
                    return result

            return wrapper

        return make

    # -- Analysis -----------------------------------------------------------

    def top_level_s(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self seconds and call count (hot calls included)."""
        table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for name, _, _, _, _, _ in self.spans:
            table[layer_of(name)]["calls"] += 1
        for name, start, end, _, _, child in self.spans:
            table[layer_of(name)]["self_s"] += (end - start) - child
        for name, (calls, seconds) in self.hot.items():
            table[layer_of(name)]["calls"] += calls
            table[layer_of(name)]["self_s"] += seconds
        for name in COUNTED_CALLS:
            table[layer_of(name)]["calls"] += self.counts.get(name, 0)
        return table

    def dump(self, path: str) -> None:
        """Write every span and aggregate as JSON (called when a run ends)."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": [
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "tag": tag,
                        }
                        for name, start, end, parent, tag, _ in self.spans
                    ],
                    "hot": {k: {"calls": v[0], "seconds": v[1]} for k, v in self.hot.items()},
                    "counts": dict(self.counts),
                },
                handle,
            )
