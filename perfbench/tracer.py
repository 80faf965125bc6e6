"""Spans and counters at the package's layer boundaries, for traced runs only.

Each boundary function is replaced at the module attribute where its caller
looks it up (``cli.evaluate_instance``, ``tournament.decide_pair``, ...), so
every call that crosses into a layer is caught without touching the package.
A span records (name, start, end, parent, operation id) into flat arrays kept
in memory; a layer's self time is its spans' durations minus the time their
child spans cover. The hottest leaves get a call counter instead of a span,
because a span per call would cost more than the call itself.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
import weakref
from array import array
from collections import Counter, defaultdict

import numpy as np

from gate import VERIFY_CHECKS

PACKAGE = "strengthvote"

# (module, attribute, span name, extra counter). The attribute is the name
# the caller resolves at call time.
SPANS = (
    ("cli", "main", "cli", None),
    ("cli", "load_instance", "metric_core.build", None),
    ("metric_core", "line_instance", "metric_core.build", "metric_core.builds"),
    ("metric_core", "euclidean_instance", "metric_core.build", "metric_core.builds"),
    ("metric_core", "matrix_instance", "metric_core.build", "metric_core.builds"),
    ("distortion_lab", "line_instance", "metric_core.build", "metric_core.builds"),
    ("search_oracle", "line_instance", "metric_core.build", "metric_core.builds"),
    ("search_oracle", "euclidean_instance", "metric_core.build", "metric_core.builds"),
    ("distortion_lab", "social_cost", "metric_core.social_cost", None),
    ("search_oracle", "social_cost", "metric_core.social_cost", None),
    ("rules", "exact_profile", "tallies.exact_profile", None),
    ("search_oracle", "exact_profile", "tallies.exact_profile", None),
    ("rules", "bucket_profile", "tallies.bucket_profile", None),
    ("tournament", "decide_pair", "rules.decide", None),
    ("distortion_lab", "decide_pair", "rules.decide", None),
    ("search_oracle", "decide_pair", "rules.decide", None),
    ("search_oracle", "decide_profile", "rules.decide", None),
    ("search_oracle", "rule4_decide", "rules.decide", None),
    ("rules", "_condition1_diff", "rules.condition1", None),
    ("search_oracle", "_condition1_diff", "rules.condition1", None),
    ("cli", "majority_graph", "tournament.majority_graph", None),
    ("distortion_lab", "majority_graph", "tournament.majority_graph", None),
    ("search_oracle", "majority_graph", "tournament.majority_graph", None),
    ("cli", "uncovered_set", "tournament.uncovered_set", None),
    ("cli", "copeland_winner", "tournament.copeland", None),
    ("distortion_lab", "copeland_winner", "tournament.copeland", None),
    ("search_oracle", "copeland_winner", "tournament.copeland", None),
    ("cli", "evaluate_instance", "distortion_lab.evaluate", None),
    ("distortion_lab", "ideal_point", "distortion_lab.ideal_point", None),
    ("search_oracle", "ideal_point", "distortion_lab.ideal_point", None),
    ("search_oracle", "generate_lower_bound", "distortion_lab.generators", None),
    ("search_oracle", "random_instance", "search_oracle.random_instance", None),
    ("search_oracle", "_grid_sweep", "search_oracle.grid_sweep", None),
    ("cli", "adversarial_search", "search_oracle.adversarial_search", None),
) + tuple(("search_oracle", f"check_{check}", "search_oracle.check", None)
          for check in VERIFY_CHECKS)

# (module, attribute, counter name) for the per-voter and per-tally leaves.
COUNTERS = (
    ("metric_core", "distance", "metric_core.distance"),
    ("tallies", "preference_strength", "metric_core.preference_strength"),
    ("tallies", "ThresholdScheme.bucket", "tallies.bucket"),
    ("rules", "rule4_weights", "rules.rule4_weights"),
    ("search_oracle", "rule4_weights", "rules.rule4_weights"),
)

# Spans whose distinct (instance, arguments) keys are kept, for useful ratios.
DISTINCT = ("metric_core.social_cost", "tallies.exact_profile")


def _owner(module: str, attribute: str):
    obj = importlib.import_module(f"{PACKAGE}.{module}")
    *path, name = attribute.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._serials: dict[int, tuple] = {}
        self._serial_seq = itertools.count()
        self._patches: list[tuple] = []

    def _serial(self, obj) -> int:
        """A number unique to an object for its lifetime, even if its id is reused."""
        entry = self._serials.get(id(obj))
        if entry is None or entry[0]() is not obj:
            entry = (weakref.ref(obj), next(self._serial_seq))
            self._serials[id(obj)] = entry
        return entry[1]

    def span(self, name: str, fn, count: str | None = None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_idx, start, end, parent, op = self.name_idx, self.start, self.end, self.parent, self.op
        stack, clock, counts = self._stack, self.clock, self.counts
        seen = self.distinct[name] if name in DISTINCT else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_idx.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            if count is not None:
                counts[count] += 1
            if seen is not None:
                seen.add((tracer._serial(args[0]),) + args[1:])
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module: str, attribute: str, make):
        owner, name = _owner(module, attribute)
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> None:
        for module, attribute, name, count in SPANS:
            self._patch(module, attribute, lambda fn: self.span(name, fn, count))
        for module, attribute, name in COUNTERS:
            self._patch(module, attribute, lambda fn: self.counter(name, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def span_counts(self) -> Counter:
        return Counter({self.names[nid]: n for nid, n in Counter(self.name_idx).items()})

    def self_times(self) -> dict[str, float]:
        return self_times(self.names, self.name_idx, self.start, self.end, self.parent)

    def summary(self, ops: int, untraced_s: float, traced_s: float) -> dict:
        """What the per-layer metrics are computed from."""
        return {
            "ops": ops, "untraced_s": untraced_s, "traced_s": traced_s,
            "self_s": self.self_times(), "spans": dict(self.span_counts()),
            "counts": dict(self.counts),
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
        }

    def dump(self, path) -> None:
        """Write every span to a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), name_idx=self.name_idx,
                            start=self.start, end=self.end, parent=self.parent, op=self.op)


def self_times(names, name_idx, start, end, parent) -> dict[str, float]:
    """Per span name, the summed duration not covered by child spans."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    child = np.flatnonzero(parent >= 0)
    up = parent[child]
    covered = np.minimum(end[child], end[up]) - np.maximum(start[child], start[up])
    np.subtract.at(own, up, np.clip(covered, 0.0, None))
    totals = np.bincount(np.asarray(name_idx, dtype=np.int64), weights=own,
                         minlength=len(names))
    return dict(zip(names, totals.tolist()))
