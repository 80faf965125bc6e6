"""The four workloads: their inputs, generated from the seed, and the reference
answer for every operation.

A workload is a pool of configurations, each one CLI argument list plus its
reference; operation i runs configuration i % len(pool). A run stops only on a
multiple of ``cycle`` operations, so every run sees the same mix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from gate import EUCLIDEAN_TOLERANCE, VERIFY_CHECKS

EVALUATE_RULES = (("rule1", 2.0), ("rule3", 2.0), ("rule4", (1.5, 3.0)), ("rule5", None))
SEARCH_RULES = (("rule1", 2.0), ("rule1", 1.0 + math.sqrt(2.0)), ("rule2", 3.0),
                ("rule3", 2.0), ("rule4", (1.5, 3.0)), ("rule5", None))
SEARCH_SPACES = ("line", "euclidean2d")
SEARCH_SEEDS = 8           # distinct search seeds per (rule, space) before the pool repeats
SEARCH_PASSES = 5          # a run makes at least this many passes over the search pool

# Five files, alternating line and Euclidean, so that neither kind is half the
# operations: the median then falls inside one kind's latencies, not in the gap.
LARGE_FILES, LARGE_VOTERS, LARGE_CANDIDATES = 5, 2000, 8
LARGE_PASSES = 7           # a run makes at least this many passes over the pool
MATRIX_FILES, MATRIX_POINTS, MATRIX_CANDIDATES = 5, 140, 8


@dataclass
class Workload:
    argvs: list[list[str]] = field(default_factory=list)
    refs: list[dict] = field(default_factory=list)
    tolerances: list[dict] = field(default_factory=list)
    cycle: int = 1             # a run ends on a multiple of this many operations
    min_ops: int = 100         # and runs at least this many
    trace_ops: int = 1         # operations in each pass of a traced run

    def add(self, argv, ref, tolerance=None) -> None:
        self.argvs.append([str(a) for a in argv])
        self.refs.append(ref)
        self.tolerances.append(tolerance or {})


def rule_flags(rule) -> list[str]:
    kind, t = rule
    if kind == "rule4":
        return ["--rule", kind, "--taus", ",".join(repr(x) for x in t)]
    if kind == "rule5":
        return ["--rule", kind]
    return ["--rule", kind, "--tau", repr(t)]


def _write(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _positions_doc(kind: str, ids, points: np.ndarray, voters, cands) -> dict:
    if kind == "line":
        positions = {i: float(x) for i, x in zip(ids, points[:, 0])}
    else:
        positions = {i: [float(a) for a in xy] for i, xy in zip(ids, points)}
    return {"space": {"type": kind, "positions": positions},
            "voters": list(voters), "candidates": list(cands)}


def _evaluate_pool(w: Workload, docs: list[dict], workdir: Path, stem: str) -> None:
    """Configuration c evaluates file c % F under rule c // F."""
    paths = [_write(doc, workdir / f"{stem}{j}.json") for j, doc in enumerate(docs)]
    out = workdir / "out.json"
    for rule in EVALUATE_RULES:
        for doc, path in zip(docs, paths):
            tol = EUCLIDEAN_TOLERANCE if doc["space"]["type"] == "euclidean" else None
            w.add(["evaluate", "--instance", path, *rule_flags(rule), "--out", out],
                  oracle.evaluate(doc, rule), tol)
    w.cycle = w.trace_ops = len(w.argvs)


def evaluate_large(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    voters = [f"v{i + 1}" for i in range(LARGE_VOTERS)]
    cands = [f"c{j + 1}" for j in range(LARGE_CANDIDATES)]
    docs = []
    for j in range(LARGE_FILES):
        kind, dim = ("line", 1) if j % 2 == 0 else ("euclidean", 2)
        pts = np.vstack([rng.uniform(-1.0, 2.0, (LARGE_VOTERS, dim)),
                         rng.uniform(0.0, 1.0, (LARGE_CANDIDATES, dim))])
        docs.append(_positions_doc(kind, voters + cands, pts, voters, cands))
    w = Workload()
    _evaluate_pool(w, docs, workdir, "large")
    w.min_ops = LARGE_PASSES * w.cycle
    return w


def evaluate_matrix(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ids = [f"p{i + 1}" for i in range(MATRIX_POINTS)]
    docs = []
    for _ in range(MATRIX_FILES):
        pts = [tuple(float(a) for a in xy) for xy in rng.uniform(0.0, 1.0, (MATRIX_POINTS, 2))]
        rows = [[math.dist(a, b) for b in pts] for a in pts]
        docs.append({"space": {"type": "matrix", "ids": ids, "distances": rows},
                     "voters": ids[MATRIX_CANDIDATES:], "candidates": ids[:MATRIX_CANDIDATES]})
    w = Workload()
    _evaluate_pool(w, docs, workdir, "matrix")
    return w


def search(seed: int, workdir: Path) -> Workload:
    """Configuration c searches space c % 2 under rule (c // 2) % 6 with its own seed."""
    reference = oracle.SearchReference()
    out = workdir / "found.json"
    configs = len(SEARCH_RULES) * len(SEARCH_SPACES) * SEARCH_SEEDS
    w = Workload(cycle=configs, min_ops=SEARCH_PASSES * configs)
    for c in range(configs):
        space = SEARCH_SPACES[c % len(SEARCH_SPACES)]
        rule = SEARCH_RULES[(c // len(SEARCH_SPACES)) % len(SEARCH_RULES)]
        op_seed = seed * 1000 + c
        w.add(["search", *rule_flags(rule), "--grid", 400, "--seed", op_seed,
               "--space", space, "--out", out],
              reference(rule, space, op_seed))
    w.trace_ops = 2 * len(SEARCH_RULES) * len(SEARCH_SPACES)
    return w


def verify_all(seed: int, workdir: Path) -> Workload:
    """The five checks of `verify --suite all`, one operation each, at default sizes."""
    cases = oracle.verify_cases(seed)
    out = workdir / "report.json"
    w = Workload(min_ops=len(VERIFY_CHECKS))
    for check in VERIFY_CHECKS:
        w.add(["verify", "--suite", check, "--seed", seed, "--out", out],
              {"cases": cases[check], "failures": 0, "passed": True})
    w.trace_ops = len(w.argvs)
    return w


WORKLOADS = {f.__name__: f for f in (verify_all, evaluate_large, evaluate_matrix, search)}
