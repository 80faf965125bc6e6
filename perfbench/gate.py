"""Correctness gate: reduce each operation's output to the fields the reference
fixes, and compare. Standard library only, so the workload process can use it
without importing anything the program under test does not.
"""

from __future__ import annotations

import hashlib
import json
import math

# The checks of `verify --suite all`, in the order it runs them.
VERIFY_CHECKS = ("lowerbounds", "bounds", "lambda", "condition1", "tradeoff")

# Field -> relative tolerance; every other field must match exactly.
EUCLIDEAN_TOLERANCE = {"rho": 1e-9}


def digest(doc: dict) -> str:
    """Order-independent hash of an instance document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(command: str, out_doc, stdout: str) -> dict:
    """The gated fields of one CLI operation's output."""
    if command == "evaluate":
        keys = ("winner", "copeland_winner", "uncovered_set", "delta", "rho", "bound")
        return {k: out_doc.get(k) for k in keys}
    if command == "search":
        summary = json.loads(stdout)
        return {"achieved": summary["achieved"], "digest": digest(out_doc)}
    (check,) = out_doc["checks"]
    return {"cases": check["cases"], "failures": check["failures"], "passed": out_doc["passed"]}


def mismatches(got: dict, ref: dict, tolerance: dict | None = None) -> list[str]:
    """Fields where an output differs from its reference (empty when it passes)."""
    tolerance = tolerance or {}
    bad = []
    for key, want in ref.items():
        have = got.get(key)
        tol = tolerance.get(key)
        if tol is not None and isinstance(have, float) and isinstance(want, float):
            if math.isclose(have, want, rel_tol=tol, abs_tol=0.0):
                continue
        elif have == want:
            continue
        bad.append(f"{key}: got {have!r}, want {want!r}")
    return bad
