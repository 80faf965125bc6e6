"""Reference answers for the benchmark's correctness gate.

Everything here is computed from the instance documents and the rules'
published definitions, without importing the package under test, so a change
to the package cannot move its own reference. Where the package's float
arithmetic decides the answer (distances, strength ratios, fsum'd scores, the
grid sweep's tie-breaking) the same IEEE operations are repeated, which makes
line and matrix answers bit-identical; Euclidean ideal points come from an
iterative solver and are compared with a tolerance instead.

A rule is a pair (kind, param): ("rule1", 2.0), ("rule4", (1.5, 3.0)),
("rule5", None).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from gate import VERIFY_CHECKS, digest

SQRT2 = math.sqrt(2.0)
STRICT = "strict"
INCLUSIVE = "inclusive"

# Case counts of `verify --suite all` at its default sizes; tradeoff's depends on the seed.
FIXED_CASES = {
    "lowerbounds": 1 + 2 * 4 + 6,           # exact_sqrt2, smallest+largest per tau, tau pairs
    "bounds": 10_000 * 16 + 2_000 * 13,     # two-candidate and four-candidate rule grids
    "lambda": 5_000 * 6,
    "condition1": 100_000,
}


def round10(x: float) -> float:
    """The CLI's `.10g` rounding."""
    return float(f"{x:.10g}")


# ---------------------------------------------------------------------------
# rule definitions


def rule4_delta(taus) -> float:
    best = taus[0]
    for lo, hi in zip(taus, taus[1:]):
        best = max(best, (lo * hi + 2.0 * hi - 1.0) / (lo * hi + 1.0))
    return max(best, (taus[-1] + 2.0) / taus[-1])


def rule4_weights(taus) -> list[float]:
    ds = rule4_delta(taus)
    k = max(l for l, t in enumerate(taus, start=1) if t <= ds)
    ext = list(taus) + [math.inf]
    weights = []
    for l in range(1, len(taus) + 1):
        tl, tnext = ext[l - 1], ext[l]
        if l < k:
            w = (ds + 1.0) * (tl * tnext - 1.0) / ((tl + 1.0) * (tnext + 1.0))
        else:
            head = 1.0 if math.isinf(tnext) else (tnext - ds) / (tnext - 1.0)
            w = head + (ds * tl - 1.0) / (tl + 1.0)
        weights.append(w)
    return weights


def scheme(rule) -> tuple[tuple[float, ...], str, list[float]]:
    """Cutoffs, boundary mode and per-bucket weights of a threshold rule."""
    kind, t = rule
    if kind in ("rule1", "rule2"):
        if kind == "rule1" and t == 1.0:
            return (1.0,), STRICT, [1.0]
        strong = (t + 1.0) / (t - 1.0) if kind == "rule2" or t >= 1.0 + SQRT2 else t
        return (1.0, t), STRICT, [1.0, strong]
    if kind == "rule3":
        return (t,), INCLUSIVE, [1.0]
    return tuple(t), INCLUSIVE, rule4_weights(t)


def rule5_weights(s: np.ndarray) -> np.ndarray:
    finite = np.isfinite(s)
    sf = np.where(finite, s, 2.0)
    w = np.where(sf > SQRT2, (SQRT2 * sf - 1.0) / (sf + 1.0), sf - 1.0)
    return np.where(finite, w, SQRT2)


def buckets(s: np.ndarray, taus, boundary: str) -> np.ndarray:
    """Bucket index per strength: 0 is the hidden set C."""
    cut = np.asarray(taus)
    if boundary == INCLUSIVE:
        return np.searchsorted(cut, s, side="right")
    # strict: a cutoff equal to the strength stays above it, except a cutoff of 1
    return np.searchsorted(cut, s, side="left") + ((s == 1.0) & (cut[0] == 1.0))


def bound(rule, num_candidates: int) -> float:
    kind, t = rule
    two = num_candidates == 2
    if kind in ("rule1", "rule2"):
        b = max((t + 2.0) / t, (3.0 * t - 1.0) / (t + 1.0))
        if two:
            return b
        return math.inf if kind == "rule2" else min(b + 2.0, b * b)
    if kind == "rule3":
        b = max((t + 2.0) / t, t)
    elif kind == "rule4":
        b = rule4_delta(t)
    else:
        return SQRT2 if two else 2.0
    return b if two else b * b


# ---------------------------------------------------------------------------
# instances


def distance_table(doc: dict, points) -> np.ndarray:
    """voters x points distances, with the package's per-space arithmetic."""
    space = doc["space"]
    voters = doc["voters"]
    if space["type"] == "line":
        pos = space["positions"]
        xv = np.array([float(pos[v]) for v in voters])
        xp = np.array([float(pos[p]) for p in points])
        return np.abs(xv[:, None] - xp[None, :])
    if space["type"] == "euclidean":
        pos = {k: tuple(float(x) for x in v) for k, v in space["positions"].items()}
        return np.array([[math.dist(pos[v], pos[p]) for p in points] for v in voters])
    index = {pid: i for i, pid in enumerate(space["ids"])}
    n = len(index)
    mat = np.array(space["distances"], dtype=float).reshape(n, n)
    return mat[np.ix_([index[v] for v in voters], [index[p] for p in points])]


def costs(table: np.ndarray) -> list[float]:
    return [math.fsum(table[:, j].tolist()) for j in range(table.shape[1])]


def decide(dp: np.ndarray, dq: np.ndarray, p: str, q: str, rule) -> str:
    """Winner of the ordered pair (p, q) given every voter's distances to both."""
    eq = dp == dq
    toward_p = (dp < dq) | (eq & (p < q))
    near = np.minimum(dp, dq)
    far = np.maximum(dp, dq)
    s = np.full(dp.shape, math.inf)
    np.divide(far, near, out=s, where=near > 0.0)
    s[eq] = 1.0
    sides = (s[toward_p], s[~toward_p])
    if rule[0] == "rule5":
        p_score, q_score = (math.fsum(rule5_weights(side).tolist()) for side in sides)
    else:
        taus, boundary, weights = scheme(rule)
        scores = []
        for side in sides:
            counts = np.bincount(buckets(side, taus, boundary), minlength=len(taus) + 1)
            scores.append(math.fsum(w * int(c) for w, c in zip(weights, counts[1:])))
        p_score, q_score = scores
    if p_score > q_score:
        return p
    if q_score > p_score:
        return q
    return min(p, q)


def tournament(table: np.ndarray, cands, rule) -> tuple[str, list[str]]:
    """Copeland winner and uncovered set of the rule's majority graph."""
    col = {c: j for j, c in enumerate(cands)}
    beats = {c: set() for c in cands}
    for p, q in combinations(sorted(cands), 2):
        w = decide(table[:, col[p]], table[:, col[q]], p, q, rule)
        beats[w].add(q if w == p else p)
    copeland, best = None, -1
    for c in sorted(cands):
        if len(beats[c]) > best:
            copeland, best = c, len(beats[c])
    uncovered = []
    for c in cands:
        reach = set(beats[c])
        for d in beats[c]:
            reach |= beats[d]
        if len(reach) == len(cands) - 1:
            uncovered.append(c)
    return copeland, sorted(uncovered)


def winner_and_costs(doc: dict, rule) -> tuple[str, dict[str, float]]:
    cands = list(doc["candidates"])
    table = distance_table(doc, cands)
    if len(cands) == 2:
        p, q = sorted(cands)
        w = decide(table[:, cands.index(p)], table[:, cands.index(q)], p, q, rule)
    else:
        w = tournament(table, cands, rule)[0]
    return w, dict(zip(cands, costs(table)))


def ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 1.0 if num == 0.0 else math.inf
    return num / den


def _geometric_median(pts: np.ndarray, tol: float = 1e-10, max_iter: int = 10_000):
    """Weiszfeld iteration with the voter-coincidence correction."""
    y = pts.mean(axis=0)
    for _ in range(max_iter):
        diff = pts - y
        d = np.linalg.norm(diff, axis=1)
        off = d > 0.0
        if not off.any():
            return y
        inv = 1.0 / d[off]
        tilde = (pts[off] * inv[:, None]).sum(axis=0) / inv.sum()
        eta = int((~off).sum())
        if eta:
            r = float(np.linalg.norm((diff[off] * inv[:, None]).sum(axis=0)))
            if r <= eta:
                return y
            new = (1.0 - eta / r) * tilde + (eta / r) * y
        else:
            new = tilde
        step = float(np.linalg.norm(new - y)) / max(1.0, float(np.linalg.norm(new)))
        y = new
        if step <= tol:
            break
    return y


def ideal_cost(doc: dict) -> float:
    """Social cost of the best location: line median, geometric median, or best named point."""
    space = doc["space"]
    voters = doc["voters"]
    if space["type"] == "line":
        xs = sorted(float(space["positions"][v]) for v in voters)
        med = xs[(len(xs) - 1) // 2]
        return math.fsum(abs(x - med) for x in xs)
    if space["type"] == "euclidean":
        pts = [tuple(float(x) for x in space["positions"][v]) for v in voters]
        loc = tuple(float(x) for x in _geometric_median(np.array(pts)))
        return math.fsum(math.dist(loc, p) for p in pts)
    ids = space["ids"]
    point_costs = costs(distance_table(doc, ids))
    return min(zip(point_costs, ids))[0]


def evaluate(doc: dict, rule) -> dict:
    """What `strengthvote evaluate` must report for a multi-candidate instance."""
    cands = list(doc["candidates"])
    table = distance_table(doc, cands)
    copeland, uncovered = tournament(table, cands, rule)
    sc = dict(zip(cands, costs(table)))
    return {
        "winner": copeland,
        "copeland_winner": copeland,
        "uncovered_set": uncovered,
        "delta": round10(ratio(sc[copeland], min(sc.values()))),
        "rho": round10(ratio(sc[copeland], ideal_cost(doc))),
        "bound": round10(bound(rule, len(cands))),
    }


# ---------------------------------------------------------------------------
# adversarial search and the seeded suites


def line_doc(positions: dict, voters, cands=("P", "Q")) -> dict:
    return {"space": {"type": "line", "positions": positions},
            "voters": list(voters), "candidates": list(cands)}


def random_doc(rng: np.random.Generator, space: str, voters_max: int,
               num_candidates: int = 2) -> dict:
    """The package's random_instance, drawing from the generator in the same order."""
    n = int(rng.integers(1, voters_max + 1))
    voters = [f"v{i + 1}" for i in range(n)]
    if space == "line":
        pos = {v: float(x) for v, x in zip(voters, rng.uniform(-1.0, 2.0, n))}
        if num_candidates == 2:
            cands = ["P", "Q"]
            pos["P"], pos["Q"] = 0.0, 1.0
        else:
            cands = [f"c{j + 1}" for j in range(num_candidates)]
            taken = []
            for c in cands:
                x = float(rng.uniform(-1.0, 2.0))
                while x in taken:
                    x = float(rng.uniform(-1.0, 2.0))
                taken.append(x)
                pos[c] = x
        return line_doc(pos, voters, cands)
    if num_candidates != 2:
        raise ValueError("euclidean2d instances have two candidates here")
    pos = {v: [float(a) for a in xy] for v, xy in zip(voters, rng.uniform(0.0, 1.0, (n, 2)))}
    pos["P"], pos["Q"] = [0.0, 0.0], [1.0, 0.0]
    return {"space": {"type": "euclidean", "positions": pos},
            "voters": voters, "candidates": ["P", "Q"]}


def two_candidate_delta(doc: dict, rule) -> float:
    w, sc = winner_and_costs(doc, rule)
    return ratio(sc[w], min(sc.values()))


def _hard_doc(groups) -> dict:
    """P at 0 and Q at 1, one voter per position."""
    pos = {"P": 0.0, "Q": 1.0}
    voters = []
    for i, x in enumerate(groups, start=1):
        pos[f"v{i}"] = x
        voters.append(f"v{i}")
    return line_doc(pos, voters)


def anchor_docs(rule, eps: float) -> list[dict]:
    """The lower-bound family instances the search starts from."""
    def largest(t):
        s = t + eps
        return _hard_doc([1.0 / (s + 1.0), 1.0])

    def smallest(t):
        s = t - eps
        return _hard_doc([s / (s + 1.0)])

    def pair(lo, hi):
        sa, sb = lo + eps, hi - eps
        return _hard_doc([1.0 / (sa + 1.0), sb / (sb - 1.0)])

    kind, t = rule
    if kind == "rule5":
        s = 1.0 + SQRT2
        return [_hard_doc([1.0 / (s + 1.0), s / (s - 1.0)])]
    if kind in ("rule1", "rule2"):
        return [largest(t)] + ([pair(1.0, t)] if t > 1.0 + 2.0 * eps else [])
    if kind == "rule3":
        return [largest(t)] + ([smallest(t)] if t > 1.0 + 2.0 * eps else [])
    out = [largest(t[-1])] + ([smallest(t[0])] if t[0] > 1.0 + 2.0 * eps else [])
    return out + [pair(lo, hi) for lo, hi in zip(t, t[1:])]


def grid_doc(rule, n: int) -> dict:
    """Best two-voter line placement on the search grid, first maximum in row-major order."""
    kind, t = rule
    xs = [np.linspace(-1.0, 2.0, n), np.array([0.0, 0.5, 1.0])]
    if kind == "rule4":
        cuts = set(t) | {rule4_delta(t)}
    else:
        cuts = {SQRT2 if kind == "rule5" else t}
    spots = []
    for c in cuts:
        spots += [1.0 / (c + 1.0), c / (c + 1.0)]
        if c > 1.0:
            spots += [c / (c - 1.0), -1.0 / (c - 1.0)]
    offsets = np.array([-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3])
    xs.append((np.array(spots)[:, None] + offsets[None, :]).ravel())
    merged = np.unique(np.concatenate(xs))
    xs = merged[(merged >= -1.0) & (merged <= 2.0)]

    d_p, d_q = np.abs(xs), np.abs(xs - 1.0)
    near, far = np.minimum(d_p, d_q), np.maximum(d_p, d_q)
    s = np.full_like(xs, np.inf)
    np.divide(far, near, out=s, where=near > 0.0)
    if kind == "rule5":
        w = rule5_weights(s)
    else:
        taus, boundary, weights = scheme(rule)
        w = np.array([0.0] + weights)[buckets(s, taus, boundary)]
    w = np.where(d_p <= d_q, w, -w)
    sc_p = d_p[:, None] + d_p[None, :]
    sc_q = d_q[:, None] + d_q[None, :]
    sc_w = np.where((w[:, None] + w[None, :]) >= 0.0, sc_p, sc_q)
    sc_b = np.minimum(sc_p, sc_q)
    delta = np.ones_like(sc_w)
    np.divide(sc_w, sc_b, out=delta, where=sc_b > 0.0)
    i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
    return line_doc({"P": 0.0, "Q": 1.0, "v1": float(xs[i]), "v2": float(xs[j])}, ("v1", "v2"))


class SearchReference:
    """What `strengthvote search` must report; the seed-independent stages are cached per rule."""

    def __init__(self, grid: int = 400, n_instances: int = 200, voters_max: int = 8,
                 eps: float = 1e-6):
        self.grid, self.n_instances, self.voters_max, self.eps = grid, n_instances, voters_max, eps
        self._fixed = {}

    def _best(self, docs, rule, best):
        for doc in docs:
            delta = two_candidate_delta(doc, rule)
            if delta > best[1]:
                best = (doc, delta)
        return best

    def __call__(self, rule, space: str, seed: int) -> dict:
        if rule not in self._fixed:
            docs = anchor_docs(rule, self.eps) + [grid_doc(rule, self.grid)]
            self._fixed[rule] = self._best(docs, rule, (None, -math.inf))
        rng = np.random.default_rng(seed)
        randoms = (random_doc(rng, space, self.voters_max) for _ in range(self.n_instances))
        doc, delta = self._best(randoms, rule, self._fixed[rule])
        return {"achieved": round10(delta), "digest": digest(doc)}


def tradeoff_cases(seed: int, n_two: int = 5_000, n_multi: int = 1_000,
                   voters_max: int = 20) -> int:
    """Case count of the tradeoff check: every rule5 instance, and each rule1 (tau=2)
    instance whose measured distortion exceeds 1.01."""
    rng = np.random.default_rng(seed)
    rule1 = ("rule1", 2.0)
    cases = 0
    for k, count in ((2, n_two), (4, n_multi)):
        for _ in range(count):
            doc = random_doc(rng, "line", voters_max, k)
            w, sc = winner_and_costs(doc, rule1)
            cases += 1 + (ratio(sc[w], min(sc.values())) > 1.01)
    return cases


def verify_cases(seed: int) -> dict:
    cases = {**FIXED_CASES, "tradeoff": tradeoff_cases(seed)}
    return {check: cases[check] for check in VERIFY_CHECKS}
