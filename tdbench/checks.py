"""Output check, match digest and summary statistics of the benchmark."""
from __future__ import annotations

import hashlib
import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

import pandas as pd

# Percentiles tried, highest first, by :func:`tail_percentile`.
PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def check_ranking(
    matches: pd.DataFrame, query_ids: Iterable[str], n_targets: int, k: int, mrr: float
) -> List[str]:
    """Problems with one run's ranked matches; empty when the run is good.

    Every query document must have ``min(k, n_targets)`` rows ranked
    1..that number, with distinct targets and scores in [-1, 1] that never
    increase with rank, and the run's MRR must be finite.
    """
    problems: List[str] = []
    if not math.isfinite(mrr):
        problems.append(f"mrr is not finite: {mrr}")
    want = min(k, n_targets)
    by_q = {str(q): g for q, g in matches.groupby(matches["query"].astype(str))}
    for q in sorted({str(q) for q in query_ids}):
        g = by_q.pop(q, None)
        if g is None:
            problems.append(f"query {q}: no ranked rows")
            continue
        g = g.sort_values("rank")
        ranks = [int(r) for r in g["rank"]]
        scores = [float(s) for s in g["score"]]
        if ranks != list(range(1, want + 1)):
            problems.append(f"query {q}: ranks {ranks} are not 1..{want}")
        if g["target"].astype(str).nunique() != len(g):
            problems.append(f"query {q}: repeated targets")
        # cosine scores carry float rounding just past +-1
        if any(not (-1 - 1e-6 <= s <= 1 + 1e-6) for s in scores):
            problems.append(f"query {q}: score outside [-1, 1]")
        if any(b > a for a, b in zip(scores, scores[1:])):
            problems.append(f"query {q}: score increases with rank")
    for q in sorted(by_q):
        problems.append(f"query {q}: not a query document of the workload")
    return problems


def match_digest(matches: pd.DataFrame) -> str:
    """Order-independent digest of ranked matches; scores to 6 decimals."""
    rows = sorted(
        f"{q}\t{t}\t{int(r)}\t{float(s):.6f}"
        for q, t, r, s in zip(matches["query"], matches["target"], matches["rank"], matches["score"])
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(p, value, n)`` for the highest percentile in :data:`PERCENTILES`
    with at least ten of the ``n`` samples beyond it (nearest rank), or
    None when no percentile has that many."""
    n = len(values)
    ordered = sorted(values)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)  # 1-based nearest rank
        if n - rank >= 10:
            return p, ordered[rank - 1], n
    return None


def summary(values: Sequence[float]) -> dict:
    """Median, the tail percentile rule and the sample count."""
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail": None if tail is None else {"p": tail[0], "value": tail[1], "n": tail[2]},
    }
