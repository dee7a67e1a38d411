"""Baseline matchers from the paper's evaluation (DESIGN.md §4).

Unsupervised: W2VEC, D2VEC, S-BE (pre-trained substitute). Supervised
(starred in the paper): RANK*, DITTO*, DEEP-M*, TAPAS*, L-BE*. Each exposes
``match_topk(...) -> DataFrame(query, target, score, rank)`` compatible with
``repro.core.metrics.ranking_metrics_pdf`` (after ``toPandas``).
"""
