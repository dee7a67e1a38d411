"""Baseline matchers from the paper's evaluation (DESIGN.md §4).

Unsupervised: W2VEC, D2VEC, S-BE (pre-trained substitute). Supervised
(starred in the paper): RANK*, DITTO*, DEEP-M*, TAPAS*, L-BE*. Each method
has a train step (``*_train``, none for the pre-trained S-BE) and a rank
step (``*_rank``, or ``rank.kfold_rank`` for the supervised pair
classifiers) that returns pandas(query, target, score, rank); its
``*_match(spark, ...)`` composes the two and returns the rows as a
DataFrame, compatible with ``repro.core.metrics.ranking_metrics_pdf``
(after ``toPandas``).
"""
