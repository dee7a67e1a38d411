"""Tests of the benchmark's own helpers; no Spark session needed.

    python3 -m pytest tdbench/tests -q
"""
import json
import math
import os

import pandas as pd
import pytest

from tdbench.checks import check_ranking, match_digest, tail_percentile
from tdbench.spans import SpanRecorder, job_group, process_tree, tree_peak_rss_mb


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_children_once():
    clock = FakeClock()
    rec = SpanRecorder("t", clock=clock)
    with rec.span("root"):
        clock.t = 1.0
        with rec.span("a"):
            clock.t = 3.0
        clock.t = 4.0
        with rec.span("b"):
            clock.t = 4.5
            with rec.span("b.inner"):
                clock.t = 5.0
            clock.t = 6.0
        clock.t = 10.0
    root, a, b, inner = rec.spans
    assert (root.duration, a.duration, b.duration) == (10.0, 2.0, 2.0)
    assert (a.parent, b.parent, inner.parent) == (0, 0, 2)
    assert rec.self_time(0) == 10.0 - 2.0 - 2.0  # grandchild not subtracted again
    assert rec.self_time(2) == 2.0 - 0.5
    assert rec.self_time(1) == 2.0


def test_spans_written_as_json_lines(tmp_path):
    clock = FakeClock()
    rec = SpanRecorder("trace-1", clock=clock)
    with rec.span("root"):
        clock.t = 2.0
    path = tmp_path / "spans.jsonl"
    rec.write(str(path))
    (line,) = path.read_text().splitlines()
    rec_out = json.loads(line)
    assert rec_out["trace_id"] == "trace-1"
    assert rec_out["name"] == "root"
    assert rec_out["self_time"] == 2.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(19))) is None
    p, value, n = tail_percentile([float(i) for i in range(1, 21)])
    assert (p, value, n) == (50.0, 10.0, 20)  # 10 samples beyond the 10th
    p, value, n = tail_percentile([float(i) for i in range(1, 101)])
    assert (p, value, n) == (90.0, 90.0, 100)
    p, _, _ = tail_percentile([1.0] * 1010)
    assert p == 99.0  # p99.9 would leave only one sample beyond


def _ranking(queries=("1", "2"), targets=("a", "b", "c")):
    rows = []
    for q in queries:
        for r, t in enumerate(targets, start=1):
            rows.append({"query": q, "target": t, "score": 1.0 - 0.1 * r, "rank": r})
    return pd.DataFrame(rows)


def test_check_accepts_a_wellformed_ranking():
    assert check_ranking(_ranking(), ["1", "2"], n_targets=3, k=20, mrr=0.5) == []
    top2 = _ranking(targets=("a", "b"))
    assert check_ranking(top2, ["1", "2"], n_targets=3, k=2, mrr=0.5) == []


@pytest.mark.parametrize(
    "corrupt, expect",
    [
        (lambda df: df[~((df["query"] == "2") & (df["rank"] == 3))], "ranks"),
        (lambda df: df.assign(rank=df["rank"].where(df["rank"] != 2, 3)), "ranks"),
        (lambda df: df.assign(target=df["target"].replace("c", "a")), "repeated targets"),
        (lambda df: df.assign(score=df["score"].where(df["rank"] != 1, 1.5)), "outside"),
        (lambda df: df.assign(score=df["score"].where(df["rank"] != 3, 0.95)), "increases"),
        (lambda df: df[df["query"] != "2"], "no ranked rows"),
        (lambda df: pd.concat([df, df.assign(query="9")]), "not a query document"),
    ],
)
def test_check_rejects_a_malformed_ranking(corrupt, expect):
    problems = check_ranking(corrupt(_ranking()), ["1", "2"], n_targets=3, k=20, mrr=0.5)
    assert any(expect in p for p in problems), problems


def test_check_rejects_a_nonfinite_mrr():
    assert check_ranking(_ranking(), ["1", "2"], n_targets=3, k=20, mrr=math.nan)


def test_digest_ignores_row_order_but_not_content():
    df = _ranking()
    assert match_digest(df) == match_digest(df.iloc[::-1])
    swapped = df.assign(target=df["target"].replace({"a": "b", "b": "a"}))
    assert match_digest(df) != match_digest(swapped)


class FakeTracker:
    class Job:
        stageIds = [7, 8]

    class Stage:
        def __init__(self, failed):
            self.numFailedTasks = failed

    def getJobIdsForGroup(self, group):
        return [1, 2] if group == "g" else []

    def getJobInfo(self, jid):
        return self.Job()

    def getStageInfo(self, sid):
        return self.Stage(1 if sid == 8 else 0)


class FakeContext:
    def __init__(self):
        self.props = {}

    def setJobGroup(self, group, description):
        self.props["spark.jobGroup.id"] = group
        self.props["spark.job.description"] = description

    def setLocalProperty(self, key, value):
        self.props[key] = value

    def statusTracker(self):
        return FakeTracker()


def test_job_group_counts_jobs_and_failed_tasks():
    sc = FakeContext()
    with job_group(sc, "g", "stage") as counts:
        assert sc.props["spark.jobGroup.id"] == "g"
    assert sc.props["spark.jobGroup.id"] is None
    assert counts == {"jobs": 2, "failed_tasks": 2}


def test_peak_rss_covers_this_process():
    assert os.getpid() in process_tree(os.getpid())
    rss = tree_peak_rss_mb()
    assert rss["python"] > 1.0
