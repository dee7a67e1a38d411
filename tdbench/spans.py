"""Tracing helpers the benchmark wraps around calls into the pipeline.

* :class:`SpanRecorder` keeps spans in memory, computes self time and writes
  them as JSON lines when the run ends.
* :func:`job_group` tags the Spark jobs a stage runs with a job group and
  reads their job and failed-task counts from ``statusTracker``.
* :func:`tree_peak_rss_mb` sums peak RSS (``VmHWM``) over a process tree,
  split into Python processes and JVMs.

Nothing here starts a thread or a process.
"""
from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans of one traced pipeline run.

    Spans nest through :meth:`span`; each records the span open when it
    started as its parent. All spans of a recorder share ``trace_id``.
    """

    def __init__(self, trace_id: str, clock=time.perf_counter):
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self._clock = clock
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        s = Span(name=name, start=self._clock(), parent=parent)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = self._clock()
            self._open.pop()

    def self_time(self, index: int) -> float:
        """Duration of span ``index`` minus the durations of its direct
        children. Spans open one inside another on one thread, so children
        never overlap."""
        return self.spans[index].duration - sum(
            c.duration for c in self.spans if c.parent == index
        )

    def records(self) -> List[dict]:
        out = []
        for i, s in enumerate(self.spans):
            rec = asdict(s)
            rec.update(trace_id=self.trace_id, index=i, duration=s.duration, self_time=self.self_time(i))
            out.append(rec)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for rec in self.records():
                f.write(json.dumps(rec) + "\n")


@contextmanager
def job_group(sc, group_id: str, description: str) -> Iterator[Dict[str, int]]:
    """Run the body with its Spark jobs in job group ``group_id``; on exit
    the yielded dict holds ``jobs`` and ``failed_tasks`` for the group.

    ``group_id`` must be unique within the SparkContext, since the tracker
    keeps the jobs of earlier groups with the same id.
    """
    counts: Dict[str, int] = {}
    sc.setJobGroup(group_id, description)
    try:
        yield counts
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
        tracker = sc.statusTracker()
        job_ids = tracker.getJobIdsForGroup(group_id)
        failed = 0
        for jid in job_ids:
            info = tracker.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                stage = tracker.getStageInfo(sid)
                failed += stage.numFailedTasks if stage else 0
        counts["jobs"] = len(job_ids)
        counts["failed_tasks"] = failed


def _parent_map() -> Dict[int, int]:
    """pid -> parent pid for every live process."""
    out: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        out[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def _status(pid: int) -> Dict[str, str]:
    try:
        with open(f"/proc/{pid}/status") as f:
            return dict(line.rstrip("\n").split(":\t", 1) for line in f if ":\t" in line)
    except OSError:
        return {}


def process_tree(root: int) -> List[int]:
    """``root`` and all its live descendants."""
    kids: Dict[int, List[int]] = {}
    for pid, ppid in _parent_map().items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, ()))
    return out


def tree_peak_rss_mb(root: Optional[int] = None) -> Dict[str, float]:
    """Summed ``VmHWM`` in MB of the Python processes and of the JVMs in
    the process tree under ``root`` (default: this process)."""
    totals = {"python": 0.0, "jvm": 0.0}
    for pid in process_tree(os.getpid() if root is None else root):
        st = _status(pid)
        hwm = st.get("VmHWM")
        if not hwm:
            continue
        kb = float(hwm.split()[0])
        name = st.get("Name", "")
        if name.startswith("python"):
            totals["python"] += kb / 1024
        elif name == "java":
            totals["jvm"] += kb / 1024
    return totals
