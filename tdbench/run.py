"""TDmatch benchmark: ``run_tdmatch`` end to end on one named workload.

    python3 tdbench/run.py --workload imdb-graph --seed 1 --seconds 45 --trace 0

Run from the repository root. One process starts a pinned ``local[4]``
Spark session, warms it by building the graph of a small input (set-up), then
runs the untraced pipeline once on the workload's input, generated from
``--seed``. The work is fixed: ``--seconds`` does not change how many runs
are made, so two commits are measured by the same procedure. ``--trace 1``
adds one traced run that calls the pipeline's stages one by one
(tdbench/stages.py) and reports per-layer metrics instead of end-to-end ones.

Every run's ranked matches go through the output check (tdbench/checks.py).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; it is printed also
when a run fails, and the exit code is then 1. Spans and a full report go to
``.tdbench_work/`` in the working directory.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".tdbench_work")

MASTER = "local[4]"
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "3g"


def _process_age_s() -> float:
    """Seconds since this process started, from /proc."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def _spark_env() -> None:
    """Pin the session before the JVM starts; keep its files in WORK."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options -Djava.io.tmpdir={tmp} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.local.dir={tmp} pyspark-shell"
    )
    sys.path[:0] = [SRC, ROOT]


def _start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("tdbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _stop_spark(spark) -> None:
    """Stop the session, the JVM and the Python workers, and wait for all."""
    from pyspark import SparkContext

    from tdbench.spans import process_tree

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    tree = [p for p in process_tree(os.getpid()) if p != os.getpid()]
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 30
    for pid in tree:
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            while _alive(pid) and time.monotonic() < deadline + 10:
                time.sleep(0.05)


class Bench:
    """The runs of one process on one workload, with their checks and the
    peak RSS seen after each. Imports wait until the session env is set."""

    def __init__(self, spark, workload, seed: int):
        self.spark = spark
        self.wl = workload
        self.seed = seed
        self.runs: List[dict] = []
        self.python_rss_mb = 0.0
        self.jvm_rss_mb = 0.0

    def sample_rss(self) -> None:
        from tdbench.spans import tree_peak_rss_mb

        rss = tree_peak_rss_mb()
        self.python_rss_mb = max(self.python_rss_mb, rss["python"])
        self.jvm_rss_mb = max(self.jvm_rss_mb, rss["jvm"])

    def evaluate(self, inp, matches_df, graph, run: dict) -> None:
        """Check one run's output; fills ``run`` and marks it failed if bad."""
        from repro.core.metrics import ranking_metrics_pdf
        from tdbench.checks import check_ranking, match_digest

        pdf = matches_df.toPandas()
        matches_df.unpersist()
        mrr = ranking_metrics_pdf(pdf, inp.truth)["MRR"]
        problems = check_ranking(pdf, inp.query_ids, inp.n_targets, self.wl.config.k, mrr)
        run.update(
            mrr=mrr,
            digest=match_digest(pdf),
            nodes=graph.num_nodes(),
            edges=graph.num_edges(),
            problems=problems[:20],
            failed=bool(problems),
        )

    def warm_up(self) -> None:
        """Build the graph of a small input of the workload, generated from
        the seed. This starts the Python workers and compiles the graph
        plans, the largest part of a first run's extra time; a full warm-up
        pipeline would cost twice as much set-up time."""
        from repro.core.graph import build_graph
        from tdbench.workloads import WARM_SCALE

        cfg = self.wl.config
        warm = self.wl.generate(self.spark, WARM_SCALE, 1_000_000 + self.seed)
        build_graph(
            self.spark, warm.query, warm.target, max_n=cfg.max_n, do_stem=cfg.do_stem,
            filter_second=False, auto_order=cfg.auto_order,
        )

    def untraced(self, inp) -> dict:
        from repro.core.pipeline import run_tdmatch

        run = {"kind": "untraced", "failed": True}
        self.runs.append(run)
        try:
            t0 = time.perf_counter()
            res = run_tdmatch(
                self.spark, inp.query, inp.target, config=self.wl.config,
                kb=inp.kb, synonyms=inp.synonyms,
            )
            run["pipeline_s"] = time.perf_counter() - t0
            self.evaluate(inp, res.matches, res.graph, run)
        except Exception:
            run["error"] = traceback.format_exc()
            print(run["error"], file=sys.stderr)
        self.sample_rss()
        return run

    def traced(self, inp) -> dict:
        from tdbench.spans import SpanRecorder
        from tdbench.stages import traced_tdmatch

        run = {"kind": "traced", "failed": True}
        self.runs.append(run)
        rec = SpanRecorder(f"tdbench.{self.wl.name}.{self.seed}.traced")
        try:
            matches, graph, layers = traced_tdmatch(self.spark, inp, self.wl.config, rec)
            run["layers"] = layers
            self.evaluate(inp, matches, graph, run)
        except Exception:
            run["error"] = traceback.format_exc()
            print(run["error"], file=sys.stderr)
        rec.write(os.path.join(WORK, f"spans-{self.wl.name}-seed{self.seed}.jsonl"))
        self.sample_rss()
        return run


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "core", "pipeline.py")):
        print(f"tdbench: no TDmatch sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    _spark_env()
    from tdbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"tdbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    spark = _start_spark()
    try:
        bench = Bench(spark, wl, args.seed)
        bench.warm_up()
        setup_s = _process_age_s()

        inp = wl.generate(spark, wl.scale, args.seed)
        bench.untraced(inp)
        traced = bench.traced(inp) if args.trace else None
    finally:
        _stop_spark(spark)
    return _report(args, wl, bench, inp, setup_s, traced)


def _report(args, wl, bench: "Bench", inp, setup_s: float, traced: Optional[dict]) -> int:
    from tdbench.checks import summary
    from tdbench.stages import layer_metrics

    runs = bench.runs
    good = [r for r in runs if r["kind"] == "untraced" and not r["failed"]]
    first = next((r for r in runs if "digest" in r), None)
    if traced is not None and wl.repeatable and "digest" in traced and first is not None:
        if traced["digest"] != first["digest"] or (traced["nodes"], traced["edges"]) != (
            first["nodes"],
            first["edges"],
        ):
            traced["failed"] = True
            traced["problems"].append(f"traced digest {traced['digest']} != run_tdmatch {first['digest']}")
    failed = sum(r["failed"] for r in runs)
    attempted = len(runs)

    # metrics come from the runs that finished; a failed run leaves its
    # metrics out, and the exit code below is 1
    pipeline = summary([r["pipeline_s"] for r in good]) if good else None
    if traced is None:
        metrics = {"setup_s": (setup_s, "s")}
        if good:
            metrics["pipeline_s"] = (pipeline["median"], "s")
            metrics["mrr"] = (statistics.median(r["mrr"] for r in good), "1")
        metrics["python_rss_mb"] = (bench.python_rss_mb, "MB")
    else:
        metrics = layer_metrics(traced["layers"]) if "layers" in traced else {}
        metrics["jvm_rss_mb"] = (bench.jvm_rss_mb, "MB")
        if good and "layers" in traced:
            metrics["trace.overhead_s"] = (traced["layers"]["pipeline.traced_s"] - pipeline["median"], "s")

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "session": {
            "master": MASTER,
            "shuffle_partitions": SHUFFLE_PARTITIONS,
            "driver_memory": DRIVER_MEMORY,
        },
        "inputs": {
            "query_docs": len(inp.query_ids),
            "target_docs": inp.n_targets,
            "nodes": first["nodes"] if first else None,
            "edges": first["edges"] if first else None,
        },
        "setup_s": setup_s,
        "pipeline_s": pipeline,
        "failure_share": failed / attempted,
        "distinct_digests": len({r["digest"] for r in runs if "digest" in r}),
        "runs": runs,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(WORK, f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1, default=str)

    print(f"workload {wl.name}  seed {args.seed}  {MASTER}  shuffle.partitions {SHUFFLE_PARTITIONS}  driver {DRIVER_MEMORY}")
    print("inputs   " + "  ".join(f"{k} {v}" for k, v in report["inputs"].items()))
    for r in runs:
        print(
            f"run      {r['kind']:9s} pipeline_s {r.get('pipeline_s', float('nan')):8.3f}  "
            f"mrr {r.get('mrr', float('nan')):.4f}  digest {r.get('digest', '-')}  "
            f"nodes {r.get('nodes', '-')}  edges {r.get('edges', '-')}  failed {r['failed']}"
        )
    if pipeline is not None:
        tail = pipeline["tail"]
        print(
            f"pipeline_s median of {pipeline['n']}; "
            + (f"p{tail['p']:g} {tail['value']:.3f} s" if tail else "no percentile has 10 samples beyond it")
        )
    print(f"failure share {failed}/{attempted}  distinct digests {report['distinct_digests']}")
    for name, (v, unit) in metrics.items():
        print(f"metric   {name:32s} {v:14.4f} {unit}")
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(out))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
