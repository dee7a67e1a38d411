"""``run_tdmatch`` under two Spark masters, each in a process of its own.

Output must be a function of (data, config, seed) only: the core count of
the master must not change the matches. The pipeline runs no Python UDF,
so Spark must not start a ``pyspark.daemon`` worker pool either. Each
subprocess runs the pipeline on a small IMDb WT input (expansion, numeric
bucketing and SSuM(0.1) compression on) and prints its match digest and the Python processes
below it in the process tree; idle Python workers live until the session
stops, so they are still there when it counts.

Run one child by hand with ``PYTHONPATH=src python -m tests.test_masters
'local[2]'`` from the repository root.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MASTERS = ("local[2]", "local[4]")


def process_name(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/comm") as f:
            return f.read().strip()
    except OSError:
        return ""


def child(master: str) -> None:
    """Run the pipeline under ``master``; print one JSON line."""
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {master} --driver-memory 1g --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    from repro.core.pipeline import TDMatchConfig, run_tdmatch
    from repro.datasets import imdb
    from repro.kb.synth_kb import prepare_kb, prepare_synonyms
    from tdbench.spans import process_tree

    spark = (
        SparkSession.builder.appName("masters")
        .config("spark.sql.shuffle.partitions", "4")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    sc = imdb.generate(spark, scale=0.08, seed=7)
    cfg = TDMatchConfig(
        num_walks=8, walk_length=8, vector_size=16, k=5, expand=True, bucket_numeric=True,
        compress=("ssum", 0.1),
    )
    res = run_tdmatch(
        spark, sc.reviews, sc.movies_wt, config=cfg,
        kb=prepare_kb(spark, sc.kb), synonyms=prepare_synonyms(spark, sc.synonyms),
    )
    rows = sorted(f"{q}\t{t}\t{r}\t{s!r}" for q, t, s, r in res.matches.collect())
    python = [
        f"{pid} {process_name(pid)}"
        for pid in process_tree(os.getpid())
        if pid != os.getpid() and process_name(pid).startswith("python")
    ]
    print(json.dumps({
        "digest": hashlib.sha256("\n".join(rows).encode()).hexdigest(),
        "rows": len(rows),
        "python": python,
    }))
    spark.stop()


def test_same_matches_and_no_python_worker(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p)
    env.pop("PYSPARK_SUBMIT_ARGS", None)
    procs = []
    for i, master in enumerate(MASTERS):
        tmp = tmp_path / str(i)
        tmp.mkdir()
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "tests.test_masters", master],
            cwd=ROOT, env={**env, "TMPDIR": str(tmp)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    outs = []
    try:
        for master, p in zip(MASTERS, procs):
            stdout, stderr = p.communicate(timeout=600)
            assert p.returncode == 0, f"{master}:\n{stderr[-3000:]}"
            outs.append(json.loads(stdout.strip().splitlines()[-1]))
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    for master, out in zip(MASTERS, outs):
        assert out["rows"] > 0
        assert out["python"] == [], f"{master} started Python processes: {out['python']}"
    assert outs[0]["digest"] == outs[1]["digest"]


if __name__ == "__main__":
    child(sys.argv[1])
