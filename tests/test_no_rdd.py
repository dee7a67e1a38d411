"""Source guards for DESIGN.md's "no raw RDDs" rule and layering note.

``createDataFrame(<list>)`` and ``parallelize`` pickle driver values
through an RDD job, whose workers start a second Python worker pool next to
the one the SQL UDFs use; ``.rdd`` leaves the DataFrame API. The first
guard parses every module of the package with ``ast`` and lists each such
call.

An Arrow UDF loads pandas and pyarrow into every Python worker that runs
it, about doubling the worker's memory. The pipeline's modules, MSP's
``compress`` included, run none; the second guard lists each Arrow UDF name
they mention.

Any Python UDF, row-at-a-time ``udf`` included, makes Spark start a pool of
``pyspark.daemon`` workers. The pipeline tokenizes on the driver and
computes its merge labels there, so the third guard lists every Python UDF
name (``udf``, ``pandas_udf`` and the Arrow UDF entry points) that the
pipeline's modules and ``preprocess`` mention.

The package has one Word2Vec trainer, the compiled skip-gram kernel of
``core/embed.py``. The fourth guard lists every import of a Spark ML
module: the only one left is the supervised baselines' logistic
regression (``baselines/rank.py``).

Expansion and both compressions (MSP and SSuM) run on the graph's driver
rows. The fifth guard lists every import of ``pyspark`` in their modules,
``core/expand.py`` and ``core/compress.py``.
"""
import ast
from pathlib import Path
from typing import List

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

_LITERALS = (ast.List, ast.Tuple, ast.ListComp, ast.GeneratorExp)

W_RW_MODULES = ("graph", "merge", "expand", "compress", "walks", "embed", "match", "pipeline")
_ARROW_UDFS = {"mapInPandas", "mapInArrow", "pandas_udf", "applyInPandas"}
PIPELINE_MODULES = W_RW_MODULES + ("preprocess",)
_PYTHON_UDFS = _ARROW_UDFS | {"udf"}


def rdd_uses(root: Path) -> List[str]:
    """``file:line`` (relative to ``root``) of every RDD use in ``root``'s
    Python modules."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "rdd":
                hit = True
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                data = node.args[:1] + [k.value for k in node.keywords if k.arg == "data"]
                hit = node.func.attr == "parallelize" or (
                    node.func.attr == "createDataFrame"
                    and any(isinstance(d, _LITERALS) for d in data)
                )
            else:
                hit = False
            if hit:
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_package_builds_no_rdd():
    assert rdd_uses(SRC) == []


def test_guard_flags_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "a = spark.createDataFrame([(1,)], 'x int')\n"
        "b = spark.createDataFrame(data=[(i,) for i in r], schema='x int')\n"
        "c = spark.createDataFrame(((1,),))\n"
        "d = sc.parallelize(range(3))\n"
        "e = df.rdd.map(f)\n"
        "ok = spark.createDataFrame(pdf, 'x int')\n"
        "ok = spark.range(1).select(F.inline(F.array()))\n"
    )
    assert rdd_uses(tmp_path) == [f"m.py:{i}" for i in range(1, 6)]


def name_uses(paths: List[Path], names) -> List[str]:
    """``file:line`` of every attribute, name or import among ``paths``
    that is one of ``names``."""
    found = []
    for path in paths:
        lines = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
            if name and getattr(node, name) in names:
                lines.add(node.lineno)
        found += [f"{path.name}:{i}" for i in sorted(lines)]
    return found


def arrow_udf_uses(paths: List[Path]) -> List[str]:
    """``file:line`` of every use among ``paths`` of an Arrow UDF entry point."""
    return name_uses(paths, _ARROW_UDFS)


def test_w_rw_modules_run_no_arrow_udf():
    paths = [SRC / "core" / f"{m}.py" for m in W_RW_MODULES]
    assert all(p.is_file() for p in paths)
    assert arrow_udf_uses(paths) == []


def test_arrow_guard_flags_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "a = df.mapInPandas(f, 'x int')\n"
        "b = df.mapInArrow(f, 'x int')\n"
        "c = df.groupBy('k').applyInPandas(f, 'x int')\n"
        "d = F.pandas_udf(f, 'double')\n"
        "from pyspark.sql.functions import pandas_udf\n"
        "e = pandas_udf(f, 'double')\n"
        "ok = F.udf(f, 'double')\n"
        "ok = spark.createDataFrame(table, 'x int')\n"
    )
    assert arrow_udf_uses([tmp_path / "m.py"]) == [f"m.py:{i}" for i in range(1, 7)]


def test_pipeline_modules_run_no_python_udf():
    paths = [SRC / "core" / f"{m}.py" for m in PIPELINE_MODULES]
    assert all(p.is_file() for p in paths)
    assert name_uses(paths, _PYTHON_UDFS) == []


def test_python_udf_guard_flags_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "a = F.udf(f, 'double')\n"
        "@F.udf('string')\n"
        "def g(x): return x\n"
        "from pyspark.sql.functions import udf\n"
        "b = udf(f)\n"
        "spark.udf.register('f', f)\n"
        "c = F.pandas_udf(f, 'double')\n"
        "d = df.mapInPandas(f, 'x int')\n"
        "e = df.mapInArrow(f, 'x int')\n"
        "h = df.groupBy('k').applyInPandas(f, 'x int')\n"
        "ok = F.col('udf')\n"
        "ok = my_udf(F.expr('udf'))\n"
    )
    flagged = [1, 2, 4, 5, 6, 7, 8, 9, 10]
    assert name_uses([tmp_path / "m.py"], _PYTHON_UDFS) == [f"m.py:{i}" for i in flagged]


def spark_ml_imports(root: Path) -> List[str]:
    """``file:module`` (file relative to ``root``) of every import of
    ``pyspark.ml`` or a module under it in ``root``'s Python modules."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                mods = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            hits = sorted({m for m in mods if m == "pyspark.ml" or m.startswith("pyspark.ml.")})
            found += [f"{path.relative_to(root)}:{m}" for m in hits[:1]]
    return found


def test_package_imports_no_spark_ml_but_the_rank_baseline():
    assert spark_ml_imports(SRC) == [
        "baselines/rank.py:pyspark.ml.classification",
        "baselines/rank.py:pyspark.ml.functions",
    ]


def test_spark_ml_guard_flags_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "from pyspark.ml.feature import Word2Vec\n"
        "import pyspark.ml.feature as mlf\n"
        "from pyspark import ml\n"
        "import pyspark.ml\n"
        "from pyspark.ml import Pipeline\n"
        "ok = 1\n"
        "from pyspark.sql import functions\n"
        "import pyspark.mllib_like\n"
    )
    assert [f.split(":")[1] for f in spark_ml_imports(tmp_path)] == [
        "pyspark.ml.feature", "pyspark.ml.feature", "pyspark.ml", "pyspark.ml", "pyspark.ml",
    ]


DRIVER_MODULES = ("expand", "compress")


def pyspark_imports(paths: List[Path]) -> List[str]:
    """``file:line`` of every import of ``pyspark`` or a module under it
    among ``paths``."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""] if node.level == 0 else []
            else:
                continue
            if any(m == "pyspark" or m.startswith("pyspark.") for m in mods):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_driver_stages_import_no_pyspark():
    paths = [SRC / "core" / f"{m}.py" for m in DRIVER_MODULES]
    assert all(p.is_file() for p in paths)
    assert pyspark_imports(paths) == []


def test_pyspark_guard_flags_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "import pyspark\n"
        "from pyspark.sql import functions as F\n"
        "import os, pyspark.sql as ps\n"
        "from pyspark import sql\n"
        "def f():\n"
        "    from pyspark.sql.types import DataType\n"
        "from . import pyspark\n"
        "from .graph import Graph\n"
        "import pysparkling\n"
    )
    assert pyspark_imports([tmp_path / "m.py"]) == [f"m.py:{i}" for i in (1, 2, 3, 4, 6)]
