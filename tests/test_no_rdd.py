"""Source guard for DESIGN.md's "no raw RDDs" rule.

``createDataFrame(<list>)`` and ``parallelize`` pickle driver values
through an RDD job, whose workers start a second Python worker pool next to
the one the SQL UDFs use; ``.rdd`` leaves the DataFrame API. This test
parses every module of the package with ``ast`` and lists each such call.
"""
import ast
from pathlib import Path
from typing import List

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

_LITERALS = (ast.List, ast.Tuple, ast.ListComp, ast.GeneratorExp)


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
