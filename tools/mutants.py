"""Mutation audit of one module: which one-token changes does no test see?

    python tools/mutants.py src/sourcecount/cli.py tests/test_cli.py

A mutant is the module with one change: a comparison operator swapped
(``<`` and ``<=``, ``==`` and ``!=``, ``in`` and ``not in``, ``is`` and
``is not``), an arithmetic operator swapped (``+`` and ``-``, ``*`` and
``/``), ``and`` and ``or`` swapped, or a numeric constant changed (an int n
to n + 1, a float x to 2x, 0.0 to 1.0).  Each mutant is written with
``ast.unparse`` into a temporary copy of ``src/``, never into the checkout,
and the named tests run on it alone under ``pytest -x -q`` with
``PYTHONPATH`` on the copy.  A mutant survives when every test passes; the
unmutated rewrite must pass first.  Prints one line per mutant, then the
tally.  It is not a test: pytest does not collect ``tools/``.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # a run this long counts as killed: a mutant can loop forever
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv,
         ast.Pow: ast.Mult, ast.And: ast.Or, ast.Or: ast.And}


def changed(value):
    return value + 1 if type(value) is int else value * 2 if value else 1.0


def where(node):
    return node.lineno, node.col_offset + 1


def sites(tree):
    """(index in ``ast.walk`` order, op index or None, (line, column), description) of
    each site."""
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                yield index, i, where(node), f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            op = type(node.op)
            yield index, None, where(node), f"{op.__name__} -> {SWAPS[op].__name__}"
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            yield index, None, where(node), f"{node.value!r} -> {changed(node.value)!r}"


def mutant(source: str, index: int | None, op_index: int | None) -> str:
    """``source`` rewritten by ``ast.unparse``, with site ``index`` changed (None: unchanged)."""
    tree = ast.parse(source)
    if index is not None:
        node = list(ast.walk(tree))[index]
        if op_index is not None:
            node.ops[op_index] = SWAPS[type(node.ops[op_index])]()
        elif isinstance(node, ast.Constant):
            node.value = changed(node.value)
        else:
            node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree) + "\n"


def passes(src: Path, tests: list[str]) -> bool:
    # The copy alone is on the path: PYTHONPATH names it, pyproject's pythonpath is
    # emptied, and no bytecode is cached (a same-size mutant could reuse a stale .pyc).
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", "pythonpath=", *tests]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path, help="a module under src/")
    parser.add_argument("tests", nargs="+", help="test files or node ids to run per mutant")
    args = parser.parse_args(argv)
    rel = args.module.resolve().relative_to(ROOT / "src")
    source = (ROOT / "src" / rel).read_text(encoding="utf-8")
    found = sorted(sites(ast.parse(source)), key=lambda site: site[2])
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / rel).write_text(mutant(source, None, None), encoding="utf-8")
        if not passes(src, args.tests):
            print("the unmutated rewrite fails its tests; nothing to audit", file=sys.stderr)
            return 2
        survived = 0
        for index, op_index, (line, column), what in found:
            (src / rel).write_text(mutant(source, index, op_index), encoding="utf-8")
            alive = passes(src, args.tests)
            survived += alive
            print(f"{'SURVIVED' if alive else 'killed':8} {rel}:{line}:{column} {what}", flush=True)
    print(f"{len(found)} mutants: {len(found) - survived} killed, {survived} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
