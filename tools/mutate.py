"""Mutation check: does a pytest subset kill small changes to named functions?

    python tools/mutate.py cli._read_ints paths.plan torus.TorusSpec.directed_distance \
        --tests tests/test_torus.py tests/test_cli.py

Functions are named as module.qualname inside the torusham package.  Each
mutant changes one site of one function:
- a comparison flip: == and !=, < and <=, > and >=, is and is not, in and not in;
- a swap of + and -, or of * and //;
- an int constant plus or minus 1;
- one statement replaced by pass.
src/, tests/ and pyproject.toml are copied to a temporary directory, never
touched in the checkout.  Each mutant rewrites its module there and runs one
`pytest -x -q` subprocess over the tests; a failure or a run over TIMEOUT
seconds kills it.
Mutants listed in tools/equivalent_mutants.txt ("<id> # <reason>") cannot
change behaviour and are counted apart.  The exit status is 1 when a mutant
survives that the list does not explain.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = Path(__file__).resolve().parent / "equivalent_mutants.txt"
TIMEOUT = 180.0  # seconds per mutant
FLIPS = {ast.Eq: ast.NotEq, ast.Lt: ast.LtE, ast.Gt: ast.GtE, ast.Is: ast.IsNot, ast.In: ast.NotIn}
FLIPS.update({new: old for old, new in FLIPS.items()})
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult}
BODIES = ("body", "orelse", "finalbody")


def find(tree: ast.AST, qualname: str) -> ast.AST:
    for name in qualname.split("."):
        tree = next(n for n in tree.body if getattr(n, "name", None) == name)
    return tree


def sites(fn: ast.AST):
    """(walk index, line, col, description, edit) of each mutant of fn; edit changes that node."""
    for i, node in enumerate(ast.walk(fn)):
        at = (i, getattr(node, "lineno", fn.lineno) - fn.lineno, getattr(node, "col_offset", 0))
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    tag = f"[{j}]" if len(node.ops) > 1 else ""
                    yield *at, f"{tag}{type(op).__name__}->{FLIPS[type(op)].__name__}", (
                        lambda n, j=j: n.ops.__setitem__(j, FLIPS[type(n.ops[j])]())
                    )
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            yield *at, f"{type(node.op).__name__}->{SWAPS[type(node.op)].__name__}", (
                lambda n: setattr(n, "op", SWAPS[type(n.op)]())
            )
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for d in (1, -1):
                yield *at, f"{node.value}->{node.value + d}", lambda n, d=d: setattr(n, "value", n.value + d)
        for field in BODIES:
            stmts = getattr(node, field, None)  # a lambda's or an IfExp's body is one expression
            for j, stmt in enumerate(stmts if isinstance(stmts, list) else ()):
                docstring = node is fn and j == 0 and isinstance(stmt, ast.Expr)
                if isinstance(stmt, ast.stmt) and not docstring and not isinstance(stmt, ast.Pass):
                    line = stmt.lineno - fn.lineno
                    yield i, line, stmt.col_offset, f"delete-{type(stmt).__name__}", (
                        lambda n, field=field, j=j: getattr(n, field).__setitem__(j, ast.Pass())
                    )


def mutants(source: str, module: str, qualname: str):
    """(id, mutated module source) for each mutant of one function."""
    fn = find(ast.parse(source), qualname)
    start = min([fn.lineno] + [d.lineno for d in fn.decorator_list]) - 1
    lines = source.splitlines(keepends=True)
    for i, line, col, what, edit in list(sites(fn)):
        copy = find(ast.parse(source), qualname)
        edit(list(ast.walk(copy))[i])
        body = "".join(" " * fn.col_offset + s + "\n" for s in ast.unparse(copy).splitlines())
        yield f"{module}.{qualname}+{line}:{col} {what}", "".join(lines[:start]) + body + "".join(lines[fn.end_lineno :])


def run_tests(work: Path, tests: list[str]) -> bool:
    """True when the tests pass in the work tree; a timeout counts as a failure."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(work / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    child = subprocess.Popen(
        cmd, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    )
    try:
        return child.wait(TIMEOUT) == 0
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # pytest and the CLI processes its tests started
        child.wait()
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("functions", nargs="+", help="module.qualname, e.g. paths.plan")
    parser.add_argument("--tests", nargs="+", required=True, help="test files, relative to the repo root")
    args = parser.parse_args(argv)
    lines = EQUIVALENT.read_text().splitlines()
    known = {line.partition(" # ")[0].strip() for line in lines if line.strip() and not line.startswith("#")}
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        todo = []
        for name in args.functions:
            module, _, qualname = name.partition(".")
            path = work / "src" / "torusham" / f"{module}.py"
            todo += [(path, *m) for m in mutants(path.read_text(), module, qualname)]
        if not run_tests(work, args.tests):
            sys.exit("the tests fail without a mutant")
        counts = {"killed": 0, "equivalent": 0, "survived": 0}
        for path, mutant, text in todo:
            original = path.read_text()
            path.write_text(text)
            try:
                killed = not run_tests(work, args.tests)
            finally:
                path.write_text(original)
            verdict = "killed" if killed else "equivalent" if mutant in known else "survived"
            counts[verdict] += 1
            if killed and mutant in known:
                print(f"listed as equivalent but killed: {mutant}")
            print(f"{verdict:10} {mutant}", flush=True)
    print(", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
