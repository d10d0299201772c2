"""Generated mutants of the member path, judged by `check all`.

    python3 tests/sweep_walk_mutants.py [--timeout SECONDS]

Run from the root of a checkout. It parses the modules named in TARGETS with
`ast` and mutates the code of the member path: in sequences, the one walk
that both the member suites (suites._grow) and
enumerate_neighborhood_sequences take (_anchor_choices, _next_row,
_reduced_column, _cut, the _Prefix class and the enumerator); in graphs,
build_cp_graph, all_pairs_distances and the lazy edge build
(LabeledGraph.__getattr__); in reduction, reducing_matrix and
congruence_reduce; in matrices, the lazy row build (IntMatrix.__getattr__).
A target is a top-level name or Class.method. The operators are those of
Offutt et al., "An experimental determination of sufficient mutant operators"
(TOSEM 1996): arithmetic swaps (+ and -, * and //), relational swaps (< and
<=, > and >=, == and !=, in and not in, is and is not), integer constant + 1
and a negated `if` or `while` test.

Each mutant changes one attribute of one node, and only that attribute is
restored afterwards: restoring whole nodes from a copy would detach the
nodes that later mutants point at. The mutated module is unparsed into a
fresh copy of the package, the other modules as they are, and
`python -m cpgraphs.cli check all` runs on it in a subprocess. A mutant is
killed when that run exits other than 0 or exceeds the timeout; the
survivors are printed, one a line, each after its module's file name, with
the counts last. It uses the standard library only, and pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import ast
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cpgraphs"
TARGETS = {
    "sequences.py": (
        "_anchor_choices",
        "_next_row",
        "_reduced_column",
        "_cut",
        "_Prefix",
        "enumerate_neighborhood_sequences",
    ),
    "graphs.py": ("LabeledGraph.__getattr__", "build_cp_graph", "all_pairs_distances"),
    "reduction.py": ("reducing_matrix", "congruence_reduce"),
    "matrices.py": ("IntMatrix.__getattr__",),
}
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}


def targets(tree: ast.Module, names):
    """(name, node) for each of `names` defined at the top of `tree`, a
    top-level name or Class.method."""
    for top in tree.body:
        named = [(top.name, top)] if hasattr(top, "name") else []
        if isinstance(top, ast.ClassDef):
            named += [(f"{top.name}.{f.name}", f) for f in top.body if hasattr(f, "name")]
        yield from ((name, node) for name, node in named if name in names)


def mutants(tree: ast.Module, names, lines: list[str]):
    """Yield (label, mutate, restore) for every mutation site in the targets
    `names` of `tree`, labelled by the target and the source line; mutate()
    changes one attribute of one node and restore() puts it back."""
    for name, top in targets(tree, names):
        for node in ast.walk(top):
            if not hasattr(node, "lineno"):
                continue
            where = f"{name}: {lines[node.lineno - 1].strip()} |"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
                yield _swap(node, "op", None, where)
            elif isinstance(node, ast.Compare):
                for i in range(len(node.ops)):
                    if type(node.ops[i]) in SWAPS:
                        yield _swap(node, "ops", i, where)
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                yield _set(node, "value", node.value + 1, where, f"{node.value} -> {node.value + 1}")
            elif isinstance(node, (ast.If, ast.While)):
                negated = ast.UnaryOp(ast.Not(), node.test)
                yield _set(node, "test", negated, where, f"not ({ast.unparse(node.test)})")


def _swap(node, field, index, where):
    old = getattr(node, field) if index is None else getattr(node, field)[index]
    new = SWAPS[type(old)]()

    def put(value):
        if index is None:
            setattr(node, field, value)
        else:
            getattr(node, field)[index] = value

    label = f"{where} {type(old).__name__} -> {type(new).__name__} in {ast.unparse(node)}"
    return label, lambda: put(new), lambda: put(old)


def _set(node, field, value, where, what):
    old = getattr(node, field)
    return f"{where} {what}", lambda: setattr(node, field, value), lambda: setattr(node, field, old)


def survives(module: str, source: str, timeout: float) -> bool:
    """Whether `check all` passes with this source as the module file `module`."""
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(tmp) / "cpgraphs"
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        (package / module).write_text(source)
        try:
            run = subprocess.run(
                [sys.executable, "-m", "cpgraphs.cli", "check", "all"],
                cwd=tmp, env={"PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"},
                capture_output=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return False
        return run.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per check run")
    args = parser.parse_args(argv)
    total = 0
    survivors = []
    for module, names in TARGETS.items():
        text = (PACKAGE / module).read_text()
        tree = ast.parse(text)
        if not survives(module, ast.unparse(tree), args.timeout):
            print(f"check all fails on the unmutated {module}", file=sys.stderr)
            return 2
        found = {name for name, _ in targets(tree, names)}
        if found != set(names):
            print(f"{module} defines no {sorted(set(names) - found)}", file=sys.stderr)
            return 2
        for label, mutate, restore in list(mutants(tree, names, text.splitlines())):
            mutate()
            try:
                source = ast.unparse(tree)
            finally:
                restore()
            total += 1
            if survives(module, source, args.timeout):
                survivors.append(f"{module}: {label}")
                print(survivors[-1], flush=True)
    print(f"{total} mutants, {total - len(survivors)} killed, {len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
