"""Count the lines of the package source by kind: code, docstring, comment, blank.

Usage: python scripts/src_lines.py [DIR]   (default: the repository's src/)

Every ``*.py`` file under DIR is read with ``ast``. A docstring is the leading
string of a module, class or function, and each line it spans counts as a
docstring line. Outside docstrings, an empty line is blank, a line whose text
starts with ``#`` is a comment, and every other line is code.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
SRC = Path(__file__).resolve().parents[1] / "src"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers (from 1) spanned by the docstrings in ``tree``."""
    lines: set[int] = set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """Lines of one source file by kind; ``total`` is their sum."""
    docstrings = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docstrings:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    counts["total"] = sum(counts.values())
    return counts


def count_tree(root: Path) -> dict[str, int]:
    totals = dict.fromkeys(("total", *KINDS), 0)
    for path in sorted(root.rglob("*.py")):
        for kind, n in count(path.read_text(encoding="utf-8")).items():
            totals[kind] += n
    return totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, default=SRC)
    args = parser.parse_args(argv)
    totals = count_tree(args.root)
    for kind in ("total", *KINDS):
        print(f"{kind:<10}{totals[kind]:>7,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
