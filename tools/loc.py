"""Line counts of the probflow package, per module and in total.

For each module it prints two counts: every line (as ``wc -l`` counts
them), and the lines left once docstrings, comment lines and blank lines
are taken out.  A docstring is the leading string of a module, class or
function body.

Run from the repository root:

    python3 tools/loc.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def counts(source: str) -> tuple[int, int]:
    """(all lines, lines outside docstrings, comments and blank lines)."""
    doc: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = sum(
        1
        for i, line in enumerate(source.splitlines(), start=1)
        if i not in doc and line.strip() and not line.strip().startswith("#")
    )
    return source.count("\n"), code


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "probflow"
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        lines, code = counts(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{total_lines:>8}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
