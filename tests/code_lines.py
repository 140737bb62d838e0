"""Size of the package: total and code lines per ``src/`` module, the
names in ``__all__``, and the fields of each settings type, each a value a
user can set on its own.

A code line holds at least one token that is not a comment: blank lines,
comment lines and the lines of module, class and function docstrings are
not code. A string that is not a docstring counts on every line it spans.

Run from anywhere::

    python3 tests/code_lines.py

pytest does not collect this file.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "simulbeam"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise SystemExit(f"no __all__ in {PACKAGE / '__init__.py'}")


def settings_fields() -> dict[str, int]:
    # The package must import from this checkout, as the lines counted are.
    sys.path.insert(0, str(PACKAGE.parent))
    from simulbeam.core import SearchConfig, Vocabulary
    from simulbeam.harness import CorpusRecord, RunConfig
    from simulbeam.model import Block, ToyTransducerSpec
    from simulbeam.search import PolicyState

    return {cls.__name__: len(dataclasses.fields(cls))
            for cls in (RunConfig, SearchConfig, PolicyState, ToyTransducerSpec, CorpusRecord,
                        Vocabulary, Block)}


def main() -> int:
    total = code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines, module_code = len(text.splitlines()), code_lines(text)
        total += lines
        code += module_code
        print(f"{path.name:<16}{lines:>7}{module_code:>7}")
    print(f"{'total':<16}{total:>7}{code:>7}")
    print(f"__all__: {len(exported_names())} names")
    fields = settings_fields()
    counts = ", ".join(f"{name} {count}" for name, count in fields.items())
    print(f"settings fields: {counts}; {sum(fields.values())} in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
