"""Raise-site guard: every ``raise`` statement in ``src/simulbeam`` runs in
tier-1, under a deterministic test.

The script finds each ``raise`` statement of the package with ``ast``, then
runs the tier-1 suite in this process under ``sys.settrace``, tracing only
the package's own frames. Hypothesis runs only its explicit examples, so a
site that only a random draw reaches counts as never run. It lists each site
that never ran and exits 1 if there is one, else 0; a failing suite exits 1
too.

Run from anywhere::

    python3 tests/raise_sites.py

pytest does not collect this file.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "simulbeam"


def raise_sites() -> dict[str, list[int]]:
    """The first line of every ``raise`` statement, per module path."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites[str(path)] = sorted(node.lineno for node in ast.walk(tree)
                                  if isinstance(node, ast.Raise))
    return sites


class ExplicitExamplesOnly:
    """A pytest plugin that limits Hypothesis to its explicit examples. It
    loads the profile once pytest has loaded Hypothesis's own plugin, and
    before any test module is imported."""

    def pytest_configure(self, config) -> None:
        from hypothesis import Phase, settings

        settings.register_profile("explicit-examples", phases=[Phase.explicit])
        settings.load_profile("explicit-examples")


def main() -> int:
    sites = raise_sites()
    reached: set[tuple[str, int]] = set()

    def lines(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename in sites else None

    # The package must import from this checkout, under the paths ``ast`` read.
    sys.path.insert(0, str(ROOT / "src"))
    import simulbeam

    if Path(simulbeam.__file__).parent != PACKAGE:
        raise SystemExit(f"simulbeam imports from {simulbeam.__file__}, not from {PACKAGE}")
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                              str(ROOT / "tests")],
                             plugins=[ExplicitExamplesOnly()])
    finally:
        sys.settrace(None)
    missed = [(path, line) for path, found in sites.items() for line in found
              if (path, line) not in reached]
    total = sum(map(len, sites.values()))
    for path, line in missed:
        print(f"never raised under tier-1: {Path(path).relative_to(ROOT)}:{line}")
    print(f"{total - len(missed)} of {total} raise sites reached")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
