"""The README's library example runs as written, and the public API it
states is the package's ``__all__``."""

from __future__ import annotations

import re
from pathlib import Path

import simulbeam

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_runs_and_states_the_public_api(monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(README.parent)
    exec(compile(example, str(README), "exec"), {})
    bleu, laal_ms, passes = capsys.readouterr().out.split()
    assert float(bleu) >= 0 and float(laal_ms) >= 0 and int(passes) > 0
    stated = section.split("The package root exports these 18 names:\n", 1)[1].split("\n\n")[0]
    assert sorted(simulbeam.__all__) == re.findall(r"`(\w+)`", stated)
