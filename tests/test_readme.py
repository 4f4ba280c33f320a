"""README's examples run as written, so a renamed field or a changed return
leaves no stale example behind."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def section_code(heading: str) -> str:
    """The first python block under a README heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_block_runs(capsys):
    namespace = {}
    exec(compile(section_code("## Library use"), str(README), "exec"), namespace)
    assert namespace["state"].termination in ("radius_floor", "max_iters")
    assert namespace["history"] and capsys.readouterr().out.strip()
