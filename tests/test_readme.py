"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block under the README heading `section`."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.DOTALL).group(1)


def test_library_quick_start_runs(capsys):
    code = _python_block("Library quick start")
    exec(compile(code, "README.md", "exec"), {})
    # Each printed line is the one its comment in the block shows.
    shown = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.MULTILINE)
    assert capsys.readouterr().out.splitlines() == shown != []
