"""The README's library example runs as written, and its example
spec and workload files load and run."""

import json
import re
from pathlib import Path

from mmreg import Schedule, check_all, run_simulation
from mmreg.cli import _load_workload
from mmreg.model import spec_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block under the README heading `section`."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.DOTALL).group(1)


def _json_block(section: str) -> str:
    """The first ```json block under the README subheading `section`."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n### {section}\n", 1)[1].split("\n#", 1)[0]
    return re.search(r"```json\n(.*?)```", body, re.DOTALL).group(1)


def test_library_quick_start_runs(capsys):
    code = _python_block("Library quick start")
    exec(compile(code, "README.md", "exec"), {})
    # Each printed line is the one its comment in the block shows.
    shown = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.MULTILINE)
    assert capsys.readouterr().out.splitlines() == shown != []


def test_spec_and_workload_examples_run(tmp_path):
    specs = [spec_from_dict(json.loads(line)) for line in _json_block("Spec files").splitlines()]
    assert len(specs) == 2
    path = tmp_path / "wl.json"
    path.write_text(_json_block("Workload files"))
    sim = run_simulation(specs[0], 1, _load_workload(path), Schedule("fair", seed=7))
    assert len(sim.ops) == 2
    assert check_all(sim.trace, t=1).ok
