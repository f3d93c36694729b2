"""The README's library example runs as written, its example spec and
workload files load and run, and its CLI section names only options the
parser has."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from mmreg import Schedule, check_all, run_simulation
from mmreg.cli import _load_workload, build_parser
from mmreg.model import spec_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(heading: str) -> str:
    """The README text under `## heading`, up to the next such heading."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _python_block(section: str) -> str:
    """The first ```python block under the README heading `section`."""
    return re.search(r"```python\n(.*?)```", _section(section), re.DOTALL).group(1)


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


def test_cli_section_matches_the_parser():
    parser = build_parser()
    body = _section("CLI")
    for line in re.search(r"```sh\n(.*?)```", body, re.DOTALL).group(1).splitlines():
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README CLI example does not parse: {line}")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {flag for sub in subparsers.choices.values() for flag in sub._option_string_actions}
    prose = re.sub(r"```.*?```", "", body, flags=re.DOTALL)
    named = {flag for span in re.findall(r"`([^`]+)`", prose) for flag in re.findall(r"--[\w-]+", span)}
    assert named and named <= options, named - options
