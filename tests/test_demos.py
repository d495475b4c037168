"""Each demo script and the README's examples run to completion."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from emff.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_block(language):
    """The one fenced code block of the README in the given language."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1, f"README has {len(blocks)} {language} blocks"
    return blocks[0]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_examples_run(tmp_path):
    exec(compile(readme_block("python"), "README.md", "exec"), {})
    scenario = json.loads(readme_block("json"))
    scenario["sampling"]["time_samples"] = 24
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--scenario", str(path), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + len(scenario["grid"]["n_list"])
