"""The CI workflow and ROADMAP.md name the same tier-1 run, read as text."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_workflow_runs_the_roadmap_tier1_command_on_its_python():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command, python = re.search(r"^\*\*Tier-1 verify:\*\* `([^`\n]+)`\n\(.*?Python (\d+\.\d+)",
                                roadmap, re.M | re.S).groups()
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    runs = re.findall(r"^\s*(?:- )?run: (.+)$", workflow, re.M)
    versions = re.findall(r"^\s*python-version: ['\"]?([^'\"\s]+)['\"]?\s*$", workflow, re.M)
    assert runs[-1] == command
    assert versions == [python] == ["3.11"]
