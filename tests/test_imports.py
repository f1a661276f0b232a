"""Each entry point loads only the modules it runs, checked in a fresh interpreter."""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def loaded_after(code):
    """Names in sys.modules after `code` runs in a new interpreter."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_package_root_loads_no_submodule():
    loaded = loaded_after("import clarity_bench")
    assert "clarity_bench" in loaded
    assert not {m for m in loaded if m.startswith("clarity_bench.")}


def scipy_modules(loaded):
    return {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def test_cli_import_loads_no_scipy():
    loaded = loaded_after("import clarity_bench.cli")
    assert "clarity_bench.cli" in loaded
    assert not scipy_modules(loaded)


def test_generate_never_loads_scipy(tmp_path):
    out = tmp_path / "set"
    loaded = loaded_after(
        "import clarity_bench.cli as cli\n"
        f"assert cli.main(['generate', '--n', '1', '--seed', '3', '--out', {str(out)!r}]) == 0"
    )
    assert (out / "manifest.json").exists()
    assert "clarity_bench.scenes" in loaded
    assert not scipy_modules(loaded)
    assert "clarity_bench.harness" not in loaded


def test_score_and_report_never_load_scipy(tmp_path):
    out, scores = tmp_path / "set", tmp_path / "scores.csv"
    loaded = loaded_after(
        "import clarity_bench.cli as cli\n"
        f"assert cli.main(['generate', '--n', '1', '--seed', '3', '--out', {str(out)!r}]) == 0\n"
        f"assert cli.main(['score', '--dataset', {str(out / 'manifest.json')!r}, "
        f"'--out', {str(scores)!r}]) == 0\n"
        f"assert cli.main(['report', '--scores', {str(scores)!r}, '--paper-table']) == 0"
    )
    assert scores.exists()
    assert {"clarity_bench.harness", "clarity_bench.metrics"} <= loaded
    assert not scipy_modules(loaded)


def test_scorer_loads_no_render_module():
    # harness -> metrics -> hearing_aid share only audio with the renderer.
    loaded = loaded_after("import clarity_bench.harness")
    assert {"clarity_bench.harness", "clarity_bench.metrics", "clarity_bench.audio"} <= loaded
    render = {f"clarity_bench.{name}" for name in ("ambisonics", "room", "hrtf", "signals", "scenes")}
    assert not loaded & render
