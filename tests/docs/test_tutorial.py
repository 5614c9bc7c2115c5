"""The tutorial page's snippets must execute, in order, verbatim.

``docs/tutorial.md`` promises that every ``sh`` and ``python`` fenced
block on the page runs as written; this test extracts them and executes
each in document order inside one scratch directory (the environment the
page's conventions describe: ``PYTHONPATH`` on ``src/``, ``REPRO_ROOT``
at the checkout). A command or API
drifting under the tutorial fails tier-1, so the page cannot rot.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
TUTORIAL = REPO_ROOT / "docs" / "tutorial.md"

#: Fenced code blocks with a language tag; only sh/python are executable
#: (text/json fences are outputs or conventions, not commands).
_FENCE = re.compile(r"^```(\w+)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _executable_blocks() -> list[tuple[str, str]]:
    text = TUTORIAL.read_text(encoding="utf-8")
    return [
        (language, body)
        for language, body in _FENCE.findall(text)
        if language in ("sh", "python")
    ]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One scratch directory shared by every snippet, with a python shim
    so the page's plain ``python`` commands resolve to this interpreter."""
    path = tmp_path_factory.mktemp("tutorial")
    shim_dir = path / "bin"
    shim_dir.mkdir()
    shim = shim_dir / "python"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    shim.chmod(0o755)
    return path


def _snippet_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PATH"] = f"{workdir / 'bin'}{os.pathsep}{env.get('PATH', '')}"
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_ROOT"] = str(REPO_ROOT)
    # The tutorial manages its own store via --cache-dir; an ambient one
    # would silently change the cold run's counters.
    env.pop("REPRO_CACHE_DIR", None)
    return env


def test_tutorial_has_executable_snippets():
    blocks = _executable_blocks()
    assert len(blocks) >= 5, "tutorial lost its executable snippets"
    assert any(language == "sh" for language, _ in blocks)
    assert any(language == "python" for language, _ in blocks)


def test_tutorial_snippets_execute_in_order(workdir):
    env = _snippet_env(workdir)
    for index, (language, body) in enumerate(_executable_blocks()):
        if language == "sh":
            command = ["bash", "-ec", body]
        else:
            script = workdir / f"snippet_{index:02d}.py"
            script.write_text(body, encoding="utf-8")
            command = [sys.executable, str(script)]
        proc = subprocess.run(
            command,
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, (
            f"tutorial block {index} ({language}) failed "
            f"(exit {proc.returncode}):\n{body}\n"
            f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}"
        )

    # The walkthrough's promised artifacts all exist afterwards.
    assert (workdir / "scenario.json").is_file()
    assert list((workdir / "results").glob("*.csv"))
    assert (workdir / "results" / "tutorial-trajectory.csv").is_file()
    cold = json.loads((workdir / "dynamics-cold.json").read_text())
    warm = json.loads((workdir / "dynamics-warm.json").read_text())
    assert cold["cache"]["computed"] > 0
    assert warm["cache"]["computed"] == 0
