"""What an import of normsim loads: the chat transport (`requests`) and the
process pool stay out until the chat oracle or a `jobs > 1` run needs them,
and each module loads only the normsim modules it imports."""
import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests

import normsim
from normsim import oracle
from test_oracle import CONFIG, action_request, completion, make_post

SRC = str(Path(normsim.__file__).resolve().parents[1])
ON_DEMAND = ("requests", "concurrent.futures", "multiprocessing")


def fresh_output(code: str) -> str:
    """What `code` prints in a fresh interpreter that imports normsim from SRC."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["normsim", "normsim.cli"])
def test_import_leaves_out_on_demand_modules(module):
    code = f"import sys, {module}; print([m for m in {ON_DEMAND!r} if m in sys.modules])"
    assert fresh_output(code) == "[]"


@pytest.mark.parametrize("module, loaded", [
    ("normsim", []),
    ("normsim.games", ["games"]),
    ("normsim.sanctions", ["games", "sanctions"]),
])
def test_import_loads_only_the_modules_it_needs(module, loaded):
    """The package root re-exports nothing, so the game layer imports without
    the village simulation."""
    code = (f"import sys, {module}; "
            "print(sorted(m[8:] for m in sys.modules if m.startswith('normsim.')))")
    assert fresh_output(code) == repr(loaded)


def test_chat_oracle_posts_with_requests_by_default(monkeypatch):
    monkeypatch.setenv(oracle.API_KEY_VAR, "sk-normsim-test-000")
    post, calls = make_post([completion('{"action": "peaches"}')])
    monkeypatch.setattr(requests, "post", post)
    resp = oracle.chat_oracle(action_request(), CONFIG, sleep=lambda s: None)
    assert resp.action == 2
    assert [url for url, _ in calls] == ["https://llm.example/v1/chat/completions"]
