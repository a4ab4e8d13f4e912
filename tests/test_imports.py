"""What an import of normsim loads: the chat transport (`requests`) and the
process pool stay out until the chat oracle or a `jobs > 1` run needs them."""
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


@pytest.mark.parametrize("module", ["normsim", "normsim.cli"])
def test_import_leaves_out_on_demand_modules(module):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    code = f"import sys, {module}; print([m for m in {ON_DEMAND!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_chat_oracle_posts_with_requests_by_default(monkeypatch):
    monkeypatch.setenv(oracle.API_KEY_VAR, "sk-normsim-test-000")
    post, calls = make_post([completion('{"action": "peaches"}')])
    monkeypatch.setattr(requests, "post", post)
    resp = oracle.chat_oracle(action_request(), CONFIG, sleep=lambda s: None)
    assert resp.action == 2
    assert [url for url, _ in calls] == ["https://llm.example/v1/chat/completions"]
