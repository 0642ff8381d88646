"""Smoke test for the job scripts: each imports and parses ``--help``.

Every script under ``jobs/`` except the ``_session.py`` helper (which
each of them imports) is an entry point with a ``main()``. argparse
exits before a script builds its SparkSession, so no Spark is started;
a renamed harness function or a broken import fails here.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"


@pytest.mark.parametrize("script", sorted(p.name for p in JOBS.glob("[!_]*.py")))
def test_job_imports_and_prints_help(script, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(script[:-3], JOBS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [script, "--help"])
    with pytest.raises(SystemExit) as exit_:
        module.main()
    assert exit_.value.code == 0
    assert "usage:" in capsys.readouterr().out
