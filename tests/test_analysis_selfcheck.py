"""Self-check: the analyzer over the repo's own code must be clean.

This is the same gate CI runs (``python -m avipack.analysis src
benchmarks examples``): zero active findings, with inline
``# avilint: disable=`` as the only escape hatch.
"""

from __future__ import annotations

import pathlib

import pytest

from avipack.analysis import AnalysisEngine

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GATED = ("src", "benchmarks", "examples")


@pytest.fixture(scope="module")
def result(monkeypatch_module):
    monkeypatch_module.chdir(REPO_ROOT)
    return AnalysisEngine().analyze_paths(
        [str(REPO_ROOT / tree) for tree in GATED])


@pytest.fixture(scope="module")
def monkeypatch_module():
    from _pytest.monkeypatch import MonkeyPatch

    patcher = MonkeyPatch()
    yield patcher
    patcher.undo()


def test_src_has_zero_active_findings(result):
    rendered = "\n".join(finding.render() for finding in result.findings)
    assert result.findings == [], f"active findings:\n{rendered}"
    assert result.errors == []
    assert result.clean


def test_src_analysis_covers_the_package(result):
    # Guard against the gate silently analyzing nothing.
    assert result.files_analyzed >= 100
