"""Engine and CLI tests for avipack.analysis."""

from __future__ import annotations

import pytest

from avipack.analysis import AnalysisEngine, all_rules, rule_range
from avipack.analysis.cli import main
from avipack.errors import InputError

VIOLATION = (
    "def f(x):\n"
    "    raise ValueError('bad')\n"
)
CLEAN = (
    "from avipack.errors import InputError\n"
    "\n"
    "def f(x):\n"
    "    raise InputError('bad')\n"
)


def make_pkg(tmp_path, name_to_source):
    """Lay out sources under <tmp>/src/avipack/ and return the src dir."""
    pkg = tmp_path / "src" / "avipack"
    pkg.mkdir(parents=True)
    for name, source in name_to_source.items():
        (pkg / name).write_text(source)
    return tmp_path / "src"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_all_rules_registered():
    ids = [rule.rule_id for rule in all_rules()]
    assert ids == ["AVI002", "AVI003", "AVI006", "AVI008"]


def test_rule_range_is_derived_from_registry():
    assert rule_range() == "AVI002-AVI008"


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def test_engine_finds_violation(tmp_path, monkeypatch):
    src = make_pkg(tmp_path, {"bad.py": VIOLATION, "good.py": CLEAN})
    monkeypatch.chdir(tmp_path)
    result = AnalysisEngine().analyze_paths([str(src)])
    assert result.files_analyzed == 2
    assert [f.rule_id for f in result.findings] == ["AVI002"]
    assert result.findings[0].path == "src/avipack/bad.py"
    assert not result.clean


CALLER = (
    "from avipack.helper import save\n"
    "\n"
    "async def persist(path):\n"
    "    save(path)\n"
)
HELPER = (
    "import time\n"
    "\n"
    "def save(path):\n"
    "    time.sleep(0.1)\n"
)


def test_engine_follows_calls_across_files(tmp_path, monkeypatch):
    """The graph step links caller.py to helper.py: the async caller is
    flagged although its own file holds no blocking call."""
    src = make_pkg(tmp_path, {"caller.py": CALLER, "helper.py": HELPER})
    monkeypatch.chdir(tmp_path)
    result = AnalysisEngine().analyze_paths([str(src)])
    assert [f.rule_id for f in result.findings] == ["AVI008"]
    assert result.findings[0].path == "src/avipack/caller.py"
    assert "avipack.helper:save" in result.findings[0].message


def test_parse_error_reported_and_gates(tmp_path, monkeypatch):
    make_pkg(tmp_path, {"broken.py": "def f(:\n"})
    monkeypatch.chdir(tmp_path)
    result = AnalysisEngine().analyze_paths([str(tmp_path / "src")])
    assert result.errors and "broken.py" in result.errors[0]
    assert not result.clean


def test_discover_skips_pycache_and_non_python(tmp_path, monkeypatch):
    src = make_pkg(tmp_path, {"good.py": CLEAN})
    cache_dir = src / "avipack" / "__pycache__"
    cache_dir.mkdir()
    (cache_dir / "good.cpython-311.py").write_text(VIOLATION)
    (src / "avipack" / "notes.txt").write_text("not python")
    monkeypatch.chdir(tmp_path)
    files = AnalysisEngine.discover([str(src)])
    assert files == ["src/avipack/good.py"]


def test_discover_missing_path_raises():
    with pytest.raises(InputError):
        AnalysisEngine.discover(["no/such/path"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_exits_nonzero_on_violation(tmp_path, monkeypatch, capsys):
    src = make_pkg(tmp_path, {"bad.py": VIOLATION})
    monkeypatch.chdir(tmp_path)
    code = main([str(src)])
    out = capsys.readouterr().out
    assert code == 1
    assert "AVI002" in out


def test_cli_exits_zero_on_clean_tree(tmp_path, monkeypatch, capsys):
    src = make_pkg(tmp_path, {"good.py": CLEAN})
    monkeypatch.chdir(tmp_path)
    code = main([str(src)])
    assert code == 0
    assert "0 active" in capsys.readouterr().out


def test_cli_missing_path_is_usage_error(capsys):
    assert main(["no/such/path"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    listed = [line.split()[0]
              for line in capsys.readouterr().out.splitlines()]
    assert listed == ["AVI002", "AVI003", "AVI006", "AVI008"]


@pytest.mark.parametrize("option", [
    ["--format", "json"], ["--jobs", "2"], ["--baseline", "b.json"],
    ["--no-cache"], ["--write-baseline"],
])
def test_cli_accepts_only_paths_and_list_rules(option, tmp_path,
                                               monkeypatch, capsys):
    src = make_pkg(tmp_path, {"good.py": CLEAN})
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*option, str(src)])
    assert exc.value.code == 2
