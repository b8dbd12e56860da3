"""CLI behaviour: exit codes, formats, and cross-process determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.cli import main

SRC = str(Path(__file__).resolve().parents[2] / "src")

DIRTY = (
    "import random\n"
    "\n"
    "def order(graph, node):\n"
    "    return [n for n in graph.neighbors(node)]\n"
)


@pytest.fixture
def dirty_tree(tmp_path):
    """A small virtual ``repro`` package with known findings."""
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (package / "alpha.py").write_text(DIRTY)
    (package / "beta.py").write_text("import secrets\n_STATE = {}\n")
    return tmp_path / "repro"


def test_clean_tree_exits_zero(tmp_path, capsys):
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (package / "clean.py").write_text("X = (1, 2, 3)\n")
    assert main([str(tmp_path / "repro")]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out


def test_findings_exit_one_with_locations(dirty_tree, capsys):
    assert main([str(dirty_tree)]) == 1
    out = capsys.readouterr().out
    assert "alpha.py:1:1: REP003" in out
    assert "beta.py:2:1: REP007" in out


def test_rule_filter_restricts_output(dirty_tree, capsys):
    assert main([str(dirty_tree), "--rule", "REP007"]) == 1
    out = capsys.readouterr().out
    assert "REP007" in out
    assert "REP003" not in out


def test_unknown_rule_is_a_usage_error_naming_the_id(dirty_tree, capsys):
    assert main([str(dirty_tree), "--rule", "REP999"]) == 2
    err = capsys.readouterr().err
    assert "REP999" in err
    assert "known rules" in err


def test_missing_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "does-not-exist")]) == 2


def test_json_format_schema(dirty_tree, capsys):
    assert main([str(dirty_tree), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["files_checked"] == 2
    assert set(payload["counts"]) >= {"REP003", "REP007"}
    entry = payload["findings"][0]
    assert set(entry) == {"path", "line", "col", "rule", "message"}


def test_output_file(dirty_tree, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main([str(dirty_tree), "--format", "json", "--output", str(report)]) == 1
    assert capsys.readouterr().out == ""
    assert json.loads(report.read_text())["findings"]


def test_baseline_round_trip_through_the_cli(dirty_tree, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main([str(dirty_tree), "--write-baseline", str(baseline)]) == 0
    capsys.readouterr()
    assert main([str(dirty_tree), "--baseline", str(baseline)]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out


def test_list_rules_names_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    file_rules = (
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
        "REP007", "REP101", "REP102", "REP103",
    )
    listed = [line.split()[0] for line in out.splitlines()]
    assert listed == ["REP000", *file_rules]


def test_sarif_format_schema(dirty_tree, capsys):
    assert main([str(dirty_tree), "--format", "sarif"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.lint"
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert "REP103" in rule_ids
    result = run["results"][0]
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("alpha.py")
    assert location["region"]["startLine"] >= 1


def test_github_format_emits_error_annotations(dirty_tree, capsys):
    assert main([str(dirty_tree), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert ",title=REP003::" in out


def _run_git(cwd: Path, *arguments: str) -> None:
    subprocess.run(
        ["git", "-c", "user.email=l@i.nt", "-c", "user.name=lint", *arguments],
        cwd=cwd,
        check=True,
        capture_output=True,
    )


def test_changed_only_scopes_the_file_pass(tmp_path, monkeypatch, capsys):
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (package / "committed.py").write_text("import random\n")
    _run_git(tmp_path, "init", "-q")
    _run_git(tmp_path, "add", ".")
    _run_git(tmp_path, "commit", "-qm", "seed")
    (package / "fresh.py").write_text("import secrets\n")
    monkeypatch.chdir(tmp_path)
    assert main(["repro", "--changed-only"]) == 1
    out = capsys.readouterr().out
    assert "fresh.py" in out
    assert "committed.py" not in out


def test_changed_only_outside_git_is_a_usage_error(tmp_path, monkeypatch, capsys):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "x.py").write_text("X = 1\n")
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-such-git-dir"))
    monkeypatch.chdir(tmp_path)
    assert main(["repro", "--changed-only"]) == 2
    assert "--changed-only" in capsys.readouterr().err


def _cli_report(tree: Path, hash_seed: str, fmt: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(tree), "--format", fmt],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 1, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
def test_output_is_identical_across_hash_seeds(dirty_tree, fmt):
    """The analyzer holds itself to its own standard: byte-identical
    text/JSON/SARIF reports under different ``PYTHONHASHSEED`` salts."""
    first = _cli_report(dirty_tree, "0", fmt)
    second = _cli_report(dirty_tree, "1", fmt)
    third = _cli_report(dirty_tree, "12345", fmt)
    assert first == second == third
