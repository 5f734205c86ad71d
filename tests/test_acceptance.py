"""The acceptance criteria through the same entry point as ``qtraj
selftest``, with their seeds, trajectory counts and bounds unchanged."""

import os
from pathlib import Path

import pytest
from test_cli import count_starts

from qtraj import acceptance


@pytest.mark.parametrize("cid", range(1, 12))
def test_criterion_passes(cid):
    result = acceptance.run_criteria([cid])[0]
    assert result.passed, result.detail


def fake_cli(code, name):
    """A stand-in for qtraj.cli.main that exits with code after writing a
    file named by name(threads) into its output directory."""
    def main(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir()
        (out / name(argv[argv.index("--threads") + 1])).write_text("0")
        return code
    return main


@pytest.mark.parametrize("code, name, detail", [
    (2, lambda threads: "a", "CLI run with --threads 1 exited with 2"),
    (0, lambda threads: threads, "output file sets differ between worker counts"),
], ids=["exit-code", "file-sets"])
def test_criterion_11_fails(monkeypatch, code, name, detail):
    monkeypatch.setattr("qtraj.cli.main", fake_cli(code, name))
    assert acceptance.criterion_11() == (False, detail)


def test_criterion_11_compares_an_in_process_run_with_two_workers(monkeypatch):
    started = count_starts(monkeypatch, 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert acceptance.criterion_11()[0]
    assert len(started) == 2
