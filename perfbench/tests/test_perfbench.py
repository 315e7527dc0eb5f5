"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *argv,
         "--seed", "3", "--seconds", "1", "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = smoke("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(sorted(result["metrics"])) == sorted(m["name"] for m in expected)
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        assert any(line.startswith(f"{metric['name']} ")
                   and line.split()[2] == metric["unit"] for line in lines[:-1])
    assert any(line.startswith("failed_frac 0 ratio") for line in lines)
    assert any(line.startswith("# env: ") for line in lines)


def test_wrong_result_is_counted_and_fails_the_run(monkeypatch, capsys):
    right = run.reference_positions

    def shifted(text, pattern):
        return [pos + 1 for pos in right(text, pattern)]

    monkeypatch.setattr(run, "reference_positions", shifted)
    code = run.main(["--workload", "occ-dna", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--smoke"])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code != 0
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    frac = next(line for line in lines if line.startswith("failed_frac "))
    assert float(frac.split()[1]) > 0


def test_distq_ldistq_disagreement_is_a_failure():
    class Outcome:
        def __init__(self, occurrences, windows):
            self.occurrences = occurrences
            self.stats = type("Stats", (), {})()
            self.stats.windows = windows
            self.stats.hashed_char_reads = windows * 3
            self.trace = None

    same = run.pair_mismatch(Outcome([1], 5), Outcome([1], 5), True)
    assert same == []
    assert run.pair_mismatch(Outcome([1], 5), Outcome([1], 6), False) == ["windows"]
    assert run.pair_mismatch(Outcome([1], 5), Outcome([2], 5), False) \
        == ["occurrences"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = smoke("--workload", "occ-dna", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
