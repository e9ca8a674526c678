"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest bench/smoke.py

It runs every workload through ``run.py`` in both modes and checks that
every metric is printed with its unit, that ``BENCHMARK.json`` lists the
same metrics and workloads as ``catalog.py``, and that a deliberately wrong
library output is counted as a failed item.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import catalog  # noqa: E402


def run_bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_every_metric_is_printed(workload):
    text, result = run_bench(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _, _ in catalog.END_TO_END]
    for name, unit, _ in catalog.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert name in text
    assert "failed_ratio" in text and "environment:" in text

    text, result = run_bench(workload, 1)
    assert result["correct"] is True
    layers = catalog.per_layer()
    assert list(result["metrics"]) == [name for name, *_ in layers]
    for name, unit, _, _ in layers:
        assert result["metrics"][name]["unit"] == unit
    assert "tracing overhead" in text
    # every layer metric the catalog ties to this workload is measured on it
    for name, _, _, moves in layers:
        if any(w == workload for w, _ in moves):
            assert result["metrics"][name]["value"] > 0, name


def test_benchmark_json_matches_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        catalog.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in catalog.per_layer()]


def _plus_one(real):
    return lambda *args, **kwargs: real(*args, **kwargs) + 1


def _bigger_matching(real):
    def wrong(*args, **kwargs):
        nu, witness = real(*args, **kwargs)
        return nu + 1, witness
    return wrong


WRONG_OUTPUTS = {
    "forest-certify": ("check_pi_star", lambda real: lambda *args: False),
    "integral-tables": ("count_integral_pmas", _plus_one),
    "game-verdicts": ("matching_number", _bigger_matching),
}


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_wrong_output_raises_failed_ratio(workload, monkeypatch, tmp_path):
    import inputs
    import vcgame
    import worker
    import workloads

    if workload in WRONG_OUTPUTS:
        name, wrap = WRONG_OUTPUTS[workload]
        monkeypatch.setattr(vcgame, name, wrap(getattr(vcgame, name)))
    else:
        monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
        # every CLI run after the scheme build and the warm-up round prints
        # one byte more than its warm-up run did
        real = workloads.CliCommands.run
        runs = []

        def altered(self, args):
            proc = real(self, args)
            runs.append(args)
            if len(runs) > 1 + len(inputs.CLI_COMMANDS):
                proc.stdout += b"\n"
            return proc

        monkeypatch.setattr(workloads.CliCommands, "run", altered)
    bench = workloads.make(workload, 3, True, ROOT, tmp_path)
    result = worker.measure(bench, 0, False, tmp_path / "trace.jsonl")
    assert result["attempted"] > 0
    assert result["failed"] / result["attempted"] > 0
