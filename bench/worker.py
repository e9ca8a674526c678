"""Benchmark worker: runs one workload as a closed loop in a fresh process.

Started by ``run.py``, never by hand.  It times its own ``import vcgame``,
runs one untimed warm-up round, then whole rounds until ``--seconds`` have
passed; each item starts when the previous one has been checked.  Between
items it reads the host-speed probe, and item times are reported in
reference seconds (see ``probe.py``).  With ``--trace 1`` it runs untraced
rounds for half the time, then the same rounds again traced, and reports
per-layer figures from the traced half and the tracing overhead from the
pair.  It prints one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import catalog
from probe import SpeedTrace
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# least wall time between two probe readings
PROBE_INTERVAL_S = 0.2


class Phase:
    """Item durations and failures of a stretch of rounds, with the probe
    readings taken between its items."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.speed = SpeedTrace(PROBE_INTERVAL_S)

    def close(self) -> None:
        self.speed.close(len(self.raw))

    def durations(self) -> list[float]:
        """Item durations in reference seconds (see probe.py)."""
        return [d * f for d, f in zip(self.raw, self.speed.factors(len(self.raw)))]

    def items_per_s(self) -> float:
        return len(self.raw) / sum(self.durations())


def run_round(workload, index, tracer, phase: Phase) -> None:
    for item in workload.round(index):
        phase.speed.before(len(phase.raw))
        tracer.next_item()
        start = perf_counter()
        try:
            out = tracer.call("bench.item", item.work, tracer)
        except Exception as exc:  # an unexpected library error fails the item
            error = f"{type(exc).__name__}: {exc}"
        else:
            error = None
        phase.raw.append(perf_counter() - start)
        if error is None:
            try:
                error = item.check(out, tracer)
            except Exception as exc:  # a malformed output fails the item
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            phase.failed += 1
            if len(phase.errors) < 5:
                phase.errors.append(error)


def run_for(workload, seconds: float, tracer, phase: Phase) -> int:
    """Whole rounds until ``seconds`` of wall time have passed; the count."""
    gc.collect()
    end = perf_counter() + seconds
    rounds = 0
    while True:
        run_round(workload, rounds, tracer, phase)
        rounds += 1
        if perf_counter() >= end:
            phase.close()
            return rounds


def measure(workload, seconds: float, traced: bool, trace_path: Path) -> dict:
    null = NullTracer()
    warm = Phase()
    start = perf_counter()
    run_round(workload, "warmup", null, warm)
    out = {"warmup_s": perf_counter() - start}
    # Objects alive after the warm-up (interpreter, numpy, inputs, filled
    # caches) leave the collector's generations: a full collection then
    # scans what the timed items allocate, not the whole start-up heap.
    gc.collect()
    gc.freeze()
    phase = Phase()
    rounds = run_for(workload, seconds / 2 if traced else seconds, null, phase)
    phases = [warm, phase]
    if traced:
        tracer = Tracer()
        traced_phase = Phase()
        gc.collect()
        for index in range(rounds):
            run_round(workload, index, tracer, traced_phase)
        traced_phase.close()
        if hasattr(workload, "probes"):
            workload.probes(tracer, repeats=5)
        phases.append(traced_phase)
        # span times are converted to reference seconds at the traced
        # phase's mean factor
        scale = sum(traced_phase.durations()) / sum(traced_phase.raw)
        items = len(traced_phase.raw)
        out["per_layer"] = catalog.per_layer_values(tracer, items, scale)
        out["inputs"] = catalog.input_properties(tracer, items)
        out["bench_item_self_s"] = tracer.totals()["bench.item"]["self_s"] * scale / items
        out["untraced_items_per_s"] = phase.items_per_s()
        out["traced_items_per_s"] = traced_phase.items_per_s()
        tracer.write(trace_path)
        out["trace_file"] = str(trace_path)
    out.update(
        rounds=rounds,
        repeats=workload.repeats,
        items=phase.durations(),
        raw_items=phase.raw,
        probes_s=[p for _, p in phase.speed.marks],
        attempted=sum(len(p.raw) for p in phases),
        failed=sum(p.failed for p in phases),
        errors=[e for p in phases for e in p.errors][:5],
        peak_rss_kib=resource.getrusage(workload.rss_of).ru_maxrss,
    )
    gc.unfreeze()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    start = perf_counter()
    import vcgame
    import_s = perf_counter() - start
    if not Path(vcgame.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"vcgame was imported from {vcgame.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import numpy

    import workloads

    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.make(args.workload, args.seed, args.tiny, ROOT, Path(workdir))
        result = measure(workload, args.seconds, bool(args.trace), trace_path)
    result.update(import_s=import_s, numpy=numpy.__version__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
