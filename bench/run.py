"""The vcgame benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from anywhere; the checkout is the directory above this file, and the
library is imported from its ``src/``.  One run measures one workload:

* ``setup_s`` is the median time of ``import vcgame`` over several fresh
  interpreters, half of them before the workload and half after it (after
  one untimed import that writes the bytecode cache);
* the workload runs in its own fresh single-threaded worker process as a
  closed loop, after one untimed warm-up round (see ``worker.py``), and
  every item's output is checked.

``item_tail_s`` is the highest whole percentile of the item times with at
least ten items beyond it; on a workload whose rounds repeat the same items
it is taken over each item's median time across the rounds.

Times are reported in reference seconds: wall seconds corrected for the
host's speed, read from a fixed pure-Python probe timed next to them (see
``probe.py``).  The raw wall times are kept in the report.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
and the report above it gives the tracing overhead.  Reports and traces are
written to ``.bench_out/`` in the checkout.  ``--tiny`` shrinks every
workload's inputs for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog
from probe import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# a run must end within this many seconds
RUN_LIMIT_S = 175
# fresh interpreters timed for setup_s, half before the workload, half after
SETUP_REPEATS = 12
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def bench_env() -> dict:
    """Environment of every child: the checkout's library, one thread, and a
    fixed hash seed so that set and dict orders repeat between runs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update((var, "1") for var in THREAD_VARS)
    return env


def setup_samples(env: dict, repeats: int) -> list[tuple[float, float]]:
    """(wall seconds, probe seconds) of ``import vcgame`` in fresh interpreters."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py")], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        wall, probe = proc.stdout.split()
        samples.append((float(wall), float(probe)))
    return samples


def run_worker(args, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    # the worker leads its own process group, so that a timeout also stops
    # the CLI subprocesses it may be waiting for
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def per_item(durations: list[float], rounds: int) -> list[float]:
    """Each item's median over the rounds, for a workload whose rounds
    repeat the same items in the same order."""
    per_round = len(durations) // rounds
    return [statistics.median(durations[k::per_round]) for k in range(per_round)]


def tail(durations: list[float]) -> tuple[float, str, int]:
    """The highest whole percentile (nearest rank) with at least ten items
    beyond it, or the maximum when there are ten items or fewer."""
    xs = sorted(durations)
    n = len(xs)
    if n <= 10:
        return xs[-1], "max", 0
    p = 100 * (n - 10) // n
    rank = math.ceil(p * n / 100)
    return xs[rank - 1], f"p{p}", n - rank


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git checkout."""
    try:
        # the ceiling keeps git from answering for a repository above the checkout
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(worker: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "vcgame" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'vcgame'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = bench_env()
    half = 2 if args.tiny else SETUP_REPEATS // 2
    try:
        setup_samples(env, 1)  # writes the bytecode cache
        setup = setup_samples(env, half)
        worker = run_worker(args, env, RUN_LIMIT_S - 20 - (time.monotonic() - started))
        setup += setup_samples(env, half)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    items = worker["items"]
    if worker["repeats"]:
        tail_of = per_item(items, worker["rounds"])
        tail_what = f"{len(tail_of)} items' medians over {worker['rounds']} rounds"
    else:
        tail_of, tail_what = items, f"{len(items)} items"
    tail_s, tail_label, beyond = tail(tail_of)
    end_to_end = {
        "setup_s": statistics.median(wall * REFERENCE_S / probe for wall, probe in setup),
        "items_per_s": len(items) / sum(items),
        "item_p50_s": statistics.median(items),
        "item_tail_s": tail_s,
        "peak_rss_mib": worker["peak_rss_kib"] / 1024,
    }
    units = {name: unit for name, unit, _ in catalog.END_TO_END}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": environment(worker),
        "attempted": worker["attempted"], "failed": worker["failed"],
        "failed_ratio": worker["failed"] / worker["attempted"], "errors": worker["errors"],
        "setup_samples": [{"wall_s": w, "probe_s": p} for w, p in setup],
        "worker_import_s": worker["import_s"], "probes_s": worker["probes_s"],
        "warmup_s": worker["warmup_s"], "rounds": worker["rounds"], "items": len(items),
        "item_tail": {"percentile": tail_label, "of": tail_what, "items_beyond": beyond},
        "end_to_end": end_to_end, "item_durations_s": items,
        "raw_item_durations_s": worker["raw_items"],
    }
    print(f"workload {args.workload}  seed {args.seed}  {len(items)} items in "
          f"{worker['rounds']} rounds, closed loop, 1 worker process")
    if args.trace:
        layer_units = {name: (unit, moves) for name, unit, _, moves in catalog.per_layer()}
        metrics = {name: {"value": value, "unit": layer_units[name][0]}
                   for name, value in worker["per_layer"].items()}
        overhead = worker["traced_items_per_s"] / worker["untraced_items_per_s"]
        report.update(per_layer=worker["per_layer"], inputs=worker["inputs"],
                      trace_file=worker["trace_file"],
                      bench_item_self_s=worker["bench_item_self_s"],
                      traced_items_per_s=worker["traced_items_per_s"],
                      untraced_items_per_s=worker["untraced_items_per_s"])
        for name, value in worker["per_layer"].items():
            unit, moves = layer_units[name]
            if value:
                print(f"  {name:48s} {value:14.6g} {unit:7s} moves {catalog.describe_moves(moves)}")
        print(f"  (layers reading 0 are not called on {args.workload})")
        for name, value in worker["inputs"].items():
            if value:
                print(f"  input property {name:33s} {value:14.6g}")
        print(f"  benchmark's own time inside items: {worker['bench_item_self_s']:.6g} s/item")
        print(f"tracing overhead: traced {worker['traced_items_per_s']:.4g} items/s against "
              f"untraced {worker['untraced_items_per_s']:.4g} items/s on the same rounds "
              f"(ratio {overhead:.3f}); spans in {worker['trace_file']}")
    else:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in end_to_end.items()}
        notes = {
            "setup_s": f"median of {len(setup)} fresh imports",
            "items_per_s": f"{statistics.mean(worker['probes_s']) / REFERENCE_S:.3f} "
                           "wall s per reference s",
            "item_tail_s": f"{tail_label} of {tail_what}, {beyond} beyond it",
        }
        for name, value in end_to_end.items():
            print(f"  {name:14s} {value:12.6g} {units[name]:4s} {notes.get(name, '')}")
    print(f"  failed_ratio   {report['failed_ratio']:12.6g} ({worker['failed']} of "
          f"{worker['attempted']} items, warm-up included)")
    for error in worker["errors"]:
        print(f"  failure: {error}")
    print(f"environment: {json.dumps(report['environment'])}")
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": worker["failed"] == 0, "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
