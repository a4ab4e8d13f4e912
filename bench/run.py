#!/usr/bin/env python3
"""Layered benchmark for normsim.

    python3 bench/run.py --workload sanction_analysis --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # all three workloads, one process each

Run from anywhere inside a checkout; normsim is imported from the checkout's
`src/`, and the run fails (without a result line) when it is missing. Inputs
come from `--seed` alone. With `--trace 0` the run reports the end-to-end
metrics in BENCHMARK.json; with `--trace 1` it reports the per-layer metrics
and writes its spans under `.bench_out/traces/`. Every run stores its record
and results under `.bench_out/results/`. The last line of standard output is
one JSON object: correct, attempted, failed and metrics. See NOTES.md.
"""
from __future__ import annotations

import argparse
import importlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

from measure import run_record
from statistics import median
from workloads import SETUP_REPEATS, WORKLOADS, Run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MODULES = ("games", "sanctions", "institutions", "orchard", "agents", "oracle", "harness", "cli")


# Times the import of normsim in a fresh interpreter, rescaled by the speed
# probe samples taken there right before and after it.
IMPORT_CHILD = """\
import importlib, sys
from time import perf_counter
bench, src, *modules = sys.argv[1:]
sys.path[:0] = [bench, src]
from measure import SpeedProbe
probe = SpeedProbe()
t = perf_counter()
for m in modules:
    importlib.import_module("normsim." + m)
dt = perf_counter() - t
probe.sample()
print(dt * probe.factor(t, t + dt))
"""


def import_normsim() -> types.SimpleNamespace:
    """Import normsim from the checkout's src/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        modules = {m: importlib.import_module(f"normsim.{m}") for m in MODULES}
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import normsim from {src}: {exc}")
    found = Path(modules["cli"].__file__).resolve().parent.parent
    if found != src.resolve():
        raise SystemExit(f"bench: normsim was imported from {found}, not {src}")
    return types.SimpleNamespace(**modules)


def import_seconds() -> float:
    """Median over SETUP_REPEATS fresh interpreters of the rescaled import time."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CHILD, str(BENCH), str(ROOT / "src"), *MODULES],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: timed import of normsim failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return median(times)


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(name: str, out, record: dict) -> None:
    """Human-readable block: every metric with unit and sample count."""
    print(f"== {name}")
    print("record " + json.dumps(record, sort_keys=True))
    for metric, (value, unit) in out.metrics.items():
        alias = out.aliases.get(metric)
        label = f"{alias} [{metric}]" if alias else metric
        print(f"  {label:<58} {_fmt(value):>14} {unit:<6} n={out.samples[metric]}")
    for label, value, unit, n in out.extra:
        print(f"  {label:<58} {_fmt(value):>14} {unit:<6} n={n}")
    ratio = out.failed / out.attempted if out.attempted else 0.0
    print(f"  {'fail_ratio':<58} {ratio:>14.6g} {'':<6} ({out.failed} of {out.attempted})")
    for failure, count in out.failures.most_common():
        print(f"  failed x{count}: {failure}")
    print(f"  output digest {out.digest}")
    for problem in out.problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks {'passed' if not out.problems else 'FAILED'}")


def run_all(args) -> int:
    """Every workload in a process of its own, so that each reports its own
    peak RSS; the result lines merge under workload-prefixed metric names."""
    lines = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        *report_lines, last = proc.stdout.splitlines() or [""]
        print("\n".join(report_lines), flush=True)
        if proc.returncode != 0:
            raise SystemExit(f"bench: workload {name} exited with code {proc.returncode}")
        lines[name] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in lines.values()),
        "attempted": sum(r["attempted"] for r in lines.values()),
        "failed": sum(r["failed"] for r in lines.values()),
        "metrics": {f"{name}.{k}": v for name, r in lines.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    name = args.workload
    normsim = import_normsim()
    import_s = 0.0 if args.trace else import_seconds()
    for dirname in ("results", "traces"):
        (OUT / dirname).mkdir(parents=True, exist_ok=True)
    try:
        run = Run(normsim, OUT / "work" / name, args.seed, args.seconds, bool(args.trace), import_s)
        run.workdir.mkdir(parents=True, exist_ok=True)
        out = WORKLOADS[name](run)
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)

    record = run_record(ROOT, name, args.seed, args.seconds, args.trace)
    report(name, out, record)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    if out.tracer is not None:
        out.tracer.write(OUT / "traces" / f"{stem}.jsonl")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()}
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps(
            {
                "record": record,
                "metrics": {k: {**m, "samples": out.samples[k]} for k, m in metrics.items()},
                "extra": out.extra,
                "attempted": out.attempted,
                "failed": out.failed,
                "failures": dict(out.failures),
                "digest": out.digest,
                "problems": out.problems,
            },
            indent=2,
        )
        + "\n"
    )
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
