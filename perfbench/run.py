"""ragmark benchmark: seeded synthetic inputs through the evaluate path.

    python3 perfbench/run.py --workload dense-k11 --seed 1 --seconds 36 --trace 0

Run from the repository root. It generates the workload's inputs from the
seed, runs `evaluation.run_setting` on them, checks the outputs and prints
every metric by name and unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones of a traced run. A run whose outputs fail the checks prints
`"correct": false` and exits with code 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"


def _import_program():
    """Import ragmark from this checkout's sources, never from anywhere else."""
    if not (SRC / "ragmark" / "__init__.py").is_file():
        raise SystemExit(f"error: no ragmark sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ragmark

    if Path(ragmark.__file__).resolve().parent != SRC / "ragmark":
        raise SystemExit(f"error: ragmark imported from {ragmark.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    import numpy

    import harness

    w = WORKLOADS[args.workload]
    data_dir = WORK / f"{w.name}-s{args.seed}"
    if data_dir.exists():
        shutil.rmtree(data_dir)
    # A separate process, so generation does not count in this one's peak RSS.
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", w.name, "--seed", str(args.seed),
         "--out", str(data_dir / "data"), "--src", str(SRC)],
        check=True,
        timeout=170,
    )
    manifest = json.loads((data_dir / "data" / "manifest.json").read_text(encoding="utf-8"))
    stored = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    expected = stored.get(w.name, {}).get(str(args.seed))
    try:
        if args.trace:
            results = WORK / "results"
            results.mkdir(parents=True, exist_ok=True)
            trace_path = results / f"{w.name}-s{args.seed}-trace.jsonl"
            result = harness.measure_traced(w, data_dir / "data", data_dir, manifest, expected, trace_path)
        else:
            result = harness.measure(w, data_dir / "data", data_dir, args.seconds, manifest, expected)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    info = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "max_workers": harness.MAX_WORKERS,
        **result.info,
        "expected_values": "checked" if expected else "none stored for this seed",
    }
    for key, value in info.items():
        print(f"# {key}: {value}")
    for problem in result.problems:
        print(f"# GATE FAILED: {problem}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(result.metrics):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(result.metrics))} differ from BENCHMARK.json")
    for name, value in result.metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result.metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**line, "info": info, "problems": result.problems, "samples": result.samples}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(line))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
