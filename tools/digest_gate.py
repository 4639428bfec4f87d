"""Run every workload of the benchmark on seeds 1..10 and check each run's outputs.

    python3 tools/digest_gate.py --checkout .

For each workload in the checkout's `BENCHMARK.json` and each seed 1..10 it runs

    python3 perfbench/run.py --workload W --seed S --seconds 2 --trace 0

in the checkout and prints one line per run. It stops at the first run that is
not `correct`, has a failed record or has no stored expected values for its
seed, as `tools/bench_pairs.py` refuses such a run. Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).with_name("bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path("."), help="directory holding perfbench/ and src/")
    args = parser.parse_args(argv)
    spec = json.loads((args.checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in range(1, 11):
            line, info = bench_pairs.run_once(args.checkout, workload, seed, 2)
            print(
                f"{workload} seed {seed}: correct, {line['attempted']} records attempted, {line['failed']} failed, "
                f"expected_values {info['expected_values']}, digest {info.get('digest')}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
