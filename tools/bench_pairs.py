"""Run the benchmark in alternating parent/change pairs and write BENCH_<workload>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload bm25-20k \\
        --metric setup_s --seeds 10 --seconds 36 --claim "setup_s on bm25-20k falls: ..."

Each checkout is a directory holding `perfbench/` and `src/`; the two must be
separate copies. For each seed 1..N it runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

in both checkouts, one after the other: odd seeds parent first, even seeds
change first. A run that is not `correct`, has a failed record or has no
stored expected values for its seed stops the tool. A run slowed by other
load (its median speed probe more than MAX_PROBE_SPREAD times its fastest)
makes the tool print why and run that seed's pair again, both sides in the
same order, up to ATTEMPTS times in all; a third disturbed attempt stops
it. It prints every end-to-end metric's medians, quartiles and the number
of pairs in which the change is better (ties count for neither side), then
each side's median `outside_records_s` (the run info's time per round that
`run_setting` spends around its records), and writes the claimed metric's
summary and every pair to `BENCH_<workload>.json` in the change checkout; each
run in a pair keeps its `outside_records_s`, null when its info lacks it.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from itertools import count
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result line, run info) of one benchmark run in `checkout`; exits on a refused run."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=600 + 3 * seconds)
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"error: {checkout} seed {seed}: no result line\n{proc.stdout}{proc.stderr}") from None
    info = dict(text[2:].split(": ", 1) for text in lines if text.startswith("# ") and ": " in text)
    problem = refusal(line, info)
    if problem:
        raise SystemExit(f"error: {checkout} seed {seed}: {problem}\n{proc.stdout}{proc.stderr}")
    return line, info


def refusal(line: dict, info: dict) -> str | None:
    """Why a run (its result line and `# key: value` info) cannot stand in a pair, or None."""
    if line.get("correct") is not True:
        return "the run's outputs failed their checks"
    if line.get("failed") != 0:
        return f"{line.get('failed')} of {line.get('attempted')} records failed"
    if info.get("expected_values") != "checked":
        return f"the run's outputs were not checked against stored values ({info.get('expected_values')})"
    return None


# A run's `probe_s` info line gives the median and the fastest of its speed probes. Other
# load on the machine slows most probes but not the fastest, so the ratio rises: ten quiet
# dense-k11 `--seconds 10` runs on 2 cores read 1.06-1.15, and one beside a busy loop on
# the other core read 1.54 (296 records/s against 704-760 for the quiet ones). bm25-20k and
# mcq-stepback beside the same loop kept their speed and read 1.08 and 1.09.
MAX_PROBE_SPREAD = 1.3
_PROBE = re.compile(r"median ([0-9.]+), min ([0-9.]+)")


def disturbance(info: dict) -> str | None:
    """Why a run's `probe_s` info says other load slowed it, or None; a run that reports no probes passes."""
    probe = _PROBE.match(info.get("probe_s", ""))
    if probe and float(probe[1]) > MAX_PROBE_SPREAD * float(probe[2]):
        return (
            f"other load slowed the run: its median speed probe took {float(probe[1]) / float(probe[2]):.2f}x "
            f"its fastest, more than {MAX_PROBE_SPREAD}x ({info['probe_s']})"
        )
    return None


# Attempts at one seed's pair. Other load comes and goes, so a disturbed run is run
# again rather than thrown away with every pair measured before it; a machine that
# is busy for three attempts in a row is busy for the whole measurement.
ATTEMPTS = 3


OUTSIDE = "outside_records_s"  # run info: run_setting's own time per round, around its records


def run_pair(checkouts: dict[str, Path], workload: str, seed: int, seconds: float, metric: str) -> tuple[dict, dict]:
    """(pair, last run info) of `seed`: both sides, odd seeds parent first, the pair run again
    while a run is disturbed; exits on a refused run or on the last attempt's disturbed run."""
    order = ("parent", "change") if seed % 2 else ("change", "parent")
    for attempt in count(1):
        pair: dict = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side], info = run_once(checkouts[side], workload, seed, seconds)
            pair[side][OUTSIDE] = float(info[OUTSIDE]) if OUTSIDE in info else None
            problem = disturbance(info)
            if problem:
                break
            print(f"seed {seed} {side}: {metric} {value(pair[side], metric):.6g}", flush=True)
        else:
            return {key: pair[key] for key in ("seed", "first", "parent", "change")}, info
        where = f"{checkouts[side]} seed {seed}"
        if attempt == ATTEMPTS:
            raise SystemExit(f"error: {where}: {problem}")
        print(f"seed {seed}: running the pair again, attempt {attempt + 1} of {ATTEMPTS}: {where}: {problem}", flush=True)


def value(side: dict, metric: str) -> float:
    return side["metrics"][metric]["value"]


def summarize(pairs: list[dict], metric: str, better: str) -> dict:
    """The parent's median and quartiles, the change's median, and the pairs the change wins."""
    parent = [value(p["parent"], metric) for p in pairs]
    change = [value(p["change"], metric) for p in pairs]
    sign = 1 if better == "higher" else -1
    return {
        "metric": metric,
        "better": better,
        "parent_median": statistics.median(parent),
        "parent_quartiles": [statistics.quantiles(parent, n=4)[i] for i in (0, 2)],
        "change_median": statistics.median(change),
        "pairs_better": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "pairs": len(pairs),
    }


def report(pairs: list[dict], end_to_end: list[dict]) -> list[str]:
    """One line per end-to-end metric: each side's median and quartiles, and the pairs the change wins."""
    out = []
    for spec in end_to_end:
        s = summarize(pairs, spec["name"], spec["better"])
        change = [value(p["change"], spec["name"]) for p in pairs]
        cq = [statistics.quantiles(change, n=4)[i] for i in (0, 2)]
        rel = (s["change_median"] / s["parent_median"] - 1) * 100 if s["parent_median"] else float("nan")
        out.append(
            f"{spec['name']} ({spec['better']} is better): parent {s['parent_median']:.6g} "
            f"[{s['parent_quartiles'][0]:.6g}, {s['parent_quartiles'][1]:.6g}], change {s['change_median']:.6g} "
            f"[{cq[0]:.6g}, {cq[1]:.6g}] ({rel:+.1f}%), change better in {s['pairs_better']} of {s['pairs']} pairs"
        )
    return out


def outside_report(pairs: list[dict]) -> str:
    """Each side's median `outside_records_s`, or n/a for a side with a run whose info lacked it."""
    medians = []
    for side in ("parent", "change"):
        values = [p[side][OUTSIDE] for p in pairs]
        medians.append(f"{side} n/a" if None in values else f"{side} {statistics.median(values):.6g}")
    return f"{OUTSIDE} (median per round outside the records): {', '.join(medians)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", required=True, help="the claimed end-to-end metric")
    parser.add_argument("--claim", required=True, help="what the change claims, in words")
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N, one pair each")
    parser.add_argument("--seconds", type=float, default=36)
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2: quartiles need two runs")
    if args.parent.resolve() == args.change.resolve():
        parser.error("--parent and --change must be separate checkouts")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = spec["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    if args.metric not in better:
        parser.error(f"--metric must be one of {sorted(better)}")

    checkouts = {"parent": args.parent, "change": args.change}
    pairs, info = [], {}
    for seed in range(1, args.seeds + 1):
        pair, info = run_pair(checkouts, args.workload, seed, args.seconds, args.metric)
        pairs.append(pair)

    print("\n".join([*report(pairs, end_to_end), outside_report(pairs)]))
    seconds = f"{args.seconds:g}"
    bench = {
        "claim": args.claim,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S --seconds {seconds} --trace 0",
        "machine": (
            f"{info.get('nproc')} cores, Python {info.get('python')}, numpy {info.get('numpy')}; parent and change "
            "run from separate copies, alternating which runs first (odd seeds parent first)"
        ),
        "summary": summarize(pairs, args.metric, better[args.metric]),
        "pairs": pairs,
    }
    out = args.change / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
