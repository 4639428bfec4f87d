"""Store the outputs of the last runs as the expected values of their seeds.

    python3 perfbench/record_expected.py

Reads every untraced result in perfbench/work/results/ and writes
`accuracy_pct` and the output digest of each (workload, seed) that passed the
gate into perfbench/expected.json. An entry already there is never changed;
a result that disagrees with it is reported and the exit code is 1. Record
only from a commit whose outputs are known to be right: later runs of those
seeds must reproduce the values exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    path = HERE / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    added = conflicts = 0
    for result in sorted((HERE / "work" / "results").glob("*-t0.json")):
        data = json.loads(result.read_text(encoding="utf-8"))
        if not data["correct"]:
            continue
        info = data["info"]
        entry = {"accuracy_pct": data["metrics"]["accuracy_pct"]["value"], "digest": info["digest"]}
        seeds = expected.setdefault(info["workload"], {})
        stored = seeds.get(str(info["seed"]))
        if stored is None:
            seeds[str(info["seed"])] = entry
            added += 1
        elif stored != entry:
            print(f"conflict: {result.name} gives {entry}, stored {stored}")
            conflicts += 1
    path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{added} entries added to {path}, {conflicts} conflicts")
    return 1 if conflicts else 0


if __name__ == "__main__":
    raise SystemExit(main())
