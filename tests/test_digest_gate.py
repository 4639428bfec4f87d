"""tools/digest_gate.py: one line per run over every workload and seed of a
stand-in checkout, and a stop at the first run that is refused."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("digest_gate", ROOT / "tools" / "digest_gate.py")
digest_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digest_gate)

# Prints what perfbench/run.py prints; the run named by `bad` (workload, seed) gets `problem`.
FAKE_RUN = """\
import argparse, json
p = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(name)
a = p.parse_args()
assert (a.seconds, a.trace) == ("2", "0")
bad = (a.workload, int(a.seed)) == {bad!r}
line = {{"correct": True, "attempted": 30, "failed": 0, "metrics": {{}}}}
expected = "checked"
if bad and {problem!r} == "failed":
    line["failed"] = 3
if bad and {problem!r} == "incorrect":
    line["correct"] = False
if bad and {problem!r} == "unchecked":
    expected = "none stored for this seed"
print("# expected_values: " + expected)
print("# digest: " + a.workload + "-" + a.seed)
print(json.dumps(line))
"""


def checkout(path, bad=None, problem=None):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(FAKE_RUN.format(bad=bad, problem=problem), encoding="utf-8")
    benchmark = {"workloads": [{"name": "dense-k11"}, {"name": "bm25-20k"}]}
    (path / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    return path


def test_every_workload_and_seed_prints_one_line(tmp_path, capsys):
    assert digest_gate.main(["--checkout", str(checkout(tmp_path))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"{w} seed {s}: correct, 30 records attempted, 0 failed, expected_values checked, digest {w}-{s}"
        for w in ("dense-k11", "bm25-20k")
        for s in range(1, 11)
    ]


@pytest.mark.parametrize(
    "problem, message",
    [
        ("failed", "3 of 30 records failed"),
        ("incorrect", "the run's outputs failed their checks"),
        ("unchecked", "not checked against stored values (none stored for this seed)"),
    ],
)
def test_the_first_refused_run_stops_the_gate(tmp_path, capsys, problem, message):
    with pytest.raises(SystemExit, match=message.replace("(", r"\(").replace(")", r"\)")):
        digest_gate.main(["--checkout", str(checkout(tmp_path, ("bm25-20k", 2), problem))])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"dense-k11 seed {s}" for s in range(1, 11)] + ["bm25-20k seed 1"]
