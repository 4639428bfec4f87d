"""tools/bench_pairs.py: the summary of canned result lines, the refusal of a
run that failed, was not checked or was slowed by other load, a whole run
over two stand-in checkouts with each side's `outside_records_s`, a pair run
again after a disturbed run, and a stopped run's whole pairs kept in a side
file that a rerun of the same arguments goes on from."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def line(setup_s, records_per_s=100.0, correct=True, failed=0):
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}, "records_per_s": {"value": records_per_s, "unit": "1/s"}}
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


# Parent setup_s 0.40 .. 0.49; the change is lower in 7 pairs, higher in 2 and tied in 1.
PARENT = [0.40, 0.41, 0.42, 0.43, 0.44, 0.45, 0.46, 0.47, 0.48, 0.49]
CHANGE = [0.30, 0.31, 0.32, 0.33, 0.34, 0.35, 0.36, 0.50, 0.50, 0.49]
PAIRS = [
    {"seed": s, "first": "parent" if s % 2 else "change", "parent": line(p, 100.0), "change": line(c, 100.0 + s % 3 - 1)}
    for s, p, c in zip(range(1, 11), PARENT, CHANGE)
]


def test_summary_of_canned_lines():
    assert bench_pairs.summarize(PAIRS, "setup_s", "lower") == {
        "metric": "setup_s",
        "better": "lower",
        "parent_median": pytest.approx(0.445),
        "parent_quartiles": [pytest.approx(0.4175), pytest.approx(0.4725)],
        "change_median": pytest.approx(0.345),
        "pairs_better": 7,
        "pairs": 10,
    }


def test_ties_count_for_neither_side():
    # records_per_s: the change is 100 + (seed % 3) - 1, so higher in 3 pairs, lower in 3 and tied in 4.
    assert bench_pairs.summarize(PAIRS, "records_per_s", "higher")["pairs_better"] == 3
    lower = [{**p, "change": line(1.0, 99.0 + (p["seed"] % 3 == 0))} for p in PAIRS]  # 7 lower, 3 tied
    assert bench_pairs.summarize(lower, "records_per_s", "lower")["pairs_better"] == 7


def test_report_prints_every_metric():
    out = bench_pairs.report(PAIRS, [{"name": "setup_s", "better": "lower"}, {"name": "records_per_s", "better": "higher"}])
    assert out[0].startswith("setup_s (lower is better): parent 0.445 [0.4175, 0.4725], change 0.345 ")
    assert out[0].endswith("(-22.5%), change better in 7 of 10 pairs")
    assert out[1].endswith("change better in 3 of 10 pairs")


CHECKED = {"expected_values": "checked"}


def test_a_failed_incorrect_or_unchecked_run_is_refused():
    assert bench_pairs.refusal(line(0.4), CHECKED) is None
    assert "failed their checks" in bench_pairs.refusal(line(0.4, correct=False), CHECKED)
    assert bench_pairs.refusal(line(0.4, failed=2), CHECKED) == "2 of 10 records failed"
    unchecked = bench_pairs.refusal(line(0.4), {"expected_values": "none stored for this seed"})
    assert unchecked == "the run's outputs were not checked against stored values (none stored for this seed)"
    assert "not checked" in bench_pairs.refusal(line(0.4), {})


# `probe_s` lines of ten quiet dense-k11 `--seconds 10` runs on 2 cores, and of one run
# with a busy loop on the other core, which read 296 records/s against 704-760.
QUIET_PROBES = [
    "median 0.01135, min 0.00990, max 0.06157 (nominal 0.01)",
    "median 0.01062, min 0.00992, max 0.02119 (nominal 0.01)",
    "median 0.01036, min 0.00974, max 0.02223 (nominal 0.01)",
    "median 0.01070, min 0.00991, max 0.02189 (nominal 0.01)",
    "median 0.01068, min 0.00962, max 0.02102 (nominal 0.01)",
    "median 0.01073, min 0.00997, max 0.02346 (nominal 0.01)",
    "median 0.01051, min 0.00954, max 0.02609 (nominal 0.01)",
    "median 0.01010, min 0.00953, max 0.01897 (nominal 0.01)",
    "median 0.01006, min 0.00905, max 0.01840 (nominal 0.01)",
    "median 0.01062, min 0.00944, max 0.02403 (nominal 0.01)",
]
DISTURBED_PROBE = "median 0.01336, min 0.00869, max 0.03274 (nominal 0.01)"


def test_a_run_slowed_by_other_load_is_refused():
    for probe in QUIET_PROBES:
        assert bench_pairs.disturbance({**CHECKED, "probe_s": probe}) is None
    problem = bench_pairs.disturbance({**CHECKED, "probe_s": DISTURBED_PROBE})
    assert problem == f"other load slowed the run: its median speed probe took 1.54x its fastest, more than 1.3x ({DISTURBED_PROBE})"
    assert bench_pairs.disturbance(CHECKED) is None  # a run that reports no probes is not refused for them


FAKE_RUN = """\
import argparse, json
p = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(name)
a = p.parse_args()
seed = int(a.seed)
setup = {setups}[seed - 1]
print("# nproc: 2")
print("# python: 3.11.7")
print("# numpy: 2.0.0")
print("# expected_values: {expected}")
print("# probe_s: {probe}")
{outside_line}
print(json.dumps({{"correct": True, "attempted": 10, "failed": {failed}, "metrics": {{
    "setup_s": {{"value": setup, "unit": "s"}}, "records_per_s": {{"value": 100.0, "unit": "1/s"}}}}}}))
"""


# The stand-in's `outside_records_s` per seed; `outsides=None` leaves the info line out.
OUTSIDES = [0.0046, 0.0044, 0.0048, 0.0045]


def checkout(path, setups, failed=0, expected="checked", probe=QUIET_PROBES[0], outsides=OUTSIDES):
    (path / "perfbench").mkdir(parents=True)
    outside_line = "" if outsides is None else f'print("# outside_records_s:", {outsides}[seed - 1])'
    run = FAKE_RUN.format(setups=setups, failed=failed, expected=expected, probe=probe, outside_line=outside_line)
    (path / "perfbench" / "run.py").write_text(run, encoding="utf-8")
    benchmark = {"end_to_end": [{"name": "records_per_s", "better": "higher"}, {"name": "setup_s", "better": "lower"}]}
    (path / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    return path


def test_a_whole_run_writes_the_committed_format(tmp_path, capsys):
    parent, change = checkout(tmp_path / "parent", PARENT[:4]), checkout(tmp_path / "change", CHANGE[:4])
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "bm25-20k", "--metric", "setup_s",
            "--claim", "setup_s falls", "--seeds", "4", "--seconds", "2"]
    assert bench_pairs.main(argv) == 0
    bench = json.loads((change / "BENCH_bm25-20k.json").read_text(encoding="utf-8"))
    assert list(bench) == ["claim", "command", "machine", "summary", "pairs"]
    assert bench["command"] == "python3 perfbench/run.py --workload bm25-20k --seed S --seconds 2 --trace 0"
    assert bench["machine"].startswith("2 cores, Python 3.11.7, numpy 2.0.0; ")
    assert bench["summary"] == bench_pairs.summarize(bench["pairs"], "setup_s", "lower")
    assert bench["summary"]["pairs_better"] == 4
    assert [(p["seed"], p["first"]) for p in bench["pairs"]] == [(1, "parent"), (2, "change"), (3, "parent"), (4, "change")]
    assert [list(p) for p in bench["pairs"]] == [["seed", "first", "parent", "change"]] * 4
    out = capsys.readouterr().out
    assert "records_per_s (higher is better)" in out and "setup_s (lower is better)" in out


def test_each_run_keeps_its_outside_records_s_and_each_side_prints_its_median(tmp_path, capsys):
    parent = checkout(tmp_path / "parent", PARENT[:4])
    change = checkout(tmp_path / "change", CHANGE[:4], outsides=[0.0005, 0.0004, 0.0006, 0.0004])
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w", "--metric", "setup_s",
            "--claim", "c", "--seeds", "4", "--seconds", "1"]
    assert bench_pairs.main(argv) == 0
    bench = json.loads((change / "BENCH_w.json").read_text(encoding="utf-8"))
    assert [p["parent"]["outside_records_s"] for p in bench["pairs"]] == OUTSIDES
    assert [p["change"]["outside_records_s"] for p in bench["pairs"]] == [0.0005, 0.0004, 0.0006, 0.0004]
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3].startswith("setup_s (lower is better): ")  # after the metric lines, before the file's name
    assert lines[-2] == "outside_records_s (median per round outside the records): parent 0.00455, change 0.00045"
    assert lines[-1].startswith("wrote ")


def test_a_run_whose_info_lacks_outside_records_s_reads_n_a(tmp_path, capsys):
    parent, change = checkout(tmp_path / "parent", PARENT[:2]), checkout(tmp_path / "change", CHANGE[:2], outsides=None)
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w", "--metric", "setup_s",
            "--claim", "c", "--seeds", "2", "--seconds", "1"]
    assert bench_pairs.main(argv) == 0
    bench = json.loads((change / "BENCH_w.json").read_text(encoding="utf-8"))
    assert [p["change"]["outside_records_s"] for p in bench["pairs"]] == [None, None]
    assert [p["parent"]["outside_records_s"] for p in bench["pairs"]] == OUTSIDES[:2]
    out = capsys.readouterr().out
    assert "outside_records_s (median per round outside the records): parent 0.0045, change n/a\n" in out


def test_a_run_with_a_failed_record_stops_the_tool(tmp_path):
    parent, change = checkout(tmp_path / "parent", PARENT[:2]), checkout(tmp_path / "change", CHANGE[:2], failed=1)
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w", "--metric", "setup_s",
            "--claim", "c", "--seeds", "2", "--seconds", "1"]
    with pytest.raises(SystemExit, match="1 of 10 records failed"):
        bench_pairs.main(argv)
    assert not (change / "BENCH_w.json").exists()


def test_a_run_without_stored_expected_values_stops_the_tool(tmp_path):
    parent = checkout(tmp_path / "parent", PARENT[:2], expected="none stored for this seed")
    change = checkout(tmp_path / "change", CHANGE[:2])
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w", "--metric", "setup_s",
            "--claim", "c", "--seeds", "2", "--seconds", "1"]
    with pytest.raises(SystemExit, match="not checked against stored values"):
        bench_pairs.main(argv)
    assert not (change / "BENCH_w.json").exists()


def test_a_run_slowed_by_other_load_stops_the_tool(tmp_path):
    parent = checkout(tmp_path / "parent", PARENT[:2], probe=DISTURBED_PROBE)
    change = checkout(tmp_path / "change", CHANGE[:2])
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w", "--metric", "setup_s",
            "--claim", "c", "--seeds", "2", "--seconds", "1"]
    with pytest.raises(SystemExit, match="parent seed 1: other load slowed the run"):
        bench_pairs.main(argv)
    assert not (change / "BENCH_w.json").exists()


def disturbed_once(path, setups):
    """A stand-in checkout whose first run reports a disturbed speed probe and every later run a quiet one."""
    checkout(path, setups)
    run = path / "perfbench" / "run.py"
    quiet_line = f'print("# probe_s: {QUIET_PROBES[0]}")'
    flaky_line = (
        f"import pathlib\nflag = pathlib.Path({str(path / 'disturbed')!r})\n"
        f'print("# probe_s: " + ({QUIET_PROBES[0]!r} if flag.exists() else {DISTURBED_PROBE!r}))\nflag.touch()'
    )
    run.write_text(run.read_text(encoding="utf-8").replace(quiet_line, flaky_line), encoding="utf-8")
    return path


def test_a_pair_with_a_disturbed_run_is_run_again(tmp_path, capsys):
    parent, change = disturbed_once(tmp_path / "parent", PARENT[:4]), checkout(tmp_path / "change", CHANGE[:4])
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w", "--metric", "setup_s",
            "--claim", "c", "--seeds", "4", "--seconds", "1"]
    assert bench_pairs.main(argv) == 0
    bench = json.loads((change / "BENCH_w.json").read_text(encoding="utf-8"))
    assert [(p["seed"], p["first"]) for p in bench["pairs"]] == [(1, "parent"), (2, "change"), (3, "parent"), (4, "change")]
    assert [p["parent"]["metrics"]["setup_s"]["value"] for p in bench["pairs"]] == PARENT[:4]
    lines = capsys.readouterr().out.splitlines()
    # Seed 1's parent run was disturbed: nothing of it is printed, the change has not run, and the pair runs again.
    assert lines[0].startswith(f"seed 1: running the pair again, attempt 2 of 3: {parent} seed 1: other load slowed the run")
    assert lines[1:3] == ["seed 1 parent: setup_s 0.4", "seed 1 change: setup_s 0.3"]
    assert sum("running the pair again" in line for line in lines) == 1


def test_a_run_refused_for_its_outputs_stops_the_tool_even_after_a_rerun(tmp_path):
    parent = disturbed_once(tmp_path / "parent", PARENT[:2])
    change = checkout(tmp_path / "change", CHANGE[:2], expected="none stored for this seed")
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w", "--metric", "setup_s",
            "--claim", "c", "--seeds", "2", "--seconds", "1"]
    with pytest.raises(SystemExit, match="change seed 1: the run's outputs were not checked"):
        bench_pairs.main(argv)
    assert not (change / "BENCH_w.json").exists()


def disturbed_at_seed_3(path, setups):
    """A stand-in checkout that logs each seed it runs and reports a disturbed speed probe at seed 3
    until a file named `quiet` is made in it."""
    checkout(path, setups)
    run = path / "perfbench" / "run.py"
    quiet_line = f'print("# probe_s: {QUIET_PROBES[0]}")'
    flaky_line = (
        f"import pathlib\nroot = pathlib.Path({str(path)!r})\n"
        "with (root / 'runs.log').open('a') as log:\n    log.write(f'{seed}\\n')\n"
        f"disturbed = seed == 3 and not (root / 'quiet').exists()\n"
        f'print("# probe_s: " + ({DISTURBED_PROBE!r} if disturbed else {QUIET_PROBES[0]!r}))'
    )
    run.write_text(run.read_text(encoding="utf-8").replace(quiet_line, flaky_line), encoding="utf-8")
    return path


def runs_of(path):
    return [int(s) for s in (path / "runs.log").read_text(encoding="utf-8").split()]


def interrupted_at_seed_3(tmp_path):
    """Two stand-in checkouts and a four-seed run of them that stopped at seed 3's third disturbed attempt."""
    parent, change = disturbed_at_seed_3(tmp_path / "parent", PARENT[:4]), checkout(tmp_path / "change", CHANGE[:4])
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w", "--metric", "setup_s",
            "--claim", "c", "--seeds", "4", "--seconds", "1"]
    with pytest.raises(SystemExit, match="parent seed 3: other load slowed the run"):
        bench_pairs.main(argv)
    return parent, change, argv


def test_a_third_disturbed_attempt_keeps_the_whole_pairs_before_it(tmp_path):
    parent, change, _ = interrupted_at_seed_3(tmp_path)
    assert runs_of(parent) == [1, 2, 3, 3, 3]  # seed 3 runs parent first: the change never ran it
    assert not (change / "BENCH_w.json").exists()
    kept = json.loads((change / "BENCH_w.partial.json").read_text(encoding="utf-8"))
    assert [(p["seed"], p["first"]) for p in kept["pairs"]] == [(1, "parent"), (2, "change")]
    assert [p["parent"]["metrics"]["setup_s"]["value"] for p in kept["pairs"]] == PARENT[:2]
    assert [p["change"]["metrics"]["setup_s"]["value"] for p in kept["pairs"]] == CHANGE[:2]


def test_a_rerun_goes_on_at_the_next_seed_and_deletes_the_side_file(tmp_path, capsys):
    parent, change, argv = interrupted_at_seed_3(tmp_path)
    (parent / "quiet").touch()
    capsys.readouterr()
    assert bench_pairs.main(argv) == 0
    assert runs_of(parent) == [1, 2, 3, 3, 3, 3, 4]  # the rerun ran seeds 3 and 4 only
    bench = json.loads((change / "BENCH_w.json").read_text(encoding="utf-8"))
    assert [(p["seed"], p["first"]) for p in bench["pairs"]] == [(1, "parent"), (2, "change"), (3, "parent"), (4, "change")]
    assert [p["parent"]["metrics"]["setup_s"]["value"] for p in bench["pairs"]] == PARENT[:4]
    assert [p["change"]["metrics"]["setup_s"]["value"] for p in bench["pairs"]] == CHANGE[:4]
    assert bench["summary"] == bench_pairs.summarize(bench["pairs"], "setup_s", "lower")
    assert bench["machine"].startswith("2 cores, Python 3.11.7, numpy 2.0.0; ")
    assert not (change / "BENCH_w.partial.json").exists()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"resuming after seed 2 from {change / 'BENCH_w.partial.json'}"
    assert lines[1:3] == ["seed 3 parent: setup_s 0.42", "seed 3 change: setup_s 0.32"]


@pytest.mark.parametrize("option, other", [("--seconds", "2"), ("--parent", "elsewhere")])
def test_a_rerun_with_other_arguments_is_refused_and_names_the_side_file(tmp_path, option, other):
    parent, change, argv = interrupted_at_seed_3(tmp_path)
    (parent / "quiet").touch()
    if option == "--parent":
        other = str(disturbed_at_seed_3(tmp_path / other, PARENT[:4]))
    changed = [*argv]
    changed[changed.index(option) + 1] = other
    side_file = change / "BENCH_w.partial.json"
    kept = side_file.read_text(encoding="utf-8")
    with pytest.raises(SystemExit, match=re.escape(f"error: {side_file} holds the pairs of a run of ")):
        bench_pairs.main(changed)
    assert runs_of(parent) == [1, 2, 3, 3, 3]
    assert side_file.read_text(encoding="utf-8") == kept and not (change / "BENCH_w.json").exists()
