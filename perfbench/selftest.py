"""Self-test of the benchmark harness (about a minute).

    python3 perfbench/selftest.py

For a tiny slice of each workload, with tracing off and on, it checks
that the printed metric names and units are exactly those declared in
``BENCHMARK.json``, that the run is correct, and that a copy of the
references with one deliberately corrupted entry drives ``ok_frac``
below 1 and the exit code to 1, which shows the checks are not vacuous.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("table1-am", "table1-au", "ide-session")


def run(workload: str, trace: int, references=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--slice"]
    if references is not None:
        cmd += ["--references", str(references)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output\n{proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1]), proc


def corrupted_references() -> Path:
    refs = json.loads((HERE / "references.json").read_text())
    for key in ("create/am", "create/au"):
        refs["table1_hashes"][key][0][1] = "0" * 32
    first_root = next(iter(refs["query_verdicts"]))
    refs["query_verdicts"][first_root] = "unsafe"
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "corrupted-references.json"
    path.write_text(json.dumps(refs))
    return path


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("FAIL: BENCHMARK.json workloads differ from the harness's")
        return 1
    failures = []
    bad_refs = corrupted_references()
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, proc = run(workload, trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                missing = set(declared[trace]) - set(printed)
                extra = set(printed) - set(declared[trace])
                units = {k for k in set(printed) & set(declared[trace])
                         if printed[k] != declared[trace][k]}
                failures.append(f"{workload} trace {trace}: missing {sorted(missing)}, "
                                f"extra {sorted(extra)}, wrong units {sorted(units)}")
            if code != 0 or not result["correct"]:
                failures.append(f"{workload} trace {trace}: exit {code}, "
                                f"correct {result['correct']}\n{proc.stdout[-1500:]}")
            print(f"{workload} trace {trace}: exit {code}, "
                  f"{len(printed)} metrics, attempted {result['attempted']}")
        code, result, _ = run(workload, 0, bad_refs)
        ok_frac = result["metrics"]["ok_frac"]["value"]
        print(f"{workload} corrupted references: exit {code}, ok_frac {ok_frac:.3f}")
        if code != 1 or ok_frac >= 1.0 or result["correct"]:
            failures.append(f"{workload}: corrupted references went unnoticed")
    for failure in failures:
        print("FAIL:", failure)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
