"""Benchmark command.

    python3 perfbench/run.py --workload table1-am|table1-au|ide-session \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced run.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  Every output is checked against
``perfbench/references.json``; a mismatch is a failed operation and the
exit code is then 1.  See ``perfbench/README.md``.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1-am", "table1-au", "ide-session")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="repro benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--slice", action="store_true",
                    help="a tiny slice of the workload (used by selftest.py)")
    ap.add_argument("--references", default=None,
                    help="references file (default perfbench/references.json)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))

    import common

    references = common.load_references(args.references)
    if args.workload == "ide-session":
        import ide

        return ide.main(references, args.seed, args.seconds, bool(args.trace),
                        args.slice)
    import table1

    return table1.main(args.workload, references, args.seed, args.seconds,
                       bool(args.trace), args.slice)


if __name__ == "__main__":
    sys.exit(main())
