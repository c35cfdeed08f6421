"""Fresh-process probes; prints one JSON line.

``probe.py setup [--trace]``
    Times set-up from before ``import repro`` to the first ready
    ``Analyzer`` on the parsed Table 1 suite program.  With ``--trace``
    also reports the import, frontend and ICFG spans.

``probe.py passes WORKLOAD --seed N --seconds S [--slice]``
    Untraced whole passes of a Table 1 workload; the traced run compares
    its own times and counts with these.
"""

import json
import sys
import time


def setup(trace: bool) -> dict:
    t0 = time.perf_counter()
    import repro  # noqa: F401

    t_import = time.perf_counter()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install(only_prefixes=("lang.",))
    from repro import Analyzer
    from repro.lang.benchlib import BENCHMARK_SOURCE
    from repro.lang.normalize import normalize_program
    from repro.lang.parser import parse_program
    from repro.lang.typecheck import typecheck_program

    program = normalize_program(typecheck_program(parse_program(BENCHMARK_SOURCE)))
    analyzer = Analyzer(program)
    done = time.perf_counter()
    if "create" not in analyzer.icfg.cfgs:
        raise RuntimeError("the Table 1 program lost its 'create' procedure")
    out = {"setup_s": done - t0}
    if tracer is not None:
        self_s, _, _ = tracer.snapshot()
        tracer.uninstall()
        out.update(
            import_s=t_import - t0,
            frontend_ms=self_s["lang.frontend"] * 1000.0,
            icfg_ms=self_s["lang.icfg"] * 1000.0,
        )
    return out


def main(argv) -> int:
    if argv[0] == "setup":
        print(json.dumps(setup("--trace" in argv)))
        return 0
    if argv[0] == "passes":
        import argparse

        ap = argparse.ArgumentParser()
        ap.add_argument("workload")
        ap.add_argument("--seed", type=int, required=True)
        ap.add_argument("--seconds", type=float, required=True)
        ap.add_argument("--slice", action="store_true")
        args = ap.parse_args(argv[1:])
        from table1 import untraced_child

        print(json.dumps(untraced_child(args.workload, args.seed, args.seconds,
                                        tiny=args.slice)))
        return 0
    print(f"unknown probe {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
