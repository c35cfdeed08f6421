"""The ``ide-session`` workload: one IDE tenant against a deployed gateway.

The gateway runs as users deploy it, ``python -m repro.gateway serve``
with default settings (2 dispatch workers, ``--jobs 1``: every cold job
runs in a forked worker), in its own process.  The benchmark is one
tenant on one TCP connection in a closed loop, because an IDE waits for
each reply.

The trace runs over the Table 1 program in *cycles*: one edit, followed
by an AM ``analyze`` of the edited program, then nine single-obligation
``check`` queries (``root:0``).  So 10% of operations are edits and 90%
are queries.  Every root is queried once before the timed trace starts,
as an IDE that has been open for a while has its answers cached.  Query
roots walk through permutations of the 21 Table 1 roots, so every root is
asked equally often.  Each block of two cycles has one edit of each
kind (an even mix: no measured IDE editing pattern is available to set
it); both kinds keep every safety verdict:

* ``const``: change an integer constant of an assignment in place
  (same line count, so only the edited procedure's cone changes);
* ``local``: insert a dead ``int`` local on a new line after a procedure
  header (every procedure below it moves, which turns their cached
  queries cold).

Which procedure each cycle edits and which roots it queries follow a
fixed plan; the seed orders the queries within each cycle and picks the
new constants (see :func:`make_cycles` for why).

Each request's round trip is rescaled to the reference speed by kernel
readings taken in this process right before and after it
(:class:`common.SpeedGauge`).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import select
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from common import (
    OUT_DIR, ROOT, START_REF_S, TAIL_SAMPLES, SpeedGauge, beyond, child_env,
    finish, geomean, median, metric, percentile, run_probe, show,
    start_reading, vm_hwm_mb,
)

TENANT = "ide"
PROGRAM_ID = "table1"
QUERIES_PER_EDIT = 9
SETUP_SPAWNS = 3
# Edit kinds of each block of cycles: an even mix, an assumption (no
# observed IDE editing pattern is at hand).  Each ``local`` edit turns
# most cached queries cold, so this mix sets the share of cold queries.
EDIT_MIX = ("const", "local")
# The plan of edits and query roots (see make_cycles) and its length: a
# fixed number of cycles per second asked for, so every run does the same
# work however fast the machine is (16 cycles at 12 s: 144 queries, 14 of
# them beyond query_p90_ms).
PLAN_SEED = 20110604
CYCLES_PER_SECOND = 4 / 3
REQUEST_TIMEOUT_S = 170.0

# Names of per-layer metrics that only the Table 1 workloads measure:
# their layers run inside the gateway's forked workers here, out of the
# benchmark's reach, so a traced ide-session run reports them as 0.
ANALYSIS_ONLY_LAYERS = (
    "core.analyze_ms", "core.steps", "core.records", "core.reanalyzed",
    "core.widenings", "engine.summary_cache_hits", "engine.sched_requeues",
    "shape.heapset_join_ms", "shape.heapset_widen_ms", "shape.heapset_calls",
    "shape.canonical_ms", "datawords.am_ms", "datawords.au_ms",
    "datawords.join_calls", "numeric.rref_ms", "numeric.lp_ms",
    "numeric.lp_calls", "numeric.lp_int_solves", "numeric.lp_int_fallbacks",
    "numeric.lp_memo_hit_ratio", "numeric.basis_reuse", "numeric.poly_join_ms",
    "numeric.poly_minimize_ms", "numeric.poly_join_memo_hit_ratio",
    "numeric.poly_min_memo_hit_ratio",
)

SERVING_LAYERS = (
    "gateway.queue_wait_ms", "gateway.exec_ms", "gateway.transport_ms",
    "gateway.pre_query_ms", "service.query_ms", "service.query_warm_ratio",
    "service.cone_size", "service.dirty_cone_procs", "service.reused_ratio",
    "engine.session_wall_ms", "parallel.fork_ms",
)


def zero_serving_layers() -> Dict[str, float]:
    """Serving-path layers a Table 1 run never enters."""
    return {name: 0.0 for name in SERVING_LAYERS}


# -- the seeded trace -------------------------------------------------------------

_LITERAL = re.compile(r"(=\s*|\+\s*)(\d+)(;)")


def _literal_sites(lines: List[str]) -> List[Tuple[int, re.Match]]:
    return [
        (i, m)
        for i, line in enumerate(lines)
        if not line.lstrip().startswith(("if", "while", "proc"))
        for m in _LITERAL.finditer(line)
    ]


def apply_edit(source: str, kind: str, target: int, value: int, tag: int) -> str:
    """One edit; ``target`` picks the place, ``value`` the new constant."""
    lines = source.split("\n")
    if kind == "local":
        headers = [i for i, line in enumerate(lines) if line.startswith("proc ")]
        lines.insert(headers[target % len(headers)] + 1, f"  local pb{tag}: int;")
        return "\n".join(lines)
    sites = _literal_sites(lines)
    i, m = sites[target % len(sites)]
    # Increments stay at least 1 so loops keep making progress.
    choices = [v for v in range(1, 10) if v != int(m.group(2))]
    line = lines[i]
    lines[i] = line[: m.start(2)] + str(choices[value % len(choices)]) + line[m.end(2):]
    return "\n".join(lines)


def make_cycles(seed: int, roots: List[str], n_cycles: int) -> List[dict]:
    """The session's cycles.  What each cycle edits and which roots it
    queries follow a fixed plan; the seed orders the queries inside each
    cycle and picks every new constant.  Cold and warm answers therefore
    fall in the same places on every seed, so runs differ by the order of
    work and by the machine, not by how much cold work they drew."""
    plan = random.Random(PLAN_SEED)
    order = random.Random(seed)
    walk: List[str] = []
    cycles = []
    for c in range(n_cycles):
        if c % len(EDIT_MIX) == 0:
            kinds = list(EDIT_MIX)
            plan.shuffle(kinds)
        queries = []
        for _ in range(QUERIES_PER_EDIT):
            if not walk:
                walk = list(roots)
                plan.shuffle(walk)
            queries.append(walk.pop())
        order.shuffle(queries)
        cycles.append({"kind": kinds[c % len(EDIT_MIX)], "queries": queries,
                       "target": plan.randrange(1 << 30),
                       "value": order.randrange(1 << 30)})
    return cycles


# -- the gateway process ----------------------------------------------------------

class Gateway:
    """A gateway subprocess and one client connection to it."""

    def __init__(self) -> None:
        from repro.service.client import ServiceClient

        OUT_DIR.mkdir(exist_ok=True)
        self.log = open(OUT_DIR / "gateway.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.gateway", "serve",
             "--tcp", "127.0.0.1:0"],
            cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
            stderr=self.log,
        )
        self.client = None
        ready, _, _ = select.select([self.proc.stdout], [], [], 120.0)
        line = self.proc.stdout.readline().decode() if ready else ""
        port = re.search(r"(\d+)\)?\s*$", line)
        if not port:
            self.close()
            raise RuntimeError(f"gateway did not start: {line!r}")
        self.client = ServiceClient.connect(
            ("127.0.0.1", int(port.group(1))), timeout=REQUEST_TIMEOUT_S)

    def close(self) -> None:
        from repro.service.client import ServiceError

        try:
            if self.client is not None:
                try:
                    self.client.shutdown()
                except (ServiceError, OSError):  # gone: wait, then kill
                    pass
                self.client.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        finally:
            self.proc.stdout.close()
            self.log.close()


def _sorted_pairs(hashes: Dict[str, list]) -> Dict[str, list]:
    return {key: sorted(pairs) for key, pairs in hashes.items()}


def start_session(source: str, references: dict, start_gauge: SpeedGauge,
                  gauge: SpeedGauge) -> Tuple[Gateway, float, float, List[str]]:
    """Spawn, ping, analyze the unedited program; returns the set-up time
    at reference speed and as measured.  Spawn-to-ping is a process start
    and is rescaled by ``start_gauge``; the analysis by ``gauge``."""
    start_gauge.arm()
    t0 = time.perf_counter()
    gw = Gateway()
    try:
        gw.client.ping()
        spawn = time.perf_counter() - t0
        elapsed = start_gauge.scale(spawn)
        gauge.mark()
        t0 = time.perf_counter()
        response = gw.client.analyze(source, domains=("am",), tenant=TENANT,
                                     program_id=PROGRAM_ID)
        first = time.perf_counter() - t0
    except Exception:
        gw.close()
        raise
    elapsed += gauge.scale(first)
    problems = []
    if not response.get("ok"):
        problems.append(f"set-up analyze failed: {response.get('error')}")
    else:
        got = _sorted_pairs(response["result"]["summary_hashes"])
        for key, pairs in references["table1_hashes"].items():
            name, domain = key.split("/")
            if domain == "am" and not name.startswith("dll_") \
                    and got.get(f"{name}.am") != pairs:
                problems.append(f"set-up analyze: {name}.am hashes differ from reference")
    return gw, elapsed, spawn + first, problems


# -- answer checks ----------------------------------------------------------------

def _proc_span(lines: List[str], proc: str) -> Tuple[int, int]:
    start = next(i for i, line in enumerate(lines)
                 if line.startswith(f"proc {proc}("))
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].startswith("proc ")), len(lines))
    return start + 1, end  # 1-based first line, last line


def check_answer(answer: dict, root: str, lines: List[str],
                 verdict: str) -> List[str]:
    """The verdict is the committed one, and every finding points at a
    line of the current source that says what the finding claims."""
    problems = []
    if answer.get("verdict") != verdict:
        problems.append(f"{root}: verdict {answer.get('verdict')!r}, "
                        f"reference {verdict!r}")
    first, last = _proc_span(lines, root)
    for f in answer.get("findings", []):
        line = f.get("line")
        if line is None or f.get("procedure") != root:
            continue
        if not first <= line <= last:
            problems.append(f"{root}: finding at line {line} outside {first}-{last}")
        elif f["ruleId"] == "safety.null-deref":
            var = f.get("witness", {}).get("variable", "")
            if f"{var}->" not in lines[line - 1]:
                problems.append(f"{root}: line {line} has no '{var}->'")
    return problems


# -- the run ----------------------------------------------------------------------

def main(references: dict, seed: int, seconds: float, trace: bool,
         tiny: bool) -> int:
    from repro.lang.benchlib import BENCHMARK_SOURCE

    verdicts: Dict[str, str] = references["query_verdicts"]
    roots = list(verdicts)[: 3 if tiny else None]
    print(f"workload ide-session: {len(roots)} roots, seed {seed}, "
          f"{seconds:g} s, trace {int(trace)}")

    gauge = SpeedGauge()
    start_gauge = SpeedGauge(start_reading, START_REF_S)
    setups: List[float] = []
    raw_setups: List[float] = []
    problems: List[str] = []
    setup_failed = 0
    spawns = 1 if trace or tiny else SETUP_SPAWNS
    for i in range(spawns):
        gw, elapsed, raw, setup_problems = start_session(
            BENCHMARK_SOURCE, references, start_gauge, gauge)
        setups.append(elapsed)
        raw_setups.append(raw)
        problems += setup_problems
        setup_failed += bool(setup_problems)
        if i < spawns - 1:
            gw.close()
    try:
        run = _drive(gw, BENCHMARK_SOURCE, seed, seconds, roots, verdicts,
                     trace, gauge)
        rss = vm_hwm_mb(gw.proc.pid)
        run["checks"] += _verify_final(gw, run)
        run["checks"] += _verify_warm(gw, run, verdicts)
    finally:
        gw.close()

    checks = run["ops"] + run["checks"]
    problems += [p for op in checks for p in op["problems"]]
    attempted = len(checks) + spawns
    failed = sum(1 for op in checks if op["problems"]) + setup_failed
    ok_frac = (attempted - failed) / attempted
    if trace:
        return _traced_report(run, seed, ok_frac, attempted, failed, problems,
                              tiny)
    return _report(run, setups, raw_setups, gauge, rss, ok_frac, attempted,
                   failed, problems)


def _drive(gw: Gateway, source: str, seed: int, seconds: float,
           roots: List[str], verdicts: Dict[str, str], trace: bool,
           gauge: SpeedGauge) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    client = gw.client
    answers: Dict[Tuple[str, str], str] = {}
    checks = [_query(client, source, root, PROGRAM_ID, verdicts, answers)
              for root in roots]
    ops: List[dict] = []
    cycles_done: List[dict] = []
    sources = [source]
    start = time.perf_counter()
    n_cycles = max(2, round(seconds * CYCLES_PER_SECOND))
    for c, cycle in enumerate(make_cycles(seed, roots, n_cycles)):
        traced_cycle = tracer is not None and c % 2 == 1
        if traced_cycle:
            tracer.install(only_prefixes=("service.",))
        source = apply_edit(source, cycle["kind"], cycle["target"],
                            cycle["value"], c)
        sources.append(source)
        first_op = len(ops)

        gauge.mark()
        t0 = time.perf_counter()
        response = client.analyze(source, domains=("am",), tenant=TENANT,
                                  program_id=PROGRAM_ID)
        raw = time.perf_counter() - t0
        op = {"kind": "edit", "edit": cycle["kind"], "raw_s": raw,
              "rtt_s": gauge.scale(raw), "traced": traced_cycle, "problems": []}
        if not response.get("ok") or not response["result"].get("ok"):
            op["problems"].append(f"analyze after {cycle['kind']} edit failed: "
                                  f"{response.get('error')}")
        else:
            op["telemetry"] = response.get("telemetry", {})
            op["hashes"] = _sorted_pairs(response["result"]["summary_hashes"])
        ops.append(op)

        for root in cycle["queries"]:
            op = _query(client, source, root, PROGRAM_ID, verdicts, answers,
                        gauge)
            op["traced"] = traced_cycle
            ops.append(op)
        if traced_cycle:
            tracer.uninstall()
        cycles_done.append({"rtt_s": sum(op["rtt_s"] for op in ops[first_op:])})
    return {"ops": ops, "cycles": cycles_done, "sources": sources,
            "wall_s": time.perf_counter() - start, "tracer": tracer,
            "final_source": source, "checks": checks}


def _query(client, source: str, root: str, program_id: str,
           verdicts: Dict[str, str], answers: Dict[Tuple[str, str], str],
           gauge: SpeedGauge = None) -> dict:
    """One timed ``check`` query, checked; ``answers`` keeps the first
    answer given for each (source, root), which later ones must equal.
    With a ``gauge`` (whose last reading was taken just before), the
    round trip is rescaled to the reference speed."""
    if gauge:
        gauge.arm()
    t0 = time.perf_counter()
    response = client.check(source, query=f"{root}:0", tenant=TENANT,
                            program_id=program_id)
    raw = time.perf_counter() - t0
    digest = hashlib.sha256(source.encode()).hexdigest()
    op = {"kind": "query", "root": root, "digest": digest, "raw_s": raw,
          "rtt_s": gauge.scale(raw) if gauge else raw, "problems": []}
    if not response.get("ok"):
        op["problems"].append(f"{root}: query failed: {response.get('error')}")
        return op
    result = response["result"]
    op["telemetry"] = response.get("telemetry", {})
    op["mode"] = result["mode"]
    # ``seconds`` is how long the answer took to compute, not part of it.
    op["answer"] = json.dumps({k: v for k, v in result["query"].items()
                               if k != "seconds"}, sort_keys=True)
    op["problems"] += check_answer(result["query"], root, source.split("\n"),
                                   verdicts[root])
    first = answers.setdefault((digest, root), op["answer"])
    if op["answer"] != first:
        op["problems"].append(f"{root}: answer differs from the first answer "
                              f"for the same source ({op['mode']})")
    return op


def _verify_final(gw: Gateway, run: dict) -> List[dict]:
    """Incremental == cold on the final source: a fresh session analyses
    it, and its summaries must equal those of the session's last
    incremental analyze."""
    source, client = run["final_source"], gw.client
    check = {"problems": []}
    last = next((op for op in reversed(run["ops"])
                 if op["kind"] == "edit" and "hashes" in op), None)
    response = client.analyze(source, domains=("am",), tenant=TENANT,
                              program_id=PROGRAM_ID + "-cold")
    if last is None or not response.get("ok"):
        check["problems"].append(f"cold analyze of the final source: "
                                 f"{response.get('error')}")
    else:
        cold = _sorted_pairs(response["result"]["summary_hashes"])
        bad = sorted(k for k in cold if cold[k] != last["hashes"].get(k))
        if bad:
            check["problems"].append(
                f"incremental summaries differ from cold ones: {bad[:5]}")
    return [check]


def _verify_warm(gw: Gateway, run: dict, verdicts: Dict[str, str]) -> List[dict]:
    """Warm == cold for every warm answer of the trace (after it, so the
    metrics are unaffected).  Each (source, root) the session answered
    from its cache is asked again in a fresh session for that source; the
    answer must be computed (``cold``) and equal the warm one."""
    sources = {hashlib.sha256(src.encode()).hexdigest(): src
               for src in run["sources"]}
    warm: Dict[str, Dict[str, str]] = {}
    for op in run["ops"]:
        if op["kind"] == "query" and op.get("mode") == "warm":
            warm.setdefault(op["digest"], {})[op["root"]] = op["answer"]
    checks = []
    for i, (digest, answered) in enumerate(warm.items()):
        fresh_id = f"{PROGRAM_ID}-recheck-{i}"
        for root, answer in answered.items():
            op = _query(gw.client, sources[digest], root, fresh_id, verdicts,
                        {(digest, root): answer})
            if op.get("mode") != "cold":
                op["problems"].append(
                    f"{root}: fresh session answered {op.get('mode')}")
            checks.append(op)
    run["rechecked"] = len(checks)
    return checks


def n_blocks(run: dict) -> float:
    """Blocks of ``len(EDIT_MIX)`` cycles (one edit of each kind) in the
    trace: the session's passes."""
    return len(run["cycles"]) / len(EDIT_MIX)


def _summaries(run: dict) -> dict:
    queries = [op for op in run["ops"] if op["kind"] == "query"]
    edits = [op for op in run["ops"] if op["kind"] == "edit"]
    q_ms = [op["rtt_s"] * 1000.0 for op in queries]
    e_ms = [op["rtt_s"] * 1000.0 for op in edits]
    by_root: Dict[str, List[float]] = {}
    for op in queries:
        by_root.setdefault(op["root"], []).append(op["rtt_s"] * 1000.0)
    return {
        "queries": queries, "edits": edits, "q_ms": q_ms, "e_ms": e_ms,
        "suite_s": sum(c["rtt_s"] for c in run["cycles"]) / n_blocks(run),
        "row_geomean_ms": geomean([median(v) for v in by_root.values()]),
    }


def _report(run, setups, raw_setups, gauge, rss, ok_frac, attempted, failed,
            problems) -> int:
    s = _summaries(run)
    nq, ne = len(s["q_ms"]), len(s["e_ms"])
    warm = sum(1 for op in s["queries"] if op.get("mode") == "warm")
    print(f"{len(run['cycles'])} cycles, {nq} queries ({warm} warm, "
          f"{nq - warm} cold), {ne} edits in {run['wall_s']:.2f} s; "
          f"{run['rechecked']} warm answers re-asked cold after the trace")
    print("edit round trips at reference speed (not metrics):")
    show("edit median", median(s["e_ms"]), "ms", f"n={ne}")
    for kind in EDIT_MIX:
        sample = [op["rtt_s"] * 1000.0 for op in s["edits"] if op["edit"] == kind]
        if sample:
            show(f"edit {kind} median", median(sample), "ms", f"n={len(sample)}")
    print("raw (not metrics):")
    show("query median as measured",
         median([op["raw_s"] * 1000.0 for op in s["queries"]]), "ms",
         f"speed factor median {median(gauge.factors):.4f}")
    show("setup_s as measured", median(raw_setups), "s")
    print("end-to-end (times at reference speed):")
    show("setup_s", median(setups), "s", f"median of {len(setups)} gateway spawns")
    show("suite_s", s["suite_s"], "s",
         f"mean of {n_blocks(run):g} blocks of {len(EDIT_MIX)} cycles")
    show("row_geomean_ms", s["row_geomean_ms"], "ms", "over query roots")
    show("query_p50_ms", percentile(s["q_ms"], 50), "ms", f"n={nq}, {beyond(nq, 50)} beyond")
    show("query_p90_ms", percentile(s["q_ms"], 90), "ms",
         f"n={nq}, {beyond(nq, 90)} beyond")
    if beyond(nq, 90) < TAIL_SAMPLES:
        print(f"  note: query_p90_ms has fewer than {TAIL_SAMPLES} samples "
              f"beyond it (n={nq})")
    show("ok_frac", ok_frac, "ratio")
    show("peak_rss_mb", rss, "MB", "gateway VmHWM")
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "suite_s": metric(s["suite_s"], "s"),
        "row_geomean_ms": metric(s["row_geomean_ms"], "ms"),
        "query_p50_ms": metric(percentile(s["q_ms"], 50), "ms"),
        "query_p90_ms": metric(percentile(s["q_ms"], 90), "ms"),
        "ok_frac": metric(ok_frac, "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return finish(failed == 0, attempted, failed, metrics, problems)


def _traced_report(run, seed, ok_frac, attempted, failed, problems,
                   tiny) -> int:
    from repro.lang.cfg import build_icfg
    from repro.lang.normalize import normalize_program
    from repro.lang.parser import parse_program
    from repro.lang.typecheck import typecheck_program

    s = _summaries(run)
    queries, edits = s["queries"], s["edits"]
    tel = lambda op, key: op.get("telemetry", {}).get(key)  # noqa: E731
    done_q = [op for op in queries if "telemetry" in op]
    done_e = [op for op in edits if "telemetry" in op]

    frontend, icfg = [], []
    for source in run["sources"]:
        t0 = time.perf_counter()
        program = normalize_program(typecheck_program(parse_program(source)))
        t1 = time.perf_counter()
        build_icfg(program)
        t2 = time.perf_counter()
        frontend.append((t1 - t0) * 1000.0)
        icfg.append((t2 - t1) * 1000.0)
    probes = [run_probe(["setup", "--trace"]) for _ in range(1 if tiny else 3)]

    warm_traced = [op["rtt_s"] for op in done_q
                   if op["traced"] and op.get("mode") == "warm"]
    warm_plain = [op["rtt_s"] for op in done_q
                  if not op["traced"] and op.get("mode") == "warm"]
    values = {
        "setup.import_s": median([p["import_s"] for p in probes]),
        "lang.frontend_ms": median(frontend),
        "lang.icfg_ms": median(icfg),
        "gateway.queue_wait_ms": median(
            [tel(op, "queue_wait_s") * 1000.0 for op in done_q + done_e]),
        "gateway.exec_ms": median([tel(op, "exec_s") * 1000.0 for op in done_q]),
        "gateway.transport_ms": median(
            [(op["raw_s"] - tel(op, "exec_s")) * 1000.0 for op in done_q]),
        "gateway.pre_query_ms": median(
            [tel(op, "exec_s") * 1000.0 - tel(op, "latency_ms") for op in done_q]),
        "service.query_ms": median([tel(op, "latency_ms") for op in done_q]),
        "service.query_warm_ratio": sum(
            1 for op in done_q if op.get("mode") == "warm") / len(done_q),
        "service.cone_size": sum(tel(op, "cone_size") for op in done_q) / len(done_q),
        "service.dirty_cone_procs": sum(
            tel(op, "dirty_cone") for op in done_e) / len(done_e),
        "service.reused_ratio": sum(tel(op, "reused") for op in done_e) / max(1, sum(
            tel(op, "reused") + tel(op, "analyzed") for op in done_e)),
        "engine.session_wall_ms": median([tel(op, "wall_s") * 1000.0 for op in done_e]),
        "parallel.fork_ms": median(
            [(tel(op, "exec_s") - tel(op, "wall_s")) * 1000.0 for op in done_e]),
        "trace.overhead_ratio": (median(warm_traced) / median(warm_plain)
                                 if warm_traced and warm_plain else 1.0),
    }
    values.update({name: 0.0 for name in ANALYSIS_ONLY_LAYERS})
    tracer = run["tracer"]
    total_self, outer = tracer.reconcile()
    print(f"{len(run['cycles'])} cycles ({sum(1 for c in range(len(run['cycles'])) if c % 2)} "
          f"traced), {len(queries)} queries, {len(edits)} edits")
    print(f"reconcile: client span self times {total_self:.4f} s; outermost "
          f"spans {outer:.4f} s; traced-cycle round trips "
          f"{sum(op['raw_s'] for op in run['ops'] if op['traced']):.4f} s")
    for name in SERVING_LAYERS + ("lang.frontend_ms", "lang.icfg_ms",
                                  "trace.overhead_ratio"):
        show(name, values[name])
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-ide-session-seed{seed}.jsonl"
    tracer.write(out)
    print(f"spans written to {out.relative_to(ROOT)}")
    from table1 import unit_of

    return finish(failed == 0, attempted, failed,
                  {k: metric(v, unit_of(k)) for k, v in values.items()}, problems)
