"""The Table 1 workloads: cold row analyses in AHS(AM) or AHS(AU).

One *row* is one (procedure, domain) cell of the committed smoke suite.
Each row runs on a fresh :class:`repro.Analyzer` over the parsed suite
program, with the LP and polyhedra memos dropped first
(``simplex.clear_caches()``, ``polyhedra.clear_caches()``), so no pass
replays another's work.

A pass runs every row once, in an order shuffled by the seed.  A run
makes a fixed number of whole passes for the time asked for (at least
one), so it does the same work however fast the machine is running.
"""

from __future__ import annotations

import gc
import random
import sys
import time
from typing import Dict, List, Tuple

from common import (
    OUT_DIR, ROOT, START_REF_S, TAIL_SAMPLES, beyond, finish, geomean,
    SpeedGauge, load_references, median, metric, peak_rss_mb_self,
    percentile, run_probe, show, start_reading,
)

Row = Tuple[str, str]  # (procedure, domain)

SETUP_PROBES = 3
# Kernel readings during a row, in seconds: an AU row runs for up to 5 s.
SAMPLE_EVERY_S = 0.25
# A pass's time at reference speed, which sets the passes per run.
PASS_SECONDS = {"am": 3.0, "au": 15.0}


def suite_of(name: str) -> str:
    return "dll" if name.startswith("dll_") else "table1"


def rows_for(domain: str, references: dict) -> List[Row]:
    return [
        (key.split("/")[0], domain)
        for key in references["table1_hashes"]
        if key.endswith("/" + domain)
    ]


class RowRunner:
    """Runs rows and checks each against the committed references."""

    def __init__(self, references: dict):
        from repro import Analyzer
        from repro.engine.canon import graph_hash, heapset_hash
        from repro.lang.benchlib import benchmark_program
        from repro.numeric import polyhedra, simplex

        sys.path.insert(0, str(ROOT / "benchmarks"))
        from dll_suite import dll_program
        from table1_common import AM_CHECKS, AU_CHECKS

        self.Analyzer = Analyzer
        self.graph_hash, self.heapset_hash = graph_hash, heapset_hash
        self.simplex, self.polyhedra = simplex, polyhedra
        self.checks = {"am": AM_CHECKS, "au": AU_CHECKS}
        self.programs = {"table1": benchmark_program(), "dll": dll_program()}
        self.golden = references["table1_hashes"]
        self.gauge = SpeedGauge(every_s=SAMPLE_EVERY_S)
        # Long-lived objects (modules, programs, references) move out of
        # the collector's reach, so the collection outside the timed
        # region only walks the previous row's garbage.
        gc.collect()
        gc.freeze()

    def run(self, row: Row) -> dict:
        name, domain = row
        analyzer = self.Analyzer(self.programs[suite_of(name)])
        self.simplex.clear_caches()
        self.polyhedra.clear_caches()
        gc.collect()
        self.gauge.mark()
        t0 = time.perf_counter()
        result = analyzer.analyze(name, domain=domain, max_steps=400_000)
        raw_s = time.perf_counter() - t0 - self.gauge.paused_s
        query_s = self.gauge.scale(raw_s)

        lp = self.simplex.cache_stats()
        poly = self.polyhedra.cache_stats()
        problems = []
        if result.diagnostics:
            problems.append(f"{name}/{domain}: {result.diagnostics[0]}")
        hashes = sorted(
            [self.graph_hash(entry.graph), self.heapset_hash(summary, result.domain)]
            for entry, summary in result.summaries
        )
        if hashes != self.golden[f"{name}/{domain}"]:
            problems.append(f"{name}/{domain}: summary hashes differ from reference")
        check = self.checks[domain].get(name)
        if check is not None and check(analyzer, name, result) is False:
            problems.append(f"{name}/{domain}: paper formula not entailed")
        stats = result.stats
        counts = {
            "core.steps": stats.get("steps", 0),
            "core.records": stats.get("records", 0),
            "core.reanalyzed": stats.get("records.reanalyzed", 0),
            "core.widenings": sum(
                v for k, v in stats.items() if k.startswith("widenings.")),
            "engine.summary_cache_hits": stats.get("cache", {}).get("hits", 0),
            "engine.sched_requeues": stats.get("scheduler", {}).get("requeues", 0),
            "lp.solve_hits": lp["solve_hits"],
            "lp.solve_misses": lp["solve_misses"],
            "lp.int_solves": lp["int_solves"],
            "lp.int_fallbacks": lp["int_fallbacks"],
            "lp.basis_reuse": lp["basis_phase2_reuse"] + lp["basis_incremental_reuse"],
            "poly.join_hits": poly["join_hits"],
            "poly.join_misses": poly["join_misses"],
            "poly.min_hits": poly["min_hits"],
            "poly.min_misses": poly["min_misses"],
        }
        return {"row": f"{name}/{domain}", "query_s": query_s, "raw_s": raw_s,
                "problems": problems, "counts": counts}


def run_passes(rows: List[Row], runner: RowRunner, seed: int,
               seconds: float) -> List[List[dict]]:
    """The passes ``seconds`` asks for, each in a seeded order."""
    order_rng = random.Random(seed)
    n_passes = max(1, round(seconds / PASS_SECONDS[rows[0][1]]))
    passes: List[List[dict]] = []
    for _ in range(n_passes):
        order = list(rows)
        order_rng.shuffle(order)
        passes.append([runner.run(row) for row in order])
    return passes


def summarize(passes: List[List[dict]]) -> dict:
    """End-to-end figures over whole passes."""
    by_row: Dict[str, List[float]] = {}
    queries = []
    for done in passes:
        for rec in done:
            by_row.setdefault(rec["row"], []).append(rec["query_s"])
            queries.append(rec["query_s"] * 1000.0)
    pass_sums = [sum(r["query_s"] for r in done) for done in passes]
    raw_sums = [sum(r["raw_s"] for r in done) for done in passes]
    return {
        "by_row": {row: median(v) for row, v in by_row.items()},
        "suite_s": median(pass_sums),
        "raw_suite_s": median(raw_sums),
        "row_geomean_ms": geomean([median(v) * 1000.0 for v in by_row.values()]),
        "queries": queries,
        "passes": len(passes),
    }


def setup_probes(n: int, trace: bool) -> List[dict]:
    """Fresh set-up processes.  Each ``setup_s`` is rescaled by the
    process-start readings taken right before and after it."""
    args = ["setup"] + (["--trace"] if trace else [])
    gauge = SpeedGauge(start_reading, START_REF_S)
    probes = []
    for _ in range(n):
        gauge.arm()
        probe = run_probe(args)
        probe["raw_setup_s"] = probe["setup_s"]
        probe["setup_s"] = gauge.scale(probe["setup_s"])
        probes.append(probe)
    return probes


def main(workload: str, references: dict, seed: int, seconds: float,
         trace: bool, tiny: bool) -> int:
    domain = workload.rsplit("-", 1)[1]
    rows = rows_for(domain, references)[: 3 if tiny else None]
    print(f"workload {workload}: {len(rows)} rows in AHS({domain.upper()}), "
          f"seed {seed}, {seconds:g} s, trace {int(trace)}")
    if trace:
        return _traced(workload, rows, references, seed, seconds, tiny)

    probes = setup_probes(1 if tiny else SETUP_PROBES, trace=False)
    setup = [p["setup_s"] for p in probes]
    runner = RowRunner(references)
    passes = run_passes(rows, runner, seed, seconds)
    s = summarize(passes)
    problems = [p for done in passes for r in done for p in r["problems"]]
    attempted = sum(len(done) for done in passes)
    failed = sum(1 for done in passes for r in done if r["problems"])

    print("per-row median query time at reference speed (not metrics):")
    for row, sec in sorted(s["by_row"].items(), key=lambda kv: -kv[1]):
        show(row, sec * 1000.0, "ms")
    nq = len(s["queries"])
    print("raw (not metrics):")
    show("suite_s as measured", s["raw_suite_s"], "s",
         f"speed factor median {median(runner.gauge.factors):.4f}")
    show("setup_s as measured", median([p["raw_setup_s"] for p in probes]), "s")
    print("end-to-end (times at reference speed):")
    show("setup_s", median(setup), "s", f"median of {len(setup)} fresh processes")
    show("suite_s", s["suite_s"], "s", f"median of {s['passes']} passes")
    show("row_geomean_ms", s["row_geomean_ms"], "ms", f"{len(rows)} rows")
    show("query_p50_ms", percentile(s["queries"], 50), "ms",
         f"n={nq}, {beyond(nq, 50)} beyond")
    show("query_p90_ms", percentile(s["queries"], 90), "ms",
         f"n={nq}, {beyond(nq, 90)} beyond")
    for label, q in (("query_p50_ms", 50), ("query_p90_ms", 90)):
        if beyond(nq, q) < TAIL_SAMPLES:
            print(f"  note: {label} has fewer than {TAIL_SAMPLES} samples "
                  f"beyond it in one run (n={nq})")
    metrics = {
        "setup_s": metric(median(setup), "s"),
        "suite_s": metric(s["suite_s"], "s"),
        "row_geomean_ms": metric(s["row_geomean_ms"], "ms"),
        "query_p50_ms": metric(percentile(s["queries"], 50), "ms"),
        "query_p90_ms": metric(percentile(s["queries"], 90), "ms"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb_self(), "MB"),
    }
    for key, value in metrics.items():
        if key not in ("setup_s", "suite_s", "row_geomean_ms", "query_p50_ms",
                       "query_p90_ms"):
            show(key, value["value"], value["unit"])
    return finish(failed == 0, attempted, failed, metrics, problems)


# -- traced run ----------------------------------------------------------------

COUNT_KEYS = (
    "core.steps", "core.records", "core.reanalyzed", "core.widenings",
    "engine.summary_cache_hits", "engine.sched_requeues",
    "lp.solve_hits", "lp.solve_misses", "lp.int_solves", "lp.int_fallbacks",
    "lp.basis_reuse", "poly.join_hits", "poly.join_misses", "poly.min_hits",
    "poly.min_misses",
)


def untraced_child(workload: str, seed: int, seconds: float,
                   references_path=None, tiny: bool = False) -> dict:
    """Body of ``probe.py passes``: untraced whole passes in this process."""
    references = load_references(references_path)
    domain = workload.rsplit("-", 1)[1]
    rows = rows_for(domain, references)[: 3 if tiny else None]
    runner = RowRunner(references)
    passes = run_passes(rows, runner, seed, seconds)
    return {"passes": [[{k: r[k] for k in ("row", "query_s", "raw_s", "counts", "problems")}
                        for r in done] for done in passes]}


def _traced(workload, rows, references, seed, seconds, tiny) -> int:
    from tracer import Tracer

    probes = setup_probes(1 if tiny else SETUP_PROBES, trace=True)
    child = run_probe(["passes", workload, "--seed", str(seed),
                       "--seconds", str(seconds / 2.0)]
                      + (["--slice"] if tiny else []))
    runner = RowRunner(references)
    tracer = Tracer().install()
    try:
        passes = run_passes(rows, runner, seed, seconds / 2.0)
    finally:
        tracer.uninstall()
    traced = summarize(passes)
    untraced = summarize(child["passes"]) if child["passes"] else None
    problems = [p for done in passes + child["passes"] for r in done
                for p in r["problems"]]
    attempted = sum(len(d) for d in passes) + sum(len(d) for d in child["passes"])
    failed = sum(1 for d in passes + child["passes"] for r in d if r["problems"])

    n_pass = len(passes)
    self_s, calls, join_calls = tracer.snapshot()
    per_pass = lambda v: v / n_pass  # noqa: E731
    totals = {k: sum(r["counts"][k] for d in passes for r in d) for k in COUNT_KEYS}

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    ms = lambda layer: per_pass(self_s.get(layer, 0.0)) * 1000.0  # noqa: E731
    values = {
        "setup.import_s": median([p["import_s"] for p in probes]),
        "lang.frontend_ms": median([p["frontend_ms"] for p in probes]),
        "lang.icfg_ms": median([p["icfg_ms"] for p in probes]),
        "core.analyze_ms": ms("core.analyze"),
        "core.steps": per_pass(totals["core.steps"]),
        "core.records": per_pass(totals["core.records"]),
        "core.reanalyzed": per_pass(totals["core.reanalyzed"]),
        "core.widenings": per_pass(totals["core.widenings"]),
        "engine.summary_cache_hits": per_pass(totals["engine.summary_cache_hits"]),
        "engine.sched_requeues": per_pass(totals["engine.sched_requeues"]),
        "shape.heapset_join_ms": ms("shape.heapset_join"),
        "shape.heapset_widen_ms": ms("shape.heapset_widen"),
        "shape.heapset_calls": per_pass(calls.get("shape.heapset_join", 0)
                                        + calls.get("shape.heapset_widen", 0)),
        "shape.canonical_ms": ms("shape.canonical"),
        "datawords.am_ms": ms("datawords.am"),
        "datawords.au_ms": ms("datawords.au"),
        "datawords.join_calls": per_pass(join_calls),
        "numeric.rref_ms": ms("numeric.rref"),
        "numeric.lp_ms": ms("numeric.lp"),
        "numeric.lp_calls": per_pass(calls.get("numeric.lp", 0)),
        "numeric.lp_int_solves": per_pass(totals["lp.int_solves"]),
        "numeric.lp_int_fallbacks": per_pass(totals["lp.int_fallbacks"]),
        "numeric.lp_memo_hit_ratio": ratio(totals["lp.solve_hits"],
                                           totals["lp.solve_misses"]),
        "numeric.basis_reuse": per_pass(totals["lp.basis_reuse"]),
        "numeric.poly_join_ms": ms("numeric.poly_join"),
        "numeric.poly_minimize_ms": ms("numeric.poly_minimize"),
        "numeric.poly_join_memo_hit_ratio": ratio(totals["poly.join_hits"],
                                                  totals["poly.join_misses"]),
        "numeric.poly_min_memo_hit_ratio": ratio(totals["poly.min_hits"],
                                                 totals["poly.min_misses"]),
        "trace.overhead_ratio": (traced["suite_s"] / untraced["suite_s"]
                                 if untraced else 0.0),
    }

    total_self, outer = tracer.reconcile()
    analyze_spans = sum(r["query_s"] for d in passes for r in d)
    print(f"traced {n_pass} pass(es), {len(tracer.name)} spans; untraced child "
          f"{len(child['passes'])} pass(es)")
    print(f"reconcile: layer self times sum to {total_self:.4f} s; outermost "
          f"spans {outer:.4f} s; timed analyze calls {analyze_spans:.4f} s; "
          f"traced suite_s {traced['suite_s']:.4f} s "
          f"(untraced {untraced['suite_s'] if untraced else float('nan'):.4f} s)")
    print("self time per pass by layer:")
    for layer in sorted(self_s, key=lambda k: -self_s[k]):
        show(layer, per_pass(self_s[layer]) * 1000.0, "ms",
             f"{per_pass(calls[layer]):.0f} calls")
    _report_repeats(passes, child["passes"])

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(out)
    print(f"spans written to {out.relative_to(ROOT)}")
    from ide import zero_serving_layers
    values.update(zero_serving_layers())
    return finish(failed == 0, attempted, failed,
                  {k: metric(v, unit_of(k)) for k, v in values.items()}, problems)


def _report_repeats(traced: List[List[dict]], untraced: List[List[dict]]) -> None:
    """Which engine and kernel counts repeat exactly across the two
    processes (this one, traced, and the untraced child).  Neither pins
    ``PYTHONHASHSEED``, so a count that depends on hash order differs."""
    if not untraced:
        return
    first = {r["row"]: r["counts"] for r in traced[0]}
    other = {r["row"]: r["counts"] for r in untraced[0]}
    same, differ = [], []
    for key in COUNT_KEYS:
        rows = [row for row in first if first[row][key] != other[row][key]]
        (differ if rows else same).append(
            key + (f" ({', '.join(rows[:4])})" if rows else ""))
    print("counts repeating exactly across processes: " + ", ".join(same))
    print("counts differing across processes: " + (", ".join(differ) or "none"))


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"
