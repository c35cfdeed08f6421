"""Tests of the parallel batch-analysis subsystem (``repro.parallel``).

Three layers:

- **pool**: fault isolation (a worker SIGKILLing itself mid-task is
  retried once and succeeds), budgets (cooperative and hard kills),
  dependency scheduling, deterministic submission-order join;
- **store**: atomic one-file-per-key persistence, schema-fingerprint
  self-invalidation, corrupt-entry tolerance;
- **batch determinism**: the headline property — a parallel batch run
  (jobs=4) produces byte-identical summary hashes to the sequential
  baseline (jobs=0) on every corpus entry and on the paper's benchmark
  program (the Figures 4-6 / Table 1 procedures).
"""

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.core.api import Analyzer
from repro.engine.telemetry import merge_traces
from repro.parallel import (
    PersistentSummaryStore,
    PoolTask,
    WorkerPool,
    plan_shards,
    schema_fingerprint,
)

CORPUS = Path(__file__).parent.parent / "tests" / "corpus"

# Entries whose AU analysis is heavyweight run in the slow lane only
# (mirrors tests/test_corpus_replay.py).
SLOW_ENTRIES = {"gen_seed17.lisl"}

JOBS = 4


# -- helpers --------------------------------------------------------------------


def _corpus_sources():
    from repro.fuzz.__main__ import load_corpus_entry

    params = []
    for path in sorted(CORPUS.glob("*.lisl")):
        marks = [pytest.mark.slow] if path.name in SLOW_ENTRIES else []
        params.append(pytest.param(path, marks=marks, id=path.name))
    return params


def _sequential_hashes(report):
    """(task_id -> summary_hashes) for every ok outcome of a batch."""
    out = {}
    for outcome in report.outcomes:
        assert outcome.status == "ok", outcome.describe()
        out[outcome.task_id] = outcome.result.summary_hashes
    return out


# -- worker pool ----------------------------------------------------------------


def _echo(value):
    return value


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


def _boom():
    raise ValueError("intentional test failure")


def _die_once(sentinel, value):
    """SIGKILL the worker on the first attempt; succeed on the retry."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def _die_always():
    os.kill(os.getpid(), signal.SIGKILL)


def _check_marker(marker_dir, my_id, deps):
    """Record my start, assert every dependency already finished."""
    for dep in deps:
        assert os.path.exists(
            os.path.join(marker_dir, dep)
        ), f"{my_id} started before its dependency {dep} finished"
    with open(os.path.join(marker_dir, my_id), "w") as fh:
        fh.write("done")
    return my_id


class TestWorkerPool:
    def test_outcomes_in_submission_order(self):
        # Tasks finish out of submission order (the first sleeps longest)
        # but outcomes come back in it.
        tasks = [
            PoolTask("slow", _sleepy, args=(0.4,)),
            PoolTask("mid", _sleepy, args=(0.2,)),
            PoolTask("fast", _echo, args=("x",)),
        ]
        outcomes = WorkerPool(jobs=3).run(tasks)
        assert [o.task_id for o in outcomes] == ["slow", "mid", "fast"]
        assert all(o.ok for o in outcomes)
        assert outcomes[2].result == "x"
        assert outcomes[2].cpu_time is not None

    def test_worker_death_is_retried_and_succeeds(self, tmp_path):
        sentinel = str(tmp_path / "died-once")
        outcomes = WorkerPool(jobs=2).run(
            [PoolTask("fragile", _die_once, args=(sentinel, 42))]
        )
        (outcome,) = outcomes
        assert outcome.status == "ok"
        assert outcome.result == 42
        assert outcome.retries == 1 and outcome.retried

    def test_worker_death_exhausts_retries(self):
        (outcome,) = WorkerPool(jobs=1).run(
            [PoolTask("doomed", _die_always)]
        )
        assert outcome.status == "crashed"
        assert outcome.retries == 1  # one retry happened, then gave up
        assert outcome.error["kind"] == "worker_death"
        assert outcome.error["exitcode"] == -signal.SIGKILL

    def test_ordinary_exception_is_failed_not_crashed(self):
        (outcome,) = WorkerPool(jobs=1).run([PoolTask("raises", _boom)])
        assert outcome.status == "failed"
        assert outcome.error["type"] == "ValueError"
        assert "intentional" in outcome.error["message"]
        assert outcome.retries == 0  # exceptions are deterministic: no retry

    def test_hard_wall_clock_kill(self):
        pool = WorkerPool(jobs=1, hard_grace=0.2)
        (outcome,) = pool.run(
            [PoolTask("hog", _sleepy, args=(30.0,), budget=0.3)]
        )
        assert outcome.status == "budget"
        assert outcome.error["kind"] == "wall_clock_hard"
        assert outcome.wall_time < 10.0

    def test_dependencies_order_execution(self, tmp_path):
        marker = str(tmp_path)
        tasks = [
            PoolTask("a", _check_marker, args=(marker, "a", ())),
            PoolTask("b", _check_marker, args=(marker, "b", ("a",)), deps=("a",)),
            PoolTask("c", _check_marker, args=(marker, "c", ("a",)), deps=("a",)),
            PoolTask("d", _check_marker, args=(marker, "d", ("b", "c")), deps=("b", "c")),
        ]
        outcomes = WorkerPool(jobs=4).run(tasks)
        assert [o.status for o in outcomes] == ["ok"] * 4

    def test_dependency_cycle_is_an_error(self):
        tasks = [
            PoolTask("a", _echo, args=(1,), deps=("b",)),
            PoolTask("b", _echo, args=(2,), deps=("a",)),
        ]
        with pytest.raises(ValueError, match="dependency cycle"):
            WorkerPool(jobs=2).run(tasks)

    def test_unknown_dependency_is_an_error(self):
        with pytest.raises(ValueError, match="unknown"):
            WorkerPool(jobs=1).run(
                [PoolTask("a", _echo, args=(1,), deps=("ghost",))]
            )

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WorkerPool(jobs=1).run(
                [PoolTask("a", _echo, args=(1,)), PoolTask("a", _echo, args=(2,))]
            )


# -- persistent summary store ---------------------------------------------------


class TestPersistentSummaryStore:
    KEY = ("prog-fp", "proc", "au[P=,P1]", 0, None, None)

    def test_roundtrip(self, tmp_path):
        store = PersistentSummaryStore(str(tmp_path))
        assert store.get(self.KEY) is None  # miss
        payload = [("proc", {"entry": 1}, ["summary"])]
        store.put(self.KEY, payload)
        assert self.KEY in store
        assert len(store) == 1
        assert store.get(self.KEY) == payload
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["stores"] == 1 and stats["entries"] == 1

    def test_shared_between_instances(self, tmp_path):
        PersistentSummaryStore(str(tmp_path)).put(self.KEY, ["x"])
        other = PersistentSummaryStore(str(tmp_path))
        assert other.get(self.KEY) == ["x"]  # what a second worker sees

    def test_stale_fingerprint_self_invalidates(self, tmp_path):
        old = PersistentSummaryStore(str(tmp_path), fingerprint="old-schema")
        old.put(self.KEY, ["stale payload"])
        new = PersistentSummaryStore(str(tmp_path))  # real fingerprint
        assert new.get(self.KEY) is None
        assert new.stats()["stale_discards"] == 1
        assert len(new) == 0  # the stale entry was unlinked
        # ... and a fresh put under the new fingerprint hits again.
        new.put(self.KEY, ["fresh"])
        assert new.get(self.KEY) == ["fresh"]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = PersistentSummaryStore(str(tmp_path))
        store.put(self.KEY, ["ok"])
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{ torn json", encoding="utf-8")
        again = PersistentSummaryStore(str(tmp_path))
        assert again.get(self.KEY) is None
        assert again.stats()["disk_errors"] == 1

    def test_fingerprint_is_stable_within_a_process(self):
        assert schema_fingerprint() == schema_fingerprint()
        assert isinstance(schema_fingerprint(), str)

    def test_tmp_files_not_counted(self, tmp_path):
        store = PersistentSummaryStore(str(tmp_path))
        (tmp_path / ".tmp-abandoned.json").write_text("{}")
        store.put(self.KEY, ["x"])
        assert len(store) == 1


# -- shard planning -------------------------------------------------------------


class TestShardPlan:
    @pytest.fixture(scope="class")
    def analyzer(self):
        from repro.lang.benchlib import benchmark_program

        return Analyzer(benchmark_program())

    def test_every_proc_in_exactly_one_shard(self, analyzer):
        plan = plan_shards(analyzer.icfg)
        roots = plan.roots()
        assert sorted(roots) == sorted(set(roots))
        assert set(roots) == set(analyzer.icfg.call_graph())

    def test_callees_rank_below_callers(self, analyzer):
        plan = plan_shards(analyzer.icfg)
        rank = {s.shard_id: s.rank for s in plan}
        for shard in plan:
            for dep in shard.deps:
                assert rank[dep] < shard.rank

    def test_levels_partition_the_plan(self, analyzer):
        plan = plan_shards(analyzer.icfg)
        leveled = [s.shard_id for level in plan.levels() for s in level]
        assert sorted(leveled) == sorted(s.shard_id for s in plan)
        # Level 0 shards have no deps inside the plan.
        for shard in plan.levels()[0]:
            assert not shard.deps

    def test_subset_keeps_only_requested_roots(self, analyzer):
        plan = plan_shards(analyzer.icfg, ["quicksort", "qsplit"])
        assert sorted(plan.roots()) == ["qsplit", "quicksort"]
        # quicksort calls qsplit: its shard depends on qsplit's.
        by_root = {root: s for s in plan for root in s.roots}
        assert by_root["qsplit"].shard_id in by_root["quicksort"].deps

    def test_unknown_proc_rejected(self, analyzer):
        with pytest.raises(ValueError, match="unknown"):
            plan_shards(analyzer.icfg, ["nope"])


# -- batch determinism: parallel == sequential ----------------------------------


@pytest.mark.parametrize("path", _corpus_sources())
def test_corpus_parallel_equals_sequential(path):
    """jobs=4 batch summaries hash-identical to the inline baseline,
    for every root procedure of every corpus entry, in both domains."""
    from repro.fuzz.__main__ import load_corpus_entry

    source = load_corpus_entry(path).source
    domains = ("am", "au")
    sequential = Analyzer.from_source(source).analyze_batch(
        domains=domains, jobs=0
    )
    parallel = Analyzer.from_source(source).analyze_batch(
        domains=domains, jobs=JOBS
    )
    assert _sequential_hashes(parallel) == _sequential_hashes(sequential)


# Fast benchmark roots: covers the Figures 4-6 procedures (quicksort,
# qsplit) without the sorting-class AU runs that dominate wall time.
FIGURE_ROOTS = ["create", "addfst", "delfst", "init", "qsplit", "quicksort"]


def test_benchmark_parallel_equals_sequential_am():
    from repro.lang.benchlib import benchmark_program

    program = benchmark_program()
    sequential = Analyzer(program).analyze_batch(
        procs=FIGURE_ROOTS, domains=("am",), jobs=0
    )
    parallel = Analyzer(program).analyze_batch(
        procs=FIGURE_ROOTS, domains=("am",), jobs=JOBS
    )
    assert _sequential_hashes(parallel) == _sequential_hashes(sequential)


@pytest.mark.slow
def test_benchmark_parallel_equals_sequential_full():
    """Every Table 1 root in the AM domain (slow lane)."""
    from repro.lang.benchlib import TABLE1, benchmark_program

    program = benchmark_program()
    roots = [e.name for e in TABLE1]
    sequential = Analyzer(program).analyze_batch(
        procs=roots, domains=("am",), jobs=0
    )
    parallel = Analyzer(program).analyze_batch(
        procs=roots, domains=("am",), jobs=JOBS
    )
    assert _sequential_hashes(parallel) == _sequential_hashes(sequential)


def test_batch_matches_direct_analyze():
    """A batch outcome equals what a direct Analyzer.analyze call yields."""
    from repro.lang.benchlib import benchmark_program

    program = benchmark_program()
    report = Analyzer(program).analyze_batch(
        procs=["delfst"], domains=("am",), jobs=1
    )
    (outcome,) = report.outcomes
    assert outcome.status == "ok"
    result = Analyzer(program).analyze("delfst", domain="am")
    assert outcome.result.summary_hashes == result.summary_hashes()


def test_batch_fault_injection_retries_to_correct_result(tmp_path, monkeypatch):
    """Kill a batch worker mid-analysis; the retry must still produce the
    sequential result."""
    import repro.parallel.batch as batch_mod

    sentinel = str(tmp_path / "analysis-died")
    real_run = batch_mod.run_analysis_request

    def sabotaged(request):
        if not os.path.exists(sentinel):
            with open(sentinel, "w") as fh:
                fh.write("died")
            os.kill(os.getpid(), signal.SIGKILL)
        return real_run(request)

    monkeypatch.setattr(batch_mod, "run_analysis_request", sabotaged)
    from repro.lang.benchlib import benchmark_program

    program = benchmark_program()
    report = Analyzer(program).analyze_batch(
        procs=["delfst"], domains=("am",), jobs=1
    )
    (outcome,) = report.outcomes
    assert outcome.status == "ok"
    assert outcome.retries == 1
    monkeypatch.undo()
    baseline = Analyzer(program).analyze_batch(
        procs=["delfst"], domains=("am",), jobs=0
    )
    assert _sequential_hashes(report) == _sequential_hashes(baseline)


def test_batch_budget_reports_partial(tmp_path):
    """An engine wall budget fires cooperatively: the outcome is a
    structured ``budget`` record, not a crash."""
    from repro.lang.benchlib import benchmark_program

    report = Analyzer(benchmark_program()).analyze_batch(
        procs=["mergesort"], domains=("au",), jobs=1, max_seconds=0.05
    )
    (outcome,) = report.outcomes
    assert outcome.status == "budget"
    assert outcome.error["kind"] == "wall_clock"
    assert report.counts()["budget"] == 1
    assert not report.ok


def test_batch_store_warm_rerun(tmp_path):
    """A second batch over the same store answers from disk."""
    from repro.lang.benchlib import benchmark_program

    store_dir = str(tmp_path / "store")
    program = benchmark_program()
    cold = Analyzer(program).analyze_batch(
        procs=["delfst", "addfst"], domains=("am",), jobs=1, store_dir=store_dir
    )
    assert cold.ok
    assert not any(o.result.stats.get("from_cache") for o in cold.outcomes)
    assert len(PersistentSummaryStore(store_dir)) >= 2
    warm = Analyzer(program).analyze_batch(
        procs=["delfst", "addfst"], domains=("am",), jobs=1, store_dir=store_dir
    )
    assert warm.ok
    assert all(o.result.stats.get("from_cache") for o in warm.outcomes)
    assert _sequential_hashes(warm) == _sequential_hashes(cold)


def test_batch_merged_trace(tmp_path):
    """Per-worker telemetry traces merge into one ordered run trace."""
    from repro.lang.benchlib import benchmark_program

    trace_dir = str(tmp_path / "traces")
    merged = str(tmp_path / "run.trace.jsonl")
    report = Analyzer(benchmark_program()).analyze_batch(
        procs=["delfst", "addfst"],
        domains=("am",),
        jobs=2,
        trace_dir=trace_dir,
        trace_path=merged,
    )
    assert report.ok
    assert report.trace_path == merged
    events = [json.loads(line) for line in open(merged)]
    assert events
    tasks = {e["task"] for e in events}
    assert tasks == {"delfst.am", "addfst.am"}
    assert [e["gseq"] for e in events] == list(range(1, len(events) + 1))
    assert all(e["ts"] <= e2["ts"] for e, e2 in zip(events, events[1:]))


# -- telemetry: wall vs CPU split, trace merging --------------------------------


def test_telemetry_splits_wall_and_cpu():
    from repro.engine.telemetry import Telemetry

    tel = Telemetry()
    with tel.phase("sleepy"):
        time.sleep(0.05)
    report = tel.report()
    assert report["time.sleepy"] >= 0.05
    # Sleeping burns wall time, not CPU.
    assert report["cpu.sleepy"] < report["time.sleepy"]


def test_merge_traces_orders_and_labels(tmp_path):
    a = tmp_path / "alpha.trace.jsonl"
    b = tmp_path / "beta.trace.jsonl"
    a.write_text(
        json.dumps({"ts": 2.0, "seq": 0, "kind": "x"})
        + "\n"
        + json.dumps({"ts": 4.0, "seq": 1, "kind": "y"})
        + "\n"
    )
    b.write_text(
        json.dumps({"ts": 1.0, "seq": 0, "kind": "z"})
        + "\n"
        + "{ torn line"  # a crashed worker's final partial write
    )
    out = tmp_path / "merged.jsonl"
    count = merge_traces([str(a), str(b)], str(out))
    events = [json.loads(line) for line in open(out)]
    assert count == len(events) == 3  # torn line skipped, not fatal
    assert [e["task"] for e in events] == ["beta", "alpha", "alpha"]
    assert [e["gseq"] for e in events] == [1, 2, 3]


# -- exact-LP memoization -------------------------------------------------------


def test_lp_memo_is_order_independent():
    from repro.numeric import simplex
    from repro.numeric.linexpr import Constraint, LinExpr

    simplex.clear_caches()
    x = LinExpr.var("x")
    y = LinExpr.var("y")
    cons = [
        Constraint.ge(x, 1),
        Constraint.le(x, 5),
        Constraint.ge(y, x),
    ]
    first = simplex.solve_lp(cons, x)
    before = simplex.cache_stats()
    # Same system, different constraint order: must hit, same optimum.
    second = simplex.solve_lp(list(reversed(cons)), x)
    after = simplex.cache_stats()
    assert after["solve_hits"] == before["solve_hits"] + 1
    assert after["solve_misses"] == before["solve_misses"]
    assert second.status == first.status and second.value == first.value


def test_lp_memo_counters_reach_engine_stats():
    from repro.lang.benchlib import benchmark_program

    result = Analyzer(benchmark_program()).analyze("delfst", domain="au")
    lp = result.stats["lp_cache"]
    assert set(lp) == {"solve_hits", "solve_misses", "solve_entries"}
    assert lp["solve_hits"] >= 0 and lp["solve_misses"] >= 0


# -- fuzz corpus saving under concurrency ---------------------------------------


def test_save_corpus_entry_race_free(tmp_path):
    from repro.fuzz.__main__ import save_corpus_entry
    from repro.fuzz.oracle import Finding

    finding = Finding(
        kind="gamma",
        domain="am",
        root="main",
        message="disagreement",
        source="proc main() {}",
        seed=7,
    )
    first = save_corpus_entry(tmp_path, finding)
    second = save_corpus_entry(tmp_path, finding)  # same stem: must not clobber
    assert first != second
    assert first.exists() and second.exists()
    assert second.name.endswith("_1.lisl")
    assert not list(tmp_path.glob(".tmp-*"))  # no temp litter
