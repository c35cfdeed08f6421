"""Tests of the parallel batch-analysis subsystem (``repro.parallel``).

Three layers:

- **pool**: fault isolation (a worker SIGKILLing itself mid-task is
  retried once and succeeds), budgets (cooperative and hard kills),
  dependency scheduling, deterministic submission-order join;
- **store**: atomic one-file-per-key persistence, schema-fingerprint
  self-invalidation, corrupt-entry tolerance; pack compaction (reads
  stay correct through and after it, a racing writer is never lost),
  byte-budget GC of a 10k-key store, warm == cold after eviction, a
  bounded parsed-pack cache and the ``repro-store`` CLI;
- **batch determinism**: the headline property — a parallel batch run
  (jobs=4) produces byte-identical summary hashes to the sequential
  baseline (jobs=0) on every corpus entry and on the paper's benchmark
  program (the Figures 4-6 / Table 1 procedures).
"""

import json
import os
import signal
import subprocess
import sys
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
from repro.parallel.store import COMPACT_MIN_LOOSE, PARSED_PACKS
from repro.parallel.store import main as store_main

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


def _over_budget():
    from repro.core.interproc import AnalysisBudgetExceeded

    raise AnalysisBudgetExceeded("too slow", kind="wall_clock", limit=1)


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

    def test_inline_pool_maps_statuses_like_workers(self):
        seen = []
        outcomes = WorkerPool(jobs=0).run(
            [
                PoolTask("echo", _echo, args=("x",)),
                PoolTask("raises", _boom),
                PoolTask("budget", _over_budget),
            ],
            on_outcome=lambda outcome: seen.append(outcome.task_id),
        )
        assert seen == ["echo", "raises", "budget"]  # submission order
        ok, failed, budget = outcomes
        assert ok.status == "ok" and ok.result == "x"
        assert ok.cpu_time is not None and ok.worker_pid is None
        assert failed.status == "failed"
        assert failed.error["type"] == "ValueError"
        assert "intentional" in failed.error["message"]
        assert budget.status == "budget"
        assert budget.error["kind"] == "wall_clock"

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

    def test_fingerprint_covers_every_module_a_summary_loads(
        self, tmp_path, monkeypatch
    ):
        # The fingerprint must change whenever a class inside a pickled
        # AM or AU summary changes, so it has to hash the source of every
        # repro module that unpickling such a summary loads a class from.
        import base64
        import inspect
        import io
        import pickle

        import repro.parallel.store as store_mod

        hashed = set()
        real_getsource = inspect.getsource

        def recording_getsource(module):
            hashed.add(module.__name__)
            return real_getsource(module)

        monkeypatch.setattr(store_mod.inspect, "getsource", recording_getsource)
        monkeypatch.setattr(store_mod, "_fingerprint_cache", None)
        schema_fingerprint()
        monkeypatch.undo()

        store = PersistentSummaryStore(str(tmp_path))
        analyzer = Analyzer.from_source(
            "proc addfst(x: list, d: int) returns (r: list) {"
            " local t: list; t = new; t->data = d; t->next = x; r = t; }",
            cache=store,
        )
        for domain in ("am", "au"):
            assert analyzer.analyze("addfst", domain=domain).ok

        loaded = set()

        class Recording(pickle.Unpickler):
            def find_class(self, module, name):
                loaded.add(module)
                return super().find_class(module, name)

        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 2
        for entry in entries:
            payload = json.loads(entry.read_text(encoding="utf-8"))["payload"]
            Recording(io.BytesIO(base64.b64decode(payload))).load()
        loaded = {m for m in loaded if m.split(".")[0] == "repro"}
        assert {"repro.numeric.linexpr", "repro.numeric.polyhedra"} <= loaded
        assert loaded <= hashed, sorted(loaded - hashed)

    def test_tmp_files_not_counted(self, tmp_path):
        store = PersistentSummaryStore(str(tmp_path))
        (tmp_path / ".tmp-abandoned.json").write_text("{}")
        store.put(self.KEY, ["x"])
        assert len(store) == 1

    def test_clear_keeps_in_flight_writes(self, tmp_path):
        store = PersistentSummaryStore(str(tmp_path))
        store.put(self.KEY, ["x"])
        assert store.compact() == 1
        store.put(("other",), ["y"])
        (tmp_path / ".tmp-in-flight.json").write_text("{}")
        store.clear()
        assert len(store) == 0 and store.total_bytes() == 0
        assert (tmp_path / ".tmp-in-flight.json").exists()

    # -- packs, compaction and GC ----------------------------------------------

    def test_pack_roundtrip_preserves_every_key(self, tmp_path):
        store = PersistentSummaryStore(str(tmp_path))
        for i in range(50):
            store.put(("k", i), {"v": i})
        assert store.compact() == 50
        assert store.loose_count() == 0
        assert store.packed_count() == 50
        for i in range(50):
            assert store.get(("k", i)) == {"v": i}
            assert ("k", i) in store

    def test_writer_racing_compaction_is_never_lost(self, tmp_path, monkeypatch):
        # A writer that lands a loose file *after* compaction scanned the
        # directory keeps its entry: compaction only unlinks the files it
        # packed, and reads prefer loose files over packs.
        import repro.parallel.store as store_mod

        store = PersistentSummaryStore(str(tmp_path))
        writer = PersistentSummaryStore(str(tmp_path))  # separate handle
        for i in range(20):
            store.put(("k", i), {"v": i})
        real_listdir = os.listdir
        raced = {"done": False}

        def listdir_then_write(path):
            names = real_listdir(path)
            if not raced["done"] and path == str(tmp_path):
                raced["done"] = True
                writer.put(("late", 99), {"late": True})
            return names

        monkeypatch.setattr(store_mod.os, "listdir", listdir_then_write)
        assert store.compact() == 20
        monkeypatch.undo()
        assert raced["done"]
        assert store.get(("late", 99)) == {"late": True}
        for i in range(20):
            assert store.get(("k", i)) == {"v": i}

    def test_generations_stack_and_newest_wins(self, tmp_path):
        store = PersistentSummaryStore(str(tmp_path))
        store.put(("a",), {"gen": 1})
        assert store.compact() == 1
        store.put(("b",), {"gen": 2})
        assert store.compact() == 1
        # The same key re-packed later resolves to the newer pack.
        store.put(("a",), {"gen": 3})
        assert store.compact() == 1
        assert store.stats()["packs"] == 3
        assert store.get(("a",)) == {"gen": 3}
        assert store.get(("b",)) == {"gen": 2}

    def test_parsed_packs_stay_bounded(self, tmp_path):
        writer = PersistentSummaryStore(str(tmp_path))
        packs = PARSED_PACKS + 3
        for gen in range(packs):
            writer.put(("k", gen), {"gen": gen})
            assert writer.compact() == 1
        reader = PersistentSummaryStore(str(tmp_path))
        stats = reader.stats()  # what a gateway `status` call runs
        assert stats["packs"] == packs and stats["packed"] == packs
        assert len(reader._parsed_packs) <= PARSED_PACKS
        for gen in range(packs):
            assert reader.get(("k", gen)) == {"gen": gen}
        assert len(reader._parsed_packs) <= PARSED_PACKS
        assert reader.pack_hits == packs

    def test_maintain_compacts_only_past_the_threshold(self, tmp_path):
        store = PersistentSummaryStore(str(tmp_path))
        for i in range(COMPACT_MIN_LOOSE - 1):
            store.put(("k", i), i)
        assert store.maintain()["compacted"] == 0
        store.put(("k", "last"), "last")
        assert store.maintain()["compacted"] == COMPACT_MIN_LOOSE
        assert store.stats()["compactions"] == 1

    def test_gc_keeps_10k_key_store_under_budget(self, tmp_path):
        budget = 256 * 1024
        store = PersistentSummaryStore(str(tmp_path))
        for i in range(10_000):
            store.put(("key", i), {"summary": i, "payload": "x" * 32})
            if i % 1000 == 999:  # the gateway's periodic maintenance
                store.maintain(budget)
        assert store.total_bytes() <= budget
        stats = store.stats()
        assert stats["compactions"] >= 1  # generations were packed...
        assert stats["gc_evicted_files"] >= 1  # ...and the oldest evicted
        # Whatever survived still reads back exactly.
        alive = sum(
            1 for i in range(10_000) if store.get(("key", i)) is not None
        )
        assert 0 < alive < 10_000

    def test_warm_reanalysis_after_eviction_matches_cold(self, tmp_path):
        # Evicting the whole store between runs must not change results:
        # a store miss recomputes the byte-identical summaries.
        from repro.lang import parse_source
        from repro.service.frontend import Frontend
        from repro.service.session import Session

        chain = (
            "proc leaf(x: list) returns (r: list) { r = x; }\n"
            "proc mid(x: list) returns (r: list) { r = leaf(x); }\n"
            "proc top(x: list) returns (r: list) { r = mid(x); }\n"
            "proc other(x: list) returns (r: list) { r = x; }\n"
        )
        edited = chain.replace(
            "{ r = x; }", "{ local t: int; r = x; t = 1; }", 1
        )
        store_dir = str(tmp_path / "store")
        session = Session(
            Frontend(parse_source(chain)), store_dir=store_dir, jobs=0
        )
        session.analyze(domains=("am",))
        PersistentSummaryStore(store_dir).gc(max_bytes=0)  # evict everything
        assert len(PersistentSummaryStore(store_dir)) == 0
        session.update_source(edited)
        warm = session.analyze(domains=("am",))
        cold = Analyzer.from_source(edited).analyze_batch(
            domains=("am",), jobs=0
        )
        cold_hashes = {
            out.task_id: out.result.summary_hashes for out in cold.outcomes
        }
        warm_hashes = {
            tid: out.summary_hashes for tid, out in warm.outputs.items()
        }
        assert warm_hashes == cold_hashes
        session.close()

    def test_cli_compacts_then_evicts_everything(self, tmp_path, capsys):
        store = PersistentSummaryStore(str(tmp_path))
        for i in range(5):
            store.put(("k", i), {"v": i})
        assert store_main([str(tmp_path), "--compact"]) == 0
        assert "compacted: 5" in capsys.readouterr().out
        assert store.loose_count() == 0 and store.packed_count() == 5
        assert store_main(
            [str(tmp_path), "--gc", "--max-bytes", "0", "--stats", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gc"] == {
            "evicted_files": 1,
            "evicted_bytes": report["gc"]["evicted_bytes"],
            "bytes": 0,
        }
        assert report["stats"]["entries"] == 0
        assert report["stats"]["gc_runs"] == 1
        assert store_main([str(tmp_path / "missing")]) == 2

    def test_module_cli_runs_without_warnings(self, tmp_path):
        PersistentSummaryStore(str(tmp_path)).put(("k",), {"v": 1})
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.parallel.store", str(tmp_path),
             "--stats", "--json"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["stats"]["entries"] == 1

    @pytest.mark.parametrize("key_mode", ["program", "cone"])
    def test_request_reports_counters_without_listing_the_store(
        self, tmp_path, monkeypatch, key_mode
    ):
        from repro.lang import parse_source
        from repro.parallel import AnalysisRequest, run_analysis_request

        store_dir = str(tmp_path / "store")
        request = AnalysisRequest(
            task_id="id.am",
            program=parse_source("proc id(x: list) returns (r: list) { r = x; }"),
            proc="id",
            domain="am",
            store_dir=store_dir,
            key_mode=key_mode,
        )
        listed = []
        real_listdir = os.listdir

        def spy(path="."):
            listed.append(os.path.realpath(path))
            return real_listdir(path)

        monkeypatch.setattr(os, "listdir", spy)
        cold = run_analysis_request(request)
        warm = run_analysis_request(request)
        assert os.path.realpath(store_dir) not in listed
        assert cold.stats["store"]["stores"] >= 1
        assert warm.stats["store"]["hits"] >= 1 and warm.stats["store"]["stores"] == 0
        assert set(warm.stats["store"]) < set(PersistentSummaryStore(store_dir).stats())


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
