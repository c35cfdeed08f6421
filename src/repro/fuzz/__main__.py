"""Fuzzing CLI: ``python -m repro.fuzz --seed N --iters K --corpus DIR``.

Two phases:

1. **Corpus replay** (when ``--corpus`` is given): every ``*.lisl`` entry
   under the corpus directory is re-checked by the oracle.  Entries are
   plain LISL source files with a ``// key: value`` header recording the
   root procedure, the failure kind/domain they once exhibited, and the
   input views to replay.  A replayed entry fails the run iff the oracle
   reports any finding on it today (regressions resurface here).
2. **Fresh fuzzing**: ``--iters`` programs are generated from ``--seed``
   and checked.  Each failure is minimized by the shrinker and, with
   ``--corpus``, saved as a new corpus entry; the run exits non-zero.

``--time-budget S`` stops fresh fuzzing after ~S seconds (used by the CI
slow lane); the seed corpus is always replayed in full.

The judge is one of four lanes, all :class:`~repro.fuzz.oracle.DifferentialOracle`
subclasses over the one :class:`~repro.fuzz.oracle.OracleConfig`, so
they share the generator, the corpus/shrink/pool machinery and the
concrete-run loop:

- default: gamma-soundness and lattice laws (:mod:`repro.fuzz.oracle`);
- ``--check-safety``: a concrete null-deref/leak/cycle landing on a
  *safe* Tier-B verdict is a failure (:mod:`repro.checker.crosscheck`);
- ``--check-termination``: a concrete run breaking a *terminating*
  certificate is a failure (:mod:`repro.termination.crosscheck`);
- ``--check-kernels``: summary hashes under the fast and reference
  kernels must be identical (:mod:`repro.fuzz.kernelcheck`).

The three flags are exclusive (exit status 2 when combined).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.checker.crosscheck import CrossChecker
from repro.fuzz.kernelcheck import KernelChecker
from repro.fuzz.oracle import DifferentialOracle, Finding, Oracle, OracleConfig
from repro.fuzz.progen import GenConfig, generate_program
from repro.fuzz.shrink import shrink_finding
from repro.termination.crosscheck import TerminationCrossChecker


@dataclass
class CorpusEntry:
    root: str
    kind: str
    domain: str
    inputs: List[List]  # one views-list per recorded observation
    source: str
    path: Optional[Path] = None


def load_corpus_entry(path: Path) -> CorpusEntry:
    text = path.read_text()
    meta = {"root": "", "kind": "", "domain": ""}
    inputs: List[List] = []
    for line in text.splitlines():
        if not line.startswith("//"):
            continue
        body = line[2:].strip()
        if ":" not in body:
            continue
        key, _, value = body.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "inputs":
            inputs.append(json.loads(value))
        elif key in meta:
            meta[key] = value
    if not meta["root"]:
        raise ValueError(f"{path}: corpus entry lacks a '// root:' header")
    return CorpusEntry(
        root=meta["root"],
        kind=meta["kind"],
        domain=meta["domain"],
        inputs=inputs,
        source=text,
        path=path,
    )


def save_corpus_entry(directory: Path, finding: Finding) -> Path:
    """Save a shrunk failure as a corpus entry, race-free.

    Pool workers save concurrently, so the exists-then-write idiom would
    lose entries to the check/write race.  Instead the entry is written
    to a unique temporary file and *linked* to its final name —
    ``os.link`` is atomic and fails with ``FileExistsError`` when another
    worker claimed the name first, in which case the suffix is bumped and
    the link retried.
    """
    import os

    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{finding.kind}_{finding.domain}_{finding.seed}"
    header = [
        "// fuzz-corpus",
        f"// root: {finding.root}",
        f"// kind: {finding.kind}",
        f"// domain: {finding.domain}",
    ]
    if finding.inputs is not None:
        header.append(f"// inputs: {json.dumps(finding.inputs)}")
    header.append(f"// message: {finding.message.splitlines()[0][:200]}")
    content = "\n".join(header) + "\n\n" + finding.source

    tmp = directory / f".tmp-{stem}-{os.getpid()}"
    tmp.write_text(content)
    try:
        path = directory / f"{stem}.lisl"
        n = 1
        while True:
            try:
                os.link(tmp, path)
                return path
            except FileExistsError:
                path = directory / f"{stem}_{n}.lisl"
                n += 1
    finally:
        tmp.unlink()


def replay_corpus(directory: Path, oracle: DifferentialOracle) -> Tuple[int, int]:
    """Re-check every corpus entry; returns (entries, failures)."""
    entries = sorted(directory.glob("*.lisl"))
    failures = 0
    for path in entries:
        entry = load_corpus_entry(path)
        findings = oracle.check_source(entry.source, entry.root, entry.inputs)
        if findings:
            failures += 1
            print(f"CORPUS FAIL {path}:")
            for f in findings:
                print("  " + f.describe().replace("\n", "\n  "))
        else:
            print(f"corpus ok   {path}")
    return len(entries), failures


def fuzz(
    seed: int,
    iters: int,
    oracle: DifferentialOracle,
    gen_config: GenConfig,
    corpus_dir: Optional[Path],
    time_budget: Optional[float],
    shrink_checks: int,
    start: int = 0,
    quiet: bool = False,
) -> List[Finding]:
    """Check ``iters`` generated programs starting at iteration ``start``.

    Iteration ``i`` always derives the same program seed regardless of
    how the range is chunked, so a pool run over disjoint ranges checks
    exactly the same programs as one sequential run.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    failures: List[Finding] = []
    seen_signatures = set()

    def say(message: str) -> None:
        if not quiet:
            print(message)

    for i in range(start, start + iters):
        if deadline is not None and time.monotonic() > deadline:
            say(f"time budget reached after {i - start} iterations")
            break
        iter_seed = seed * 1_000_003 + i
        program, root = generate_program(iter_seed, gen_config)
        findings = oracle.check_program(program, root, iter_seed)
        if (i - start + 1) % 20 == 0:
            say(f".. {i - start + 1}/{iters} programs checked")
        for finding in findings:
            finding.seed = iter_seed
            say(f"FAIL (iter {i}, seed {iter_seed}):")
            say("  " + finding.describe().replace("\n", "\n  "))
            if finding.signature() not in seen_signatures:
                say("  shrinking ...")
                finding = shrink_finding(
                    finding, oracle, max_checks=shrink_checks
                )
                say("  shrunk to:")
                say("  " + finding.source.replace("\n", "\n  "))
            seen_signatures.add(finding.signature())
            failures.append(finding)
            if corpus_dir is not None:
                saved = save_corpus_entry(corpus_dir, finding)
                say(f"  saved corpus entry {saved}")
    return failures


#: The differential judge per lane (``--check-<lane>``; ``gamma`` when no
#: flag is given).  The fuzz loop, shrinker and corpus replay only call
#: the :class:`DifferentialOracle` interface, so they are lane-agnostic.
LANES = {
    "gamma": Oracle,
    "safety": CrossChecker,
    "termination": TerminationCrossChecker,
    "kernels": KernelChecker,
}


def _fuzz_chunk(
    seed: int,
    start: int,
    count: int,
    oracle_config: OracleConfig,
    gen_config: GenConfig,
    corpus_dir: Optional[Path],
    time_budget: Optional[float],
    shrink_checks: int,
    lane: str = "gamma",
) -> dict:
    """Pool worker: fuzz one contiguous iteration range.

    Workers save their own shrunk corpus entries (``save_corpus_entry``
    is race-free) and return findings plus skip accounting for the
    parent to aggregate.  Signature dedup is per-chunk; duplicate
    signatures across chunks are deduplicated by the parent.
    """
    oracle = LANES[lane](oracle_config)
    failures = fuzz(
        seed=seed,
        iters=count,
        oracle=oracle,
        gen_config=gen_config,
        corpus_dir=corpus_dir,
        time_budget=time_budget,
        shrink_checks=shrink_checks,
        start=start,
        quiet=True,
    )
    return {"failures": failures, "skips": dict(oracle.skips)}


def fuzz_parallel(
    seed: int,
    iters: int,
    jobs: int,
    oracle_config: OracleConfig,
    gen_config: GenConfig,
    corpus_dir: Optional[Path],
    time_budget: Optional[float],
    shrink_checks: int,
    lane: str = "gamma",
) -> Tuple[List[Finding], dict]:
    """Fan iteration ranges out over the worker pool.

    Returns (failures, aggregated skip counters).  The same ``seed``
    checks the same programs as a sequential run; only wall-clock-budget
    stops and cross-chunk shrink dedup may differ.
    """
    from repro.parallel.pool import PoolTask, WorkerPool

    chunk = (iters + jobs - 1) // jobs
    tasks = []
    for worker in range(jobs):
        start = worker * chunk
        count = min(chunk, iters - start)
        if count <= 0:
            break
        tasks.append(
            PoolTask(
                task_id=f"fuzz[{start}:{start + count}]",
                fn=_fuzz_chunk,
                args=(
                    seed,
                    start,
                    count,
                    oracle_config,
                    gen_config,
                    corpus_dir,
                    time_budget,
                    shrink_checks,
                    lane,
                ),
            )
        )
    pool = WorkerPool(jobs=jobs)
    failures: List[Finding] = []
    skips: dict = {}
    for outcome in pool.run(tasks):
        print(f"  {outcome.describe()}", flush=True)
        if outcome.status != "ok":
            # A crashed/failed chunk is itself a finding: the fuzzer or
            # oracle died. Surface it as a synthetic crash failure.
            failures.append(
                Finding(
                    kind="crash",
                    domain="-",
                    root="-",
                    message=f"fuzz chunk {outcome.task_id} {outcome.status}: "
                    f"{(outcome.error or {}).get('message', '')}",
                    source="",
                )
            )
            continue
        failures.extend(outcome.result["failures"])
        for key, value in outcome.result["skips"].items():
            skips[key] = skips.get(key, 0) + value
    for finding in failures:
        if finding.source:
            print(f"FAIL (seed {finding.seed}):")
            print("  " + finding.describe().replace("\n", "\n  "))
    return failures, skips


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="differential fuzzing of the list/data analysis",
    )
    ap.add_argument("--seed", type=int, default=0, help="base RNG seed")
    ap.add_argument("--iters", type=int, default=100, help="programs to generate")
    ap.add_argument(
        "--corpus",
        type=Path,
        default=None,
        help="corpus directory: replayed first, new failures saved here",
    )
    ap.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="stop fresh fuzzing after ~S seconds (corpus always replays)",
    )
    ap.add_argument(
        "--rounds", type=int, default=5, help="concrete runs per program"
    )
    ap.add_argument(
        "--max-procs", type=int, default=3, help="procedures per program"
    )
    ap.add_argument(
        "--skip-au",
        action="store_true",
        help="check only the (fast) AM domain",
    )
    ap.add_argument(
        "--dll",
        action="store_true",
        help="generate doubly-linked idioms (prev stores/loads); inputs "
        "become well-formed DLLs and outputs are audited against the "
        "concrete back-pointer invariant",
    )
    ap.add_argument(
        "--check-safety",
        action="store_true",
        help="cross-validate Tier-B checker verdicts against concrete "
        "runs instead of gamma-checking summaries",
    )
    ap.add_argument(
        "--check-termination",
        action="store_true",
        help="cross-validate termination certificates against concrete "
        "runs (a run past a derived bound refutes 'terminating')",
    )
    ap.add_argument(
        "--check-kernels",
        action="store_true",
        help="cross-validate optimized kernels against reference: "
        "summary hashes must be bit-identical in both modes",
    )
    ap.add_argument(
        "--shrink-checks",
        type=int,
        default=150,
        help="oracle evaluations the shrinker may spend per failure",
    )
    ap.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for fresh fuzzing (seeds are identical "
        "to a sequential run; corpus saves are race-free)",
    )
    args = ap.parse_args(argv)
    if sum([args.check_safety, args.check_termination,
            args.check_kernels]) > 1:
        print("error: --check-safety, --check-termination and "
              "--check-kernels are exclusive", file=sys.stderr)
        return 2

    lane = (
        "safety" if args.check_safety
        else "termination" if args.check_termination
        else "kernels" if args.check_kernels
        else "gamma"
    )
    oracle_config = OracleConfig(
        rounds=args.rounds,
        domains=("am",)
        if (args.skip_au or lane in ("safety", "termination"))
        else ("am", "au"),
    )
    oracle = LANES[lane](oracle_config)
    gen_config = GenConfig(n_procs=args.max_procs, dll=args.dll)

    corpus_failures = 0
    if args.corpus is not None and args.corpus.is_dir():
        n_entries, corpus_failures = replay_corpus(args.corpus, oracle)
        print(f"corpus replay: {n_entries} entries, {corpus_failures} failures")

    skips = oracle.skips
    if args.jobs > 1 and args.iters > 0:
        failures, fuzz_skips = fuzz_parallel(
            seed=args.seed,
            iters=args.iters,
            jobs=args.jobs,
            oracle_config=oracle_config,
            gen_config=gen_config,
            corpus_dir=args.corpus,
            time_budget=args.time_budget,
            shrink_checks=args.shrink_checks,
            lane=lane,
        )
        skips = {
            key: skips.get(key, 0) + fuzz_skips.get(key, 0)
            for key in set(skips) | set(fuzz_skips)
        }
    else:
        failures = fuzz(
            seed=args.seed,
            iters=args.iters,
            oracle=oracle,
            gen_config=gen_config,
            corpus_dir=args.corpus,
            time_budget=args.time_budget,
            shrink_checks=args.shrink_checks,
        )
    skip_note = ", ".join(
        f"{skips[key]} {key}" for key in sorted(skips)
    ) or "none"
    print(
        f"fuzzing done: {len(failures)} failure(s), "
        f"{corpus_failures} corpus regression(s); skips: {skip_note}"
    )
    return 1 if (failures or corpus_failures) else 0


if __name__ == "__main__":
    sys.exit(main())
