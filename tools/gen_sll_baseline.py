"""Regenerate the prev-free summary-hash baseline.

The DLL PR promises bit-identical summaries for every program that never
touches ``prev``.  This script records canonical (graph_hash,
heapset_hash) pairs for the Table 1 benchmarks and every checked-in
corpus entry into ``tests/baseline_summary_hashes.json``; the identity
gate in ``tests/test_dll.py`` regenerates the same hashes and compares.

The committed artifact was produced from the pre-DLL tree, so the gate
proves the DLL wiring is invisible to SLL programs.  Rerun only when an
*intentional* representation change lands:

    PYTHONPATH=src python tools/gen_sll_baseline.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.api import Analyzer  # noqa: E402
from repro.fuzz.__main__ import load_corpus_entry  # noqa: E402
from repro.lang.benchlib import TABLE1, benchmark_program  # noqa: E402

OUT = ROOT / "tests" / "baseline_summary_hashes.json"

# Every Table 1 benchmark in AM; AU only where the fixpoint is cheap
# enough for a tier-1 test (the sort/fold AU rows run for minutes).
AM_BENCHMARKS = [e.name for e in TABLE1]
AU_BENCHMARKS = ["create", "addfst", "delfst", "init", "mapadd"]

# Corpus rows whose AU fixpoint alone takes >1min; AM still covers them.
SLOW_AU_CORPUS = {"nested_sweep.lisl"}


def summary_hashes(analyzer: Analyzer, proc: str, domain: str):
    result = analyzer.analyze(proc, domain=domain, max_steps=400_000)
    # JSON lists, so the committed baseline compares equal on reload.
    return sorted(list(pair) for pair in result.summary_hashes())


def corpus_entries():
    corpus = ROOT / "tests" / "corpus"
    for path in sorted(corpus.rglob("*.lisl")):
        yield path.relative_to(corpus).as_posix(), path


def build_baseline():
    baseline = {"benchmarks": {}, "corpus": {}}
    analyzer = Analyzer(benchmark_program())
    for name in AM_BENCHMARKS:
        baseline["benchmarks"][f"{name}/am"] = summary_hashes(analyzer, name, "am")
    for name in AU_BENCHMARKS:
        baseline["benchmarks"][f"{name}/au"] = summary_hashes(analyzer, name, "au")
    for rel, path in corpus_entries():
        source = path.read_text()
        if "prev" in source:
            continue  # DLL corpus entries are outside the SLL identity gate
        if "// root:" in source:
            # Fuzz corpus entry: analyze its designated root in its domain.
            entry = load_corpus_entry(path)
            roots = [entry.root]
            domains = [entry.domain or "au"]
        else:
            # Checker/termination corpus: every proc, both domains.
            roots = None
            domains = ["am", "au"]
            if path.name in SLOW_AU_CORPUS:
                domains = ["am"]
        an = Analyzer.from_source(source)
        procs = (
            roots
            if roots is not None
            else sorted(p.name for p in an.program.procedures)
        )
        for domain in domains:
            for proc in procs:
                baseline["corpus"][f"{rel}/{proc}/{domain}"] = summary_hashes(
                    an, proc, domain
                )
    return baseline


def main():
    baseline = build_baseline()
    OUT.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    n = len(baseline["benchmarks"]) + len(baseline["corpus"])
    print(f"wrote {OUT} ({n} rows)")


if __name__ == "__main__":
    main()
