"""Oracle tests: clean on shipped code, and -- crucially -- able to catch
deliberately injected soundness bugs (guards against a vacuously-passing
fuzzer)."""

import random
import re
from fractions import Fraction

import pytest

from repro.datawords import terms as T
from repro.datawords.multiset import MultisetDomain, MultisetValue
from repro.fuzz.__main__ import LANES
from repro.fuzz.__main__ import main as fuzz_main
from repro.fuzz.oracle import Oracle, OracleConfig
from repro.fuzz.progen import GenConfig, generate_program
from repro.lang.benchlib import benchmark_program
from repro.lang.typecheck import typecheck_program

AM_ONLY = OracleConfig(rounds=4, domains=("am",))


def test_oracle_clean_on_benchmark_procs():
    program = typecheck_program(benchmark_program())
    oracle = Oracle(AM_ONLY)
    rng = random.Random(7)
    for proc in ("addfst", "delfst", "mapadd"):
        views_list = [
            [
                [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))]
                if p.type == "list"
                else rng.randint(-5, 5)
                for p in program.proc(proc).inputs
            ]
            for _ in range(4)
        ]
        findings = oracle.check_views(program, proc, views_list)
        assert findings == [], [f.describe() for f in findings]


@pytest.mark.parametrize("seed", range(6))
def test_oracle_clean_on_generated_programs(seed):
    program, root = generate_program(seed)
    findings = Oracle(AM_ONLY).check_program(program, root, seed)
    assert findings == [], [f.describe() for f in findings]


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(6, 30))
def test_oracle_clean_on_generated_programs_slow(seed):
    program, root = generate_program(seed)
    findings = Oracle(OracleConfig(rounds=4)).check_program(program, root, seed)
    assert findings == [], [f.describe() for f in findings]


def _unsound_split(self, value, word, tail):
    """Mutant of ``unfold#``'s AM leg: keeps the stale ``mtl(word)`` rows
    (which describe the word *before* the head cell was peeled off) while
    still asserting the remaining head word is a singleton.  The stale
    rows are unsound constraints on the post-split state."""
    if value.is_bot:
        return value
    rows = list(value.rows)
    rows.append({T.mtl(word): Fraction(1)})
    return MultisetValue(rows)


MUTANT_ITERATION_BOUND = 25


def test_mutant_unsound_split_is_caught(monkeypatch):
    monkeypatch.setattr(MultisetDomain, "split", _unsound_split)
    oracle = Oracle(AM_ONLY)
    for seed in range(MUTANT_ITERATION_BOUND):
        program, root = generate_program(seed)
        findings = [
            f
            for f in oracle.check_program(program, root, seed)
            if f.kind in ("gamma", "no_shape")
        ]
        if findings:
            return  # caught within the bound
    pytest.fail(
        f"unsound split mutant survived {MUTANT_ITERATION_BOUND} "
        f"fuzzing iterations -- the oracle is vacuous"
    )


def _broken_widen(self, value1, value2):
    """Mutant: 'widen' by meet -- not an upper bound of join."""
    return self.meet(value1, value2)


def test_mutant_broken_widen_caught_by_lattice_oracle(monkeypatch):
    monkeypatch.setattr(MultisetDomain, "widen", _broken_widen)
    oracle = Oracle(AM_ONLY)
    for seed in range(MUTANT_ITERATION_BOUND):
        program, root = generate_program(seed)
        findings = [
            f
            for f in oracle.check_program(program, root, seed)
            if f.kind == "lattice"
        ]
        if findings:
            assert any(
                "widen" in f.message for f in findings
            ), [f.describe() for f in findings]
            return
    pytest.fail(
        f"broken-widen mutant survived {MUTANT_ITERATION_BOUND} "
        f"fuzzing iterations -- the lattice oracle is vacuous"
    )


LANE_FLAGS = {
    "gamma": [],
    "safety": ["--check-safety"],
    "termination": ["--check-termination"],
    "kernels": ["--check-kernels"],
}


@pytest.mark.parametrize(
    "lane,jobs",
    [pytest.param(lane, 1, id=lane) for lane in LANE_FLAGS]
    + [pytest.param("termination", 2, id="termination-jobs2")],
)
def test_fuzz_cli_lane(lane, jobs, capsys):
    """Every lane runs clean through the CLI and reports its own skips."""
    code = fuzz_main(
        LANE_FLAGS[lane]
        + ["--skip-au", "--iters", "3", "--seed", "3", "--rounds", "2",
           "--jobs", str(jobs)]
    )
    out = capsys.readouterr().out
    assert code == 0
    done = [line for line in out.splitlines() if line.startswith("fuzzing done")]
    assert done[-1].startswith("fuzzing done: 0 failure(s), 0 corpus regression(s)")
    for key in LANES[lane].skip_keys:
        assert re.search(rf"\b\d+ {key}\b", done[-1]), (key, done[-1])
