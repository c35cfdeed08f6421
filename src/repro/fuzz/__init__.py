"""Differential fuzzing harness (generator, oracle, shrinker).

The harness manufactures regressions for the soundness contract of the
analysis: every concrete run of a procedure must satisfy the abstract
summary computed for it (DESIGN.md §6).  Three cooperating pieces:

- :mod:`repro.fuzz.progen` -- a seeded, grammar-based generator of
  well-typed LISL programs (traversals, insertions, deletions, integer
  arithmetic, branches, loops, calls, recursion);
- :mod:`repro.fuzz.oracle` -- runs each program concretely on random
  inputs and abstractly in both the AU and AM domains, then checks
  γ-membership of the observed input/output words against the synthesized
  summaries, plus lattice laws on the domain values the run produces.
  Its :class:`DifferentialOracle` base is the interface of every fuzz
  lane (also the safety, termination and kernel-identity cross-checks);
- :mod:`repro.fuzz.shrink` -- a delta-debugging shrinker that minimizes a
  failing program/input pair before it is reported or saved to the corpus.

Entry point: ``python -m repro.fuzz --seed N --iters K``.
"""

from repro.fuzz.progen import GenConfig, ProgramGen, generate_program
from repro.fuzz.oracle import DifferentialOracle, Finding, Oracle, OracleConfig
from repro.fuzz.shrink import shrink_finding

__all__ = [
    "GenConfig",
    "ProgramGen",
    "generate_program",
    "DifferentialOracle",
    "Finding",
    "Oracle",
    "OracleConfig",
    "shrink_finding",
]
