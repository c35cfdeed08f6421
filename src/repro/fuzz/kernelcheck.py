"""Differential validation of the optimized kernels against reference.

The optimized hot-path kernels (``repro.kernels`` mode ``fast``: integer
simplex with memo/warm-start caches, join/minimize memoization, shared
LP models, shape-signature prefilters) promise *representation identity*:
for any program, the synthesized summaries must have canonical stable
hashes bit-identical to the pure reference kernels.  This module holds
them to that promise the same way :mod:`repro.fuzz.oracle` holds the
abstract transformers to gamma-soundness: analyze each generated program
under both modes and report any hash divergence.

Wired into the fuzz CLI as ``python -m repro.fuzz --check-kernels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import kernels
from repro.core.api import Analyzer
from repro.core.localheap import CutpointError
from repro.fuzz.oracle import Finding
from repro.lang import ast as A
from repro.lang.normalize import normalize_program
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lang.typecheck import typecheck_program


@dataclass
class KernelCheckConfig:
    domains: Tuple[str, ...] = ("am", "au")
    engine_max_steps: Optional[int] = 60_000
    engine_max_seconds: Optional[float] = 30.0


class KernelChecker:
    """Fast-vs-reference identity harness (the ``--check-kernels`` oracle).

    Implements the fuzz-loop checker duck type
    (``check_program``/``check_source``/``check_views``/``skips``).
    Concrete input views are irrelevant to kernel identity and are
    accepted but unused, so corpus replay and the shrinker keep working.
    """

    def __init__(self, config: Optional[KernelCheckConfig] = None):
        self.config = config or KernelCheckConfig()
        # budget -> analysis hit its step/second budget in some mode;
        # cutpoint -> program outside the supported fragment.  Identity
        # is only judged on rows both modes completed.
        self.skips: Dict[str, int] = {"budget": 0, "cutpoint": 0}

    # -- entry points -----------------------------------------------------------

    def check_program(
        self, program: A.Program, root: str, seed: int
    ) -> List[Finding]:
        return self.check_views(program, root, views_list=(), seed=seed)

    def check_source(
        self,
        source: str,
        root: str,
        views_list: Sequence[List],
        seed: Optional[int] = None,
    ) -> List[Finding]:
        program = typecheck_program(parse_program(source))
        return self.check_views(program, root, views_list, seed=seed)

    def check_views(
        self,
        program: A.Program,
        root: str,
        views_list: Sequence[List],
        seed: Optional[int] = None,
    ) -> List[Finding]:
        source = pretty_program(program)
        findings: List[Finding] = []
        for domain in self.config.domains:
            hashes: Dict[str, object] = {}
            for mode in ("reference", "fast"):
                outcome = self._summary_hashes(program, root, domain, mode)
                if isinstance(outcome, str):  # skip / crash note
                    if outcome in self.skips:
                        self.skips[outcome] += 1
                        hashes = {}
                        break
                    findings.append(
                        Finding(
                            kind="kernel-crash",
                            domain=f"{domain}/{mode}",
                            root=root,
                            message=outcome,
                            source=source,
                            seed=seed,
                        )
                    )
                    hashes = {}
                    break
                hashes[mode] = outcome
            if hashes and hashes["reference"] != hashes["fast"]:
                findings.append(
                    Finding(
                        kind="kernel-mismatch",
                        domain=domain,
                        root=root,
                        message=(
                            "fast kernels diverge from reference: "
                            f"reference={hashes['reference']!r} "
                            f"fast={hashes['fast']!r}"
                        ),
                        source=source,
                        seed=seed,
                    )
                )
        return findings

    # -- internals --------------------------------------------------------------

    def _summary_hashes(self, program, root, domain, mode):
        """Summary hash list for one (domain, mode), or a note string."""
        with kernels.mode_ctx(mode):
            try:
                analyzer = Analyzer(
                    normalize_program(typecheck_program(program))
                )
                result = analyzer.analyze(
                    root,
                    domain=domain,
                    max_steps=self.config.engine_max_steps,
                    max_seconds=self.config.engine_max_seconds,
                )
            except CutpointError:
                return "cutpoint"
            except Exception as exc:  # pragma: no cover - surfaced as finding
                return f"{type(exc).__name__}: {exc}"
            if result.diagnostics:
                return "budget"
            return sorted(result.summary_hashes())
