"""Differential validation of the optimized kernels against reference.

The optimized hot-path kernels (``repro.kernels`` mode ``fast``: integer
simplex in slack space with its memo, join/minimize memoization, shared
LP models, shape-signature prefilters) promise *representation identity*:
for any program, the synthesized summaries must have canonical stable
hashes bit-identical to the pure reference kernels.  This module holds
them to that promise the same way :mod:`repro.fuzz.oracle` holds the
abstract transformers to gamma-soundness: analyze each generated program
under both modes and report any hash divergence.

Wired into the fuzz CLI as ``python -m repro.fuzz --check-kernels``.
"""

from __future__ import annotations

from typing import Dict, List

from repro import kernels
from repro.core.api import Analyzer
from repro.core.localheap import CutpointError
from repro.fuzz.oracle import DifferentialOracle, Finding
from repro.lang.pretty import pretty_program


class KernelChecker(DifferentialOracle):
    """Fast-vs-reference identity harness (the ``--check-kernels`` oracle).

    Concrete input views are irrelevant to kernel identity and are
    accepted but unused, so corpus replay and the shrinker keep working.
    """

    # budget -> analysis hit its step/second budget in some mode;
    # cutpoint -> program outside the supported fragment.  Identity
    # is only judged on rows both modes completed.
    skip_keys = ("budget", "cutpoint")

    def judge(self, program, analyzer, root, views_list, seed):
        source = pretty_program(program)
        findings: List[Finding] = []
        for domain in self.config.domains:
            hashes: Dict[str, List] = {}
            for mode in ("reference", "fast"):
                outcome = self._summary_hashes(analyzer.program, root, domain, mode)
                if not isinstance(outcome, str):
                    hashes[mode] = outcome
                    continue
                if outcome in self.skips:
                    self.skips[outcome] += 1
                else:  # a crash note
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
                break
            if len(hashes) == 2 and hashes["reference"] != hashes["fast"]:
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
        """Summary hash list of the normalized ``program`` for one
        (domain, mode), or a note string."""
        with kernels.mode_ctx(mode):
            try:
                result = Analyzer(program).analyze(
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
