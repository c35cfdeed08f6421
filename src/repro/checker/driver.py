"""The checker driver: run both tiers over a program, collect a report.

This is the single entry point everything else wraps -- the ``repro-lint``
CLI, the server's ``check`` verb, the fuzz cross-check and the
benchmarks all call :func:`check_program` / :func:`check_source` and
consume the resulting :class:`CheckReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.core.api import Analyzer
from repro.lang.parser import ParseError
from repro.lang.typecheck import TypeError_
from repro.service import diagnostics as diag
from repro.checker.findings import (
    CheckFinding,
    POSSIBLY_NONTERMINATING,
    UNSAFE,
    UNKNOWN,
    WARN,
    sort_findings,
)
from repro.checker.lints import lint_program
from repro.checker.safety import SafetyOptions, SafetyReport, check_safety

# "all" remains lint + safety; the termination tier is opt-in (it runs
# whole-program AU fixpoints, a different cost class than the default lint).
TIERS = ("lint", "safety", "termination", "all")


@dataclass
class CheckOptions:
    tier: str = "all"  # "lint" | "safety" | "termination" | "all"
    lint_rules: Optional[Iterable[str]] = None
    safety: SafetyOptions = field(default_factory=SafetyOptions)
    termination: "TerminationOptions" = None  # defaults lazily (import cycle)
    include_safe: bool = False  # also report proved-safe obligations

    def __post_init__(self):
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r} (expected one of {TIERS})")
        if self.termination is None:
            from repro.termination.driver import TerminationOptions

            self.termination = TerminationOptions()


@dataclass
class CheckReport:
    """All findings of one checker run plus per-rule accounting."""

    findings: List[CheckFinding] = field(default_factory=list)
    safety: Optional[SafetyReport] = None
    termination: Optional["TerminationReport"] = None
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No lints, no unsafe/possibly-nonterminating verdicts
        (unknowns are tolerated)."""
        return not any(
            f.verdict in (WARN, UNSAFE, POSSIBLY_NONTERMINATING, diag.ERROR)
            for f in self.findings
        )

    def rule_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.rule_id] = counts.get(f.rule_id, 0) + 1
        return counts

    def to_records(self) -> List[diag.DiagnosticRecord]:
        return [f.to_record() for f in self.findings]

    def to_envelope(self) -> Dict[str, Any]:
        return diag.run_envelope(self.to_records(), stats=self.stats)


def _count_rules(report: CheckReport, telemetry=None) -> None:
    counts = report.rule_counts()
    report.stats["rules"] = {k: counts[k] for k in sorted(counts)}
    if telemetry is not None:
        for rule_id, n in sorted(counts.items()):
            telemetry.count(f"checker.rule.{rule_id}", n)


def check_program(
    analyzer: Analyzer,
    options: Optional[CheckOptions] = None,
    telemetry=None,
) -> CheckReport:
    """Run the configured tiers over an already-parsed (normalized) program."""
    opts = options or CheckOptions()
    report = CheckReport()
    if opts.tier in ("lint", "all"):
        started = time.perf_counter()
        report.findings.extend(
            lint_program(analyzer.program, analyzer.icfg, rules=opts.lint_rules)
        )
        report.stats["lint_seconds"] = round(time.perf_counter() - started, 6)
    if opts.tier in ("safety", "all"):
        safety_report = check_safety(analyzer, opts.safety)
        report.safety = safety_report
        report.findings.extend(safety_report.findings(include_safe=opts.include_safe))
        report.stats["safety_seconds"] = round(safety_report.seconds, 6)
        report.stats["safety_verdicts"] = safety_report.counts()
        report.stats["safety_sites"] = len(safety_report.sites)
    if opts.tier == "termination":
        from repro.termination.driver import check_termination

        term_report = check_termination(analyzer, opts.termination)
        report.termination = term_report
        report.findings.extend(term_report.findings(include_safe=opts.include_safe))
        report.stats["termination_seconds"] = round(term_report.seconds, 6)
        report.stats["termination_verdicts"] = term_report.counts()
        report.stats["termination_sites"] = len(term_report.sites)
    report.findings = sort_findings(report.findings)
    _count_rules(report, telemetry)
    return report


def check_source(
    source: str,
    options: Optional[CheckOptions] = None,
    telemetry=None,
    path: Optional[str] = None,
) -> CheckReport:
    """Parse + typecheck + normalize, then check.

    Frontend failures do not raise: they come back as a report with one
    ``frontend.parse-error`` / ``frontend.type-error`` finding, carrying
    the source line -- the same envelope shape as every other finding.
    """
    try:
        analyzer = Analyzer.from_source(source)
    except (ParseError, TypeError_) as exc:
        record = diag.from_frontend_error(exc, path=path)
        report = CheckReport(
            findings=[
                CheckFinding(
                    rule_id=record.rule_id,
                    verdict=record.verdict,
                    message=record.message,
                    line=record.line,
                    witness=record.witness,
                )
            ]
        )
        _count_rules(report, telemetry)
        return report
    return check_program(analyzer, options, telemetry=telemetry)
