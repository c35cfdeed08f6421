"""Differential soundness oracle: concrete runs vs. abstract summaries.

For one program and one root procedure the oracle

1. executes the root concretely (``concrete.interp.Interpreter``) on
   randomized inputs, recording input/output *views* (integers and lists
   of integers);
2. analyzes the root with :class:`repro.Analyzer` in both the AU and AM
   domains;
3. checks γ-membership: the summary is a *disjunction* of abstract
   heaps, so every observed input/output pair must be covered by at
   least one heap whose backbone matches the observed shapes and whose
   data-word value is *satisfied* by the observed words (DESIGN.md §6);
4. checks lattice laws on the domain values the run produced: join is an
   upper bound, widen covers join, meet is a lower bound, widening
   stabilizes, and γ is monotone across join/widen on the concrete
   witnesses gathered in step 3.

Failures are returned as :class:`Finding` records carrying everything the
shrinker and the corpus need to replay them.  Runs the harness cannot
judge are *skipped*, not failed: concrete errors (NULL dereference, step
budget), infeasible paths, cyclic outputs (no word view), programs the
analysis rejects (``CutpointError``: outside the supported fragment), and
analyses that hit the engine budget (partial summaries carry no soundness
promise).

:class:`DifferentialOracle` is the interface every fuzz lane implements
(this γ-soundness oracle, the safety, termination and kernel-identity
cross-checks): one config, one input generator, the entry points the
fuzz loop, shrinker and corpus replay call, and one concrete-run loop.
A lane adds only its judgement, :meth:`DifferentialOracle.judge`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.concrete.heap import dll_violations, from_cells, to_cells, to_dll_cells
from repro.concrete.interp import (
    AssertFailure,
    AssumeFailure,
    ConcreteError,
    Interpreter,
)
from repro.core.api import Analyzer, AnalysisResult
from repro.core.localheap import CutpointError
from repro.datawords import terms as T
from repro.lang import ast as A
from repro.lang.ast import uses_prev
from repro.lang.normalize import normalize_program
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lang.typecheck import typecheck_program
from repro.shape import dll as dll_rules
from repro.shape.graph import NULL


@dataclass
class OracleConfig:
    """Knobs for one run of any lane (the one config of the fuzz loop).

    The safety cross-check judges the verdicts of ``domains[0]``; the
    termination cross-check ignores ``domains`` (its prover runs in AU);
    the lattice and γ fields are read by the γ-soundness oracle only.
    """

    rounds: int = 5  # concrete executions per program
    max_interp_steps: int = 200_000
    engine_max_steps: Optional[int] = 60_000  # per-domain analysis budget
    # Wall-clock cap per analysis: one AU step can sink minutes into
    # exact-LP fallbacks, so steps alone don't bound fuzzing latency.  A
    # capped run surfaces as diagnostics (result.ok == False): γ-checks
    # are skipped, lattice checks still run on the partial summaries.
    engine_max_seconds: Optional[float] = 60.0
    domains: Tuple[str, ...] = ("am", "au")
    check_lattice: bool = True
    max_lattice_pairs: int = 16
    widen_chain_bound: int = 40
    max_list_len: int = 4
    data_lo: int = -9
    data_hi: int = 9


@dataclass
class Finding:
    """One oracle failure, self-contained for replay and shrinking."""

    # γ lane: "gamma" | "no_shape" | "dll" | "lattice"; safety and
    # termination lanes: "checker"; kernel lane: "kernel-crash" |
    # "kernel-mismatch"; any lane: "crash"
    kind: str
    # "am" | "au" for most findings; "termination" for the termination
    # lane; "<domain>/<kernel mode>" for a kernel-crash; the lane's
    # ``crash_domain`` for a frontend crash
    domain: str
    root: str
    message: str
    source: str  # pretty-printed program text
    inputs: Optional[List] = None  # input views of the failing observation
    seed: Optional[int] = None

    def signature(self) -> Tuple[str, str]:
        """What must be preserved while shrinking: failure kind + domain."""
        return (self.kind, self.domain)

    def describe(self) -> str:
        lines = [f"[{self.kind}/{self.domain}] root={self.root}: {self.message}"]
        if self.inputs is not None:
            lines.append(f"  inputs: {self.inputs}")
        return "\n".join(lines)


@dataclass
class _Observation:
    views: List  # input views, aligned with cfg.inputs
    in_words: Dict[str, List[int]]
    in_data: Dict[str, int]
    out_words: Dict[str, List[int]]
    out_data: Dict[str, int]
    # DLL mode only: output name -> concrete back-pointer invariant held
    out_dll: Dict[str, bool] = field(default_factory=dict)


# What ends one concrete run early: a fault or the step budget, an
# infeasible path, a failed assert, or runaway recursion.  What it means
# (a deref event, a skipped run, no observation) is each lane's call.
RUN_ERRORS = (ConcreteError, AssumeFailure, AssertFailure, RecursionError)


class DifferentialOracle:
    """One differential lane of the fuzz loop.

    The fuzz loop, the shrinker and corpus replay call only
    :meth:`check_program`, :meth:`check_source`, :meth:`check_views` and
    :attr:`skips`.  A lane sets ``crash_domain`` (the ``Finding.domain``
    of a frontend crash) and ``skip_keys``, and implements :meth:`judge`.
    """

    crash_domain = "frontend"
    skip_keys: Tuple[str, ...] = ()

    def __init__(self, config: Optional[OracleConfig] = None):
        self.config = config or OracleConfig()
        # skip accounting, so capped/skipped work is never silent
        self.skips: Dict[str, int] = {key: 0 for key in self.skip_keys}

    # -- input generation ------------------------------------------------------

    def random_input_views(self, rng: random.Random, cfg) -> List:
        """One set of input views (ints and lists of ints) for a CFG."""
        views: List = []
        for p in cfg.inputs:
            if p.type == A.INT:
                views.append(rng.randint(self.config.data_lo, self.config.data_hi))
            else:
                views.append(
                    [
                        rng.randint(self.config.data_lo, self.config.data_hi)
                        for _ in range(rng.randint(0, self.config.max_list_len))
                    ]
                )
        return views

    # -- entry points ----------------------------------------------------------

    def check_program(
        self, program: A.Program, root: str, seed: int
    ) -> List[Finding]:
        """Fuzz one program: random inputs derived from ``seed``."""
        try:
            analyzer = Analyzer(normalize_program(typecheck_program(program)))
            cfg = analyzer.icfg.cfg(root)
        except Exception as exc:  # generator guarantees this never happens
            return [
                Finding(
                    kind="crash",
                    domain=self.crash_domain,
                    root=root,
                    message=f"{type(exc).__name__}: {exc}",
                    source=pretty_program(program),
                    seed=seed,
                )
            ]
        rng = random.Random(seed)
        views_list = [
            self.random_input_views(rng, cfg) for _ in range(self.config.rounds)
        ]
        return self.judge(program, analyzer, root, views_list, seed)

    def check_source(
        self,
        source: str,
        root: str,
        views_list: Sequence[List],
        seed: Optional[int] = None,
    ) -> List[Finding]:
        """Replay a corpus entry: parse source, then :meth:`check_views`."""
        program = typecheck_program(parse_program(source))
        return self.check_views(program, root, views_list, seed=seed)

    def check_views(
        self,
        program: A.Program,
        root: str,
        views_list: Sequence[List],
        seed: Optional[int] = None,
    ) -> List[Finding]:
        """Deterministic check of one program on explicit input views."""
        analyzer = Analyzer(normalize_program(typecheck_program(program)))
        return self.judge(program, analyzer, root, views_list, seed)

    def judge(
        self,
        program: A.Program,
        analyzer: Analyzer,
        root: str,
        views_list: Sequence[List],
        seed: Optional[int],
    ) -> List[Finding]:
        """The lane's verdict on ``program`` (``analyzer`` holds its
        normalized form) run on ``views_list``."""
        raise NotImplementedError

    # -- concrete side -----------------------------------------------------------

    def concrete_runs(
        self,
        icfg,
        root: str,
        views_list: Sequence[List],
        dll: bool,
        frame_observer=None,
        edge_observer=None,
    ) -> Iterator[Tuple[List, Optional[List], Optional[Exception]]]:
        """Run ``root`` once per input view set.

        Yields ``(views, outputs, error)``, where ``error`` is the
        :data:`RUN_ERRORS` exception that ended the run early (and
        ``outputs`` is then ``None``).  Prev-using programs (``dll``) get
        well-formed DLL inputs, matching the abstract generic entry, which
        assumes arguments are DLLs.  View sets whose arity does not match
        the root's inputs are dropped.  The observers are the
        interpreter's frame and edge hooks.
        """
        interp = Interpreter(icfg, max_steps=self.config.max_interp_steps)
        interp.frame_observer = frame_observer
        interp.edge_observer = edge_observer
        arity = len(icfg.cfg(root).inputs)
        build = to_dll_cells if dll else to_cells
        for views in views_list:
            if len(views) != arity:
                continue
            args = [build(list(v)) if isinstance(v, list) else v for v in views]
            try:
                outputs = interp.run(root, args)
            except RUN_ERRORS as exc:
                yield views, None, exc
            else:
                yield views, outputs, None


class Oracle(DifferentialOracle):
    """The γ-soundness and lattice-law lane (the default fuzz lane)."""

    # cutpoint -> domain outside fragment, budget -> γ-check skipped
    skip_keys = ("cutpoint", "budget")

    def judge(self, program, analyzer, root, views_list, seed):
        source = pretty_program(program)
        cfg = analyzer.icfg.cfg(root)
        # prev-using programs get DLL inputs, and their outputs are audited
        # against the concrete back-pointer invariant (the --dll soundness
        # oracle).
        dll = uses_prev(analyzer.program)
        observations = [
            obs
            for views, outputs, error in self.concrete_runs(
                analyzer.icfg, root, views_list, dll
            )
            # a run that ended early is out of scope; not a finding
            if error is None
            and (obs := self._observe(cfg, views, outputs, dll)) is not None
        ]

        findings: List[Finding] = []
        for domain in self.config.domains:
            findings.extend(
                self._check_domain(
                    analyzer, cfg, root, domain, observations, source, seed
                )
            )
        return findings

    # -- concrete side -----------------------------------------------------------

    def _observe(
        self, cfg, views: List, outputs: List, dll: bool
    ) -> Optional[_Observation]:
        """The word/data view of one completed run, or ``None``."""
        in_words: Dict[str, List[int]] = {}
        in_data: Dict[str, int] = {}
        for p, view in zip(cfg.inputs, views):
            if p.type == A.LIST:
                in_words[T.entry_copy(p.name)] = list(view)
            else:
                # only the entry snapshot: the program may overwrite p.name
                in_data[T.entry_copy(p.name)] = view
        out_words: Dict[str, List[int]] = {}
        out_data: Dict[str, int] = {}
        out_dll: Dict[str, bool] = {}
        for p, value in zip(cfg.outputs, outputs):
            if p.type == A.LIST:
                try:
                    out_words[p.name] = from_cells(value)
                except ValueError:
                    return None  # cyclic output: no word view exists
                if dll:
                    out_dll[p.name] = not dll_violations(value)
            else:
                out_data[p.name] = value
        return _Observation(views, in_words, in_data, out_words, out_data, out_dll)

    # -- abstract side -------------------------------------------------------------

    def _check_domain(
        self,
        analyzer: Analyzer,
        cfg,
        root: str,
        domain: str,
        observations: Sequence[_Observation],
        source: str,
        seed: Optional[int],
    ) -> List[Finding]:
        config = self.config
        try:
            result = analyzer.analyze(
                root,
                domain=domain,
                max_steps=config.engine_max_steps,
                max_seconds=config.engine_max_seconds,
            )
        except CutpointError:
            self.skips["cutpoint"] += 1
            return []  # program is outside the supported fragment
        except Exception as exc:
            return [
                Finding(
                    kind="crash",
                    domain=domain,
                    root=root,
                    message=f"{type(exc).__name__}: {exc}",
                    source=source,
                    seed=seed,
                )
            ]
        findings: List[Finding] = []
        witnesses: List[Tuple[str, object, Dict, Dict]] = []
        if result.ok:  # partial summaries carry no soundness promise
            for obs in observations:
                findings.extend(
                    self._gamma_check(result, root, domain, obs, source, seed, witnesses)
                )
        else:
            self.skips["budget"] += 1
        if config.check_lattice:
            findings.extend(
                self._lattice_check(result, root, domain, source, seed, witnesses)
            )
        return findings

    def _gamma_check(
        self,
        result: AnalysisResult,
        root: str,
        domain: str,
        obs: _Observation,
        source: str,
        seed: Optional[int],
        witnesses: List,
    ) -> List[Finding]:
        """γ-membership of one observation in the summary disjunction.

        A :class:`HeapSet` is a *disjunction*: the run is covered as soon
        as one heap both matches the backbone and satisfies the words.
        Distinct disjuncts may share a backbone under our partial binding
        (a single abstract node matches words of any length) while their
        values carve up the lengths between them, so a violated-but-
        matching disjunct alone is not a bug -- only an observation no
        disjunct covers is.
        """
        bindings = dict(obs.in_words)
        bindings.update(obs.out_words)
        data_env = dict(obs.in_data)
        data_env.update(obs.out_data)
        shape_matched = False
        covered = False
        violated: List[str] = []
        dll_mismatch: List[str] = []
        for entry, summary in result.summaries:
            for heap in summary:
                words_env = _bind_words(heap.graph, bindings)
                if words_env is None:
                    continue
                shape_matched = True
                if result.domain.satisfied_by(heap.value, words_env, data_env):
                    mismatch = self._dll_mismatch(result, heap, obs)
                    if mismatch is not None:
                        dll_mismatch.append(mismatch)
                        continue
                    covered = True
                    witnesses.append(
                        (heap.graph.key(), heap.value, words_env, data_env)
                    )
                else:
                    violated.append(heap.describe(result.domain))
        if covered:
            return []

        def finding(kind: str, message: str) -> List[Finding]:
            return [
                Finding(
                    kind=kind,
                    domain=domain,
                    root=root,
                    message=message,
                    source=source,
                    inputs=obs.views,
                    seed=seed,
                )
            ]

        if dll_mismatch:
            # Some disjunct covers the words but its DLL attributes make a
            # definite claim the concrete back pointers refute.
            return finding(
                "dll",
                f"covering disjuncts contradict the concrete back-pointer "
                f"invariant on {obs.views} -> {obs.out_words}: "
                + "; ".join(dll_mismatch[:3]),
            )
        if shape_matched:
            details = "; ".join(violated[:3])
            return finding(
                "gamma",
                f"no summary disjunct covers the run {obs.views} -> "
                f"{obs.out_words} {obs.out_data}; matching-but-violated: "
                f"{details}",
            )
        return finding(
            "no_shape",
            f"no summary backbone matches the run "
            f"{obs.views} -> {obs.out_words} {obs.out_data}",
        )

    def _dll_mismatch(self, result, heap, obs: _Observation) -> Optional[str]:
        """Definite DLL claims of a covering disjunct vs. concrete truth.

        ``consistent`` promises every concretization is a well-formed DLL,
        ``broken`` that none is; either claim is refutable by the observed
        run.  ``unknown`` never conflicts.  Returns a description of the
        first conflict, or ``None`` when the disjunct is compatible.
        """
        for var, wellformed in obs.out_dll.items():
            verdict = dll_rules.classify_heap(heap, result.domain, [var])
            if verdict == dll_rules.CONSISTENT and not wellformed:
                return f"{var}: abstractly consistent, concretely broken"
            if verdict == dll_rules.BROKEN and wellformed:
                return f"{var}: abstractly broken, concretely well-formed"
        return None

    # -- lattice laws ---------------------------------------------------------------

    def _lattice_check(
        self,
        result: AnalysisResult,
        root: str,
        domain: str,
        source: str,
        seed: Optional[int],
        witnesses: List,
    ) -> List[Finding]:
        ldw = result.domain
        by_key: Dict[object, List] = {}
        for entry, summary in result.summaries:
            for heap in summary:
                by_key.setdefault(heap.graph.key(), []).append(heap.value)

        pairs: List[Tuple[object, object, object]] = []  # (key, a, b)
        for key, values in by_key.items():
            for i, a in enumerate(values):
                pairs.append((key, a, a))
                pairs.append((key, a, ldw.top()))
                pairs.append((key, a, ldw.bottom()))
                for b in values[i + 1 :]:
                    pairs.append((key, a, b))
        pairs = pairs[: self.config.max_lattice_pairs]

        def finding(law: str, detail: str) -> Finding:
            return Finding(
                kind="lattice",
                domain=domain,
                root=root,
                message=f"{law}: {detail}",
                source=source,
                seed=seed,
            )

        findings: List[Finding] = []
        for key, a, b in pairs:
            join = ldw.join(a, b)
            if not (ldw.leq(a, join) and ldw.leq(b, join)):
                findings.append(
                    finding(
                        "join-upper-bound",
                        f"join({ldw.describe(a)}, {ldw.describe(b)}) = "
                        f"{ldw.describe(join)} is not above both arguments",
                    )
                )
            widen = ldw.widen(a, b)
            if not ldw.leq(join, widen):
                findings.append(
                    finding(
                        "widen-covers-join",
                        f"widen({ldw.describe(a)}, {ldw.describe(b)}) = "
                        f"{ldw.describe(widen)} does not cover the join "
                        f"{ldw.describe(join)}",
                    )
                )
            meet = ldw.meet(a, b)
            if not (ldw.leq(meet, a) and ldw.leq(meet, b)):
                findings.append(
                    finding(
                        "meet-lower-bound",
                        f"meet({ldw.describe(a)}, {ldw.describe(b)}) = "
                        f"{ldw.describe(meet)} is not below both arguments",
                    )
                )
            # widening stabilizes: iterate against an (increasing) target
            w = a
            for _ in range(self.config.widen_chain_bound):
                nxt = ldw.widen(w, ldw.join(w, b))
                if ldw.leq(nxt, w):
                    break
                w = nxt
            else:
                findings.append(
                    finding(
                        "widen-stabilizes",
                        f"widening chain from {ldw.describe(a)} towards "
                        f"{ldw.describe(b)} did not stabilize within "
                        f"{self.config.widen_chain_bound} steps",
                    )
                )

        # γ-monotonicity on the concrete witnesses gathered by the γ-check
        for key, value, words_env, data_env in witnesses:
            for other in by_key.get(key, []):
                join = ldw.join(value, other)
                if not ldw.satisfied_by(join, words_env, data_env):
                    findings.append(
                        finding(
                            "join-gamma-monotone",
                            f"a witness of {ldw.describe(value)} violates "
                            f"join with {ldw.describe(other)}",
                        )
                    )
                widen = ldw.widen(value, other)
                if not ldw.satisfied_by(widen, words_env, data_env):
                    findings.append(
                        finding(
                            "widen-gamma-monotone",
                            f"a witness of {ldw.describe(value)} violates "
                            f"widen with {ldw.describe(other)}",
                        )
                    )
        return findings


def _bind_words(graph, bindings: Mapping[str, List[int]]) -> Optional[Dict]:
    """Match a summary backbone against concrete words.

    Returns a ``words_env`` for :meth:`satisfied_by` when every bound
    variable's shape is consistent with the graph, else ``None`` (the heap
    does not describe this run).  Only single-node chains bind their word;
    multi-node chains would need the concrete word cut at node boundaries,
    so they contribute no binding (vacuously sound).  A cyclic backbone
    never binds (concrete words are finite).
    """
    words_env: Dict[str, List[int]] = {}
    for var, node in graph.labels.items():
        if var not in bindings:
            continue
        concrete = bindings[var]
        if node == NULL:
            if concrete:
                return None  # abstract NULL vs. non-empty concrete list
            continue
        if not concrete:
            return None  # abstract cell vs. empty concrete list
        chain = []
        cur = node
        seen = set()
        while cur != NULL and cur not in seen:
            seen.add(cur)
            chain.append(cur)
            cur = graph.succ.get(cur, NULL)
        if cur != NULL:
            continue  # cyclic backbone: no finite word to bind
        if len(chain) == 1:
            prior = words_env.get(node)
            if prior is not None and prior != concrete:
                return None
            words_env[node] = list(concrete)
    return words_env
