"""Local heaps, entry snapshots, and summary composition (paper §4).

At a call ``(y...) = Q(x...)`` the callee sees only the part of the heap
reachable from the actual parameters (the *local heap*, Rinetzky et al.);
we verify cutpoint-freedom and build the callee's entry configuration: the
local subgraph relabeled with formals, *plus an isomorphic snapshot copy*
labeled ``f$0`` whose words are pointwise equal (paper eq. H/I) -- the
doubled vocabulary that makes summaries relations.

At the return, the summary (a relation between the ``$0`` snapshot and the
exit heap) is composed with the caller's relation at the call point by
*identifying the snapshot words with the caller's local words*, conjoining
the two values, and existentially quantifying the identified words -- the
paper's ``Combine`` followed by projection, with a hook where
``strengthen_M`` plugs in (§6.2).

External references into the local heap are tolerated only on *entry*
nodes whose formal parameter the callee never reassigns (then the entry
cell keeps its identity and the references re-attach to the formal's exit
node); anything else raises :class:`CutpointError`, as the analysis only
supports cutpoint-free programs (§2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.datawords import terms as T
from repro.datawords.base import LDWDomain
from repro.datawords.multiset import MultisetDomain
from repro.lang import ast as A
from repro.lang.cfg import CFG, OpAssignPtr, OpCall
from repro.numeric.linexpr import Constraint, LinExpr
from repro.shape.abstract_heap import AbstractHeap
from repro.shape.graph import NULL, HeapGraph


class CutpointError(Exception):
    """The program is outside the supported cutpoint-free fragment."""


@dataclass
class CallInfo:
    """Everything the return composition needs about one call site."""

    callee: str
    entry_heap: AbstractHeap  # formals + $0 snapshot, canonical node names
    caller_to_entry: Dict[str, str]  # caller local node -> entry node
    local_nodes: List[str]  # caller node names consumed by the call
    ptr_formals: List[str]
    ptr_actuals: List[str]
    data_formals: List[str]
    data_actuals: List[str]
    reattach: Dict[str, bool]  # formal -> callee never reassigns it


def _formal_split(cfg: CFG) -> Tuple[List[str], List[str]]:
    ptrs = [p.name for p in cfg.inputs if p.type == A.LIST]
    data = [p.name for p in cfg.inputs if p.type == A.INT]
    return ptrs, data


def _callee_reassigns(cfg: CFG, formal: str) -> bool:
    return any(
        isinstance(e.op, OpAssignPtr) and e.op.target == formal
        for e in cfg.edges
    ) or any(
        isinstance(e.op, OpCall) and formal in e.op.targets for e in cfg.edges
    )


def build_call_entry(
    domain: LDWDomain,
    heap: AbstractHeap,
    callee_cfg: CFG,
    op: OpCall,
) -> CallInfo:
    """Extract the local heap and build the callee's entry configuration."""
    graph = heap.graph
    ptr_formals, data_formals = _formal_split(callee_cfg)
    ptr_actuals: List[str] = []
    data_actuals: List[str] = []
    index = 0
    for param in callee_cfg.inputs:
        arg = op.args[index]
        index += 1
        if param.type == A.LIST:
            ptr_actuals.append(arg)
        else:
            data_actuals.append(arg)

    entry_nodes_of_actuals = {
        graph.node_of(a) for a in ptr_actuals if graph.node_of(a) != NULL
    }
    local = set(graph.reachable_from(entry_nodes_of_actuals)) - {NULL}

    reattach = {
        f: not _callee_reassigns(callee_cfg, f) for f in ptr_formals
    }
    # A reassigned formal loses track of the entry cell: the caller's
    # actual still points at it after the call (by-value parameters), but
    # the callee's exit heap no longer delimits it with a node, so the
    # return composition cannot re-attach the caller's pointer soundly.
    # ``normalize_program`` rewrites every procedure so this never happens
    # (assigned list formals are renamed to locals); reject rather than
    # silently corrupt callers of un-normalized procedures.
    for f, a in zip(ptr_formals, ptr_actuals):
        if not reattach[f] and graph.node_of(a) != NULL:
            raise CutpointError(
                f"callee {op.proc} reassigns list formal {f}; the entry "
                f"cell of actual {a} cannot be tracked through the return"
            )
    actual_set = set(ptr_actuals)
    for node in local:
        external_preds = [p for p in graph.preds(node) if p not in local]
        external_labels = [
            v for v in graph.vars_of(node) if v not in actual_set
        ]
        # An external cell whose prev pointer aims into the local heap is
        # an external reference too (the DLL analogue of a predecessor).
        external_prevrefs = [
            m
            for m, t in graph.prevof.items()
            if t == node and m not in local
        ]
        is_entry = node in entry_nodes_of_actuals
        if not is_entry and (external_preds or external_labels or external_prevrefs):
            raise CutpointError(
                f"cutpoint at node {node} calling {op.proc} "
                f"(preds={external_preds}, labels={external_labels}, "
                f"prevrefs={external_prevrefs})"
            )
        if is_entry and (external_preds or external_labels or external_prevrefs):
            for f, a in zip(ptr_formals, ptr_actuals):
                if graph.node_of(a) == node and not reattach[f]:
                    raise CutpointError(
                        f"externally referenced entry node {node}: callee "
                        f"{op.proc} reassigns formal {f}"
                    )

    # -- the local subgraph, relabeled with formals -----------------------------
    local_succ = {n: m for n, m in graph.succ.items() if n in local}
    labels: Dict[str, str] = {}
    for f, a in zip(ptr_formals, ptr_actuals):
        labels[f] = graph.node_of(a)
    for p in callee_cfg.outputs + callee_cfg.locals:
        if p.type == A.LIST and p.name not in labels:
            labels[p.name] = NULL
    local_prevof: Dict[str, str] = {}
    for m, t in graph.prevof.items():
        if m not in local:
            continue
        if t != NULL and t not in local:
            # Backward-reachability makes prev targets local; a miss means
            # the local heap reaches out behind the callee's view.
            raise CutpointError(
                f"prev target {t} of local node {m} escapes the local heap "
                f"calling {op.proc}"
            )
        local_prevof[m] = t
    local_graph = HeapGraph(
        local,
        local_succ,
        labels,
        local_prevof,
        graph.dllseg & local,
        graph.backlink & local,
    )
    canon_graph, renaming = local_graph.canonical()
    caller_to_entry = {n: renaming[n] for n in local}

    # -- the entry value --------------------------------------------------------------
    value = heap.value
    external_words = [w for w in graph.word_nodes() if w not in local]
    value = domain.project_words(value, external_words)
    value = domain.rename_words(value, caller_to_entry)
    # Data actual -> formal transfer through clash-safe temporaries.
    temp_of = {}
    for i, (fd, ad) in enumerate(zip(data_formals, data_actuals)):
        temp = f"$arg{i}"
        temp_of[fd] = temp
        value = domain.meet_constraint(
            value, Constraint.eq(LinExpr.var(temp), LinExpr.var(ad))
        )
    caller_data = _data_vocabulary(domain, value) - set(temp_of.values())
    value = domain.forget_data(value, caller_data)
    for fd, temp in temp_of.items():
        value = _rename_data(domain, value, temp, fd)
    # Callee's other integer variables start at 0.
    for p in callee_cfg.outputs + callee_cfg.locals:
        if p.type == A.INT:
            value = domain.meet_constraint(
                value, Constraint.eq(LinExpr.var(p.name), LinExpr.const_expr(0))
            )

    # -- the $0 snapshot ---------------------------------------------------------------
    snap_nodes = {n: T.entry_copy(n) for n in canon_graph.word_nodes()}
    nodes = set(canon_graph.word_nodes()) | set(snap_nodes.values())
    succ = dict(canon_graph.succ)
    for n, m in canon_graph.succ.items():
        succ[snap_nodes[n]] = snap_nodes.get(m, m)  # NULL stays NULL
    labels = dict(canon_graph.labels)
    for f in ptr_formals:
        target = canon_graph.node_of(f)
        labels[T.entry_copy(f)] = (
            NULL if target == NULL else snap_nodes[target]
        )
    # Snapshot nodes stay attr-free: they exist only to pin word identity,
    # and _match_snapshot walks succ chains exclusively.
    entry_graph = HeapGraph(
        nodes, succ, labels,
        canon_graph.prevof, canon_graph.dllseg, canon_graph.backlink,
    )
    for n, c in snap_nodes.items():
        value = domain.add_word_copy_eq(value, n, c)
    for fd in data_formals:
        value = domain.meet_constraint(
            value,
            Constraint.eq(
                LinExpr.var(T.entry_copy(fd)), LinExpr.var(fd)
            ),
        )

    entry_heap = AbstractHeap(entry_graph, value)
    return CallInfo(
        callee=op.proc,
        entry_heap=entry_heap,
        caller_to_entry=caller_to_entry,
        local_nodes=sorted(local),
        ptr_formals=ptr_formals,
        ptr_actuals=ptr_actuals,
        data_formals=data_formals,
        data_actuals=data_actuals,
        reattach=reattach,
    )


def restrict_summary_exit(
    domain: LDWDomain, heap: AbstractHeap, callee_cfg: CFG
) -> AbstractHeap:
    """Prepare one exit heap for tabulation: drop callee-local state.

    Keeps: the $0 snapshot, the in/out formals (pointers as labels, data as
    variables with their $0 copies), and everything reachable from them.
    """
    keep_ptr = {p.name for p in callee_cfg.inputs + callee_cfg.outputs if p.type == A.LIST}
    keep_ptr |= {T.entry_copy(p.name) for p in callee_cfg.inputs if p.type == A.LIST}
    keep_data = {p.name for p in callee_cfg.inputs + callee_cfg.outputs if p.type == A.INT}
    keep_data |= {T.entry_copy(p.name) for p in callee_cfg.inputs if p.type == A.INT}
    drop_labels = [v for v in heap.graph.labels if v not in keep_ptr]
    graph = heap.graph.without_labels(drop_labels)
    heap = AbstractHeap(graph, heap.value).gc(domain)
    data_vars = _data_vocabulary(domain, heap.value) - keep_data
    value = domain.forget_data(heap.value, data_vars)
    return AbstractHeap(heap.graph, value)


def compose_return(
    domain: LDWDomain,
    caller_heap: AbstractHeap,
    exit_heap: AbstractHeap,
    callee_cfg: CFG,
    op: OpCall,
    info: CallInfo,
    strengthen=None,
) -> Optional[AbstractHeap]:
    """Compose the caller's relation with one summary exit heap.

    ``strengthen`` is an optional hook ``value -> value`` applied to the
    combined value before projection (the paper's strengthen_M, §6.2).
    Returns None when the snapshot chains cannot be matched (should not
    happen for summaries produced by this engine).
    """
    snapshot_map = _match_snapshot(exit_heap.graph, info)
    if snapshot_map is None:
        return None

    caller_graph = caller_heap.graph
    entry_to_caller = {e: c for c, e in info.caller_to_entry.items()}

    # -- rename the summary vocabulary away from the caller's -----------------------
    taken = set(caller_graph.nodes)
    node_rename: Dict[str, str] = {}
    for snap_node, entry_node in snapshot_map.items():
        node_rename[snap_node] = entry_to_caller[entry_node]
    fresh_i = 0
    for n in exit_heap.graph.word_nodes():
        if n in node_rename:
            continue
        while f"r{fresh_i}" in taken:
            fresh_i += 1
        node_rename[n] = f"r{fresh_i}"
        taken.add(f"r{fresh_i}")
    summary_value = domain.rename_words(exit_heap.value, node_rename)

    callee_data = _data_vocabulary(domain, summary_value)
    data_rename = {d: f"$ret_{d}" for d in callee_data}
    summary_value = _rename_data_map(domain, summary_value, data_rename)

    # -- Combine (paper §4, procedure returns) ----------------------------------------
    value = domain.meet(caller_heap.value, summary_value)
    for fd, ad in zip(info.data_formals, info.data_actuals):
        snap = f"$ret_{T.entry_copy(fd)}"
        value = domain.meet_constraint(
            value, Constraint.eq(LinExpr.var(snap), LinExpr.var(ad))
        )
    if strengthen is not None:
        value = strengthen(value, node_rename, data_rename)

    # -- integer results --------------------------------------------------------------
    out_targets = list(op.targets)
    for param, target in zip(callee_cfg.outputs, out_targets):
        if param.type == A.INT:
            value = domain.forget_data(value, [target])
            value = _rename_data(domain, value, f"$ret_{param.name}", target)

    # -- graph assembly ------------------------------------------------------------------
    consumed = set(info.local_nodes)
    kept_nodes = (set(caller_graph.nodes) - {NULL}) - consumed
    summary_nodes = {
        node_rename[n]
        for n in exit_heap.graph.word_nodes()
        if n not in snapshot_map  # snapshot nodes are not heap cells
    }
    nodes = kept_nodes | summary_nodes

    succ: Dict[str, str] = {}
    for n, m in caller_graph.succ.items():
        if n in kept_nodes and m not in consumed:
            succ[n] = m
    for n, m in exit_heap.graph.succ.items():
        if n in snapshot_map:
            continue
        rn = node_rename[n]
        rm = m if m == NULL else node_rename[m]
        if rm in snapshot_map.values():  # edge into the snapshot: impossible
            return None
        succ[rn] = rm

    # External edges / labels into consumed entry nodes re-attach to the
    # formal's exit node (the callee kept that cell's identity).
    exit_node_of_actual: Dict[str, str] = {}
    for f, a in zip(info.ptr_formals, info.ptr_actuals):
        caller_entry = caller_graph.node_of(a)
        if caller_entry == NULL:
            exit_node_of_actual[a] = NULL
            continue
        f_exit = exit_heap.graph.node_of(f)
        exit_node_of_actual[a] = (
            NULL if f_exit == NULL else node_rename[f_exit]
        )

    labels: Dict[str, str] = {}
    for var, node in caller_graph.labels.items():
        if node not in consumed:
            labels[var] = node
            continue
        replacement = _reattach_target(
            var, node, caller_graph, info, exit_node_of_actual
        )
        labels[var] = replacement
    for n, m in caller_graph.succ.items():
        if n in kept_nodes and m in consumed:
            target = _reattach_edge(n, m, caller_graph, info, exit_node_of_actual)
            if target is None:
                return None
            if target == NULL:
                succ.pop(n, None)
            else:
                succ[n] = target

    for param, target in zip(callee_cfg.outputs, out_targets):
        if param.type == A.LIST:
            o_exit = exit_heap.graph.node_of(param.name)
            labels[target] = NULL if o_exit == NULL else node_rename[o_exit]

    # -- project the identified words and leftover callee data --------------------------
    identified = [entry_to_caller[e] for e in snapshot_map.values()]
    value = domain.project_words(value, identified)
    leftover = [
        d for d in _data_vocabulary(domain, value) if d.startswith("$ret_")
    ]
    value = domain.forget_data(value, leftover)

    # -- DLL attributes: kept caller facts + renamed summary facts ----------------------
    prevof: Dict[str, str] = {}
    dllseg = (caller_graph.dllseg & kept_nodes)
    backlink = set()
    for m, t in caller_graph.prevof.items():
        if m not in kept_nodes:
            continue  # the summary is authoritative for consumed cells
        if t == NULL or t in kept_nodes:
            prevof[m] = t
        elif t in consumed:
            # first(t) kept its identity through the call; follow it to
            # the formal's exit node, else soundly forget the fact.
            target = _reattach_edge(m, t, caller_graph, info, exit_node_of_actual)
            if target is not None and target != NULL:
                prevof[m] = target
    for p in caller_graph.backlink:
        # A backlink into the consumed region may be stale (the callee can
        # rewrite first(entry).prev), so only fully-kept links survive.
        if p in kept_nodes and caller_graph.succ.get(p) in kept_nodes:
            backlink.add(p)
    for m, t in exit_heap.graph.prevof.items():
        if m in snapshot_map or t in snapshot_map:
            continue  # snapshot nodes carry no heap facts
        prevof[node_rename[m]] = t if t == NULL else node_rename[t]
    for n in exit_heap.graph.dllseg:
        if n not in snapshot_map:
            dllseg = dllseg | {node_rename[n]}
    for p in exit_heap.graph.backlink:
        if p not in snapshot_map:
            backlink.add(node_rename[p])

    graph = HeapGraph(nodes, succ, labels, prevof, dllseg, backlink)
    return AbstractHeap(graph, value)


def _reattach_target(
    var: str,
    node: str,
    caller_graph: HeapGraph,
    info: CallInfo,
    exit_node_of_actual: Dict[str, str],
) -> str:
    """Where a caller label into the consumed local heap points afterwards."""
    for f, a in zip(info.ptr_formals, info.ptr_actuals):
        if caller_graph.node_of(a) == node and info.reattach[f]:
            return exit_node_of_actual[a]
    # Unreachable for engine-built calls: build_call_entry rejects every
    # call whose consumed entry node could not re-attach.  Fail loudly
    # rather than corrupt the caller's heap.
    raise CutpointError(
        f"label {var} on consumed node {node} has no re-attachment point"
    )


def _reattach_edge(
    src: str,
    node: str,
    caller_graph: HeapGraph,
    info: CallInfo,
    exit_node_of_actual: Dict[str, str],
) -> Optional[str]:
    for f, a in zip(info.ptr_formals, info.ptr_actuals):
        if caller_graph.node_of(a) == node and info.reattach[f]:
            return exit_node_of_actual[a]
    return None


def _match_snapshot(
    exit_graph: HeapGraph, info: CallInfo
) -> Optional[Dict[str, str]]:
    """Map the summary's $0 nodes to entry-graph node names via the chains
    hanging off each ``f$0`` label (the snapshot is structurally stable)."""
    entry_graph = info.entry_heap.graph
    mapping: Dict[str, str] = {}
    for f in info.ptr_formals:
        snap_var = T.entry_copy(f)
        entry_start = entry_graph.node_of(snap_var)
        exit_start = exit_graph.node_of(snap_var)
        e, x = entry_start, exit_start
        while e != NULL or x != NULL:
            if e == NULL or x == NULL:
                return None  # chain length mismatch: not our snapshot
            if x in mapping and mapping[x] != e:
                return None
            mapping[x] = e
            e = entry_graph.succ.get(e, NULL)
            x = exit_graph.succ.get(x, NULL)
    # Map back through the snapshot naming to the entry (non-$0) node names.
    out: Dict[str, str] = {}
    for exit_node, entry_snap in mapping.items():
        if not T.is_entry_copy(entry_snap):
            return None
        out[exit_node] = entry_snap[: -len("$0")]
    return out


def _data_vocabulary(domain: LDWDomain, value) -> Set[str]:
    """Data variables mentioned by a value (domain-agnostic best effort)."""
    support: Set[str] = set()
    if hasattr(value, "data_vars"):
        return set(value.data_vars())
    if hasattr(value, "support"):
        for term in value.support():
            if T.word_of(term) is None and not T.is_posvar(term):
                support.add(term)
    return support


def _rename_data(domain: LDWDomain, value, old: str, new: str):
    return _rename_data_map(domain, value, {old: new})


def _rename_data_map(domain: LDWDomain, value, mapping: Dict[str, str]):
    """Rename data variables: the AM domain renames its own columns, an
    AU value renames its terms."""
    if isinstance(domain, MultisetDomain):
        return domain.rename_data(value, mapping)
    if hasattr(value, "E"):  # UniversalValue
        from repro.datawords.universal import UniversalValue

        E = value.E.rename(mapping)
        clauses = {
            gi: body.rename(mapping) for gi, body in value.clauses.items()
        }
        return UniversalValue(E, clauses, bottom=value.is_bot)
    raise TypeError(f"cannot rename data in {value!r}")
