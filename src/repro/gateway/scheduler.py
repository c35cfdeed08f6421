"""Per-tenant weighted-fair admission control for the gateway.

A single global bounded queue would let one greedy client starve
everyone: once its requests fill the queue, every tenant is rejected.
This scheduler avoids that with:

- **bounded per-tenant queues** — a flooding tenant only ever fills its
  *own* queue and is shed with a ``retry_after_ms`` hint (a ``429``,
  not an outage for the rest);
- **start-time fair queuing (SFQ) across tenants** — each request gets
  a virtual finish tag ``vt = max(V, last_tag(tenant)) + cost/weight``
  where ``V`` is the global virtual time (the tag of the last dispatched
  request).  Dispatch always picks the smallest tag, so a light tenant's
  occasional request carries an early tag and overtakes the greedy
  tenant's backlog: its delay is bounded by (roughly) one in-flight
  request per active tenant, independent of backlog depth;
- **per-request deadlines** — an expired request is shed at dispatch
  time (``gateway.deadline``) instead of wasting a worker, and the
  remaining time is what propagates into the worker pool's hard-kill
  budget.

The scheduler is a plain synchronous data structure (the asyncio server
wraps it with a condition variable), so fairness is unit-testable
deterministically: feed it a flood plus a trickle and assert the
dispatch order.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple


@dataclass
class SchedulerConfig:
    """Admission knobs.

    ``tenant_weights`` maps tenant id -> relative share (default 1.0);
    heavier tenants accumulate virtual time more slowly and therefore
    get a proportionally larger fraction of dispatches under load.
    """

    tenant_queue_limit: int = 8
    tenant_weights: Dict[str, float] = field(default_factory=dict)
    default_weight: float = 1.0
    max_tenants: int = 1024  # hard cap on distinct resident tenant queues


class Shed(Exception):
    """A request rejected by admission control (queue full / deadline)."""

    def __init__(self, message: str, retry_after_ms: int, rule_id: str):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms
        self.rule_id = rule_id


@dataclass
class ScheduledItem:
    """One admitted request waiting for dispatch."""

    tenant: str
    payload: Any
    tag: float  # virtual finish tag (SFQ)
    seq: int  # admission order, tie-breaker for equal tags
    enqueued: float
    deadline: Optional[float] = None  # monotonic deadline; None = none

    def remaining(self, now: Optional[float] = None) -> Optional[float]:
        if self.deadline is None:
            return None
        return self.deadline - (time.monotonic() if now is None else now)


class _TenantState:
    __slots__ = ("queue", "last_tag", "served", "shed", "weight")

    def __init__(self, weight: float):
        self.queue: Deque[ScheduledItem] = deque()
        self.last_tag = 0.0
        self.served = 0
        self.shed = 0
        self.weight = weight


class FairScheduler:
    """Bounded per-tenant queues dispatched in virtual-finish-tag order."""

    def __init__(self, config: Optional[SchedulerConfig] = None):
        self.config = config or SchedulerConfig()
        self._tenants: Dict[str, _TenantState] = {}
        self._virtual_time = 0.0
        self._seq = itertools.count()
        self.total_shed = 0
        self.total_served = 0

    # -- tenant bookkeeping ----------------------------------------------------

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            if len(self._tenants) >= self.config.max_tenants:
                self._evict_idle_tenant()
            weight = self.config.tenant_weights.get(
                tenant, self.config.default_weight
            )
            state = _TenantState(max(1e-6, weight))
            self._tenants[tenant] = state
        return state

    def _evict_idle_tenant(self) -> None:
        for name, state in list(self._tenants.items()):
            if not state.queue:
                del self._tenants[name]
                return
        raise Shed(
            f"tenant table full ({self.config.max_tenants} active tenants)",
            retry_after_ms=1000,
            rule_id="queue.shed",
        )

    # -- admission ---------------------------------------------------------------

    def submit(
        self,
        tenant: str,
        payload: Any,
        deadline: Optional[float] = None,
        cost: float = 1.0,
        retry_after_ms: Optional[int] = None,
    ) -> ScheduledItem:
        """Admit one request or raise :class:`Shed`.

        ``deadline`` is an absolute ``time.monotonic()`` instant; a
        request already past it is shed immediately.  ``retry_after_ms``
        overrides the backoff hint (the server estimates it from recent
        latency); the default scales with the tenant's backlog.
        """
        now = time.monotonic()
        if deadline is not None and now >= deadline:
            raise Shed(
                f"deadline expired {now - deadline:.3f}s before admission",
                retry_after_ms=0,
                rule_id="gateway.deadline",
            )
        state = self._state(tenant)
        if len(state.queue) >= self.config.tenant_queue_limit:
            state.shed += 1
            self.total_shed += 1
            hint = retry_after_ms
            if hint is None:
                hint = int(min(60_000, 250 * len(state.queue)))
            raise Shed(
                f"tenant {tenant!r} queue full "
                f"({self.config.tenant_queue_limit} pending)",
                retry_after_ms=hint,
                rule_id="queue.shed",
            )
        tag = max(self._virtual_time, state.last_tag) + cost / state.weight
        state.last_tag = tag
        item = ScheduledItem(
            tenant=tenant,
            payload=payload,
            tag=tag,
            seq=next(self._seq),
            enqueued=now,
            deadline=deadline,
        )
        state.queue.append(item)
        return item

    # -- dispatch ----------------------------------------------------------------

    def next(self) -> Optional[ScheduledItem]:
        """Pop the item with the smallest virtual finish tag, advancing
        the global virtual time; ``None`` when every queue is empty.

        Expired items are *not* skipped here — the server sheds them
        explicitly (they must still be answered), so dispatch order
        stays a pure function of the admitted sequence.
        """
        best: Optional[Tuple[float, int, str]] = None
        for name, state in self._tenants.items():
            if not state.queue:
                continue
            head = state.queue[0]
            key = (head.tag, head.seq, name)
            if best is None or key < best:
                best = key
        if best is None:
            return None
        state = self._tenants[best[2]]
        item = state.queue.popleft()
        self._virtual_time = max(self._virtual_time, item.tag)
        state.served += 1
        self.total_served += 1
        return item

    def drain(self) -> List[ScheduledItem]:
        """Pop everything in dispatch order (shutdown path)."""
        out: List[ScheduledItem] = []
        while True:
            item = self.next()
            if item is None:
                return out
            out.append(item)

    # -- introspection -----------------------------------------------------------

    def depth(self, tenant: Optional[str] = None) -> int:
        if tenant is not None:
            state = self._tenants.get(tenant)
            return len(state.queue) if state else 0
        return sum(len(s.queue) for s in self._tenants.values())

    def tenants(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant accounting for status/metrics surfaces."""
        return {
            name: {
                "depth": len(state.queue),
                "served": state.served,
                "shed": state.shed,
                "weight": state.weight,
            }
            for name, state in sorted(self._tenants.items())
        }
