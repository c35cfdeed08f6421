"""Multi-tenant incremental sessions under an LRU residency bound.

Each tenant keeps its own :class:`repro.service.session.Session` per
program id — its private dirty-cone state, retained outputs, and
generation counter — so one tenant's edits never invalidate another's
warm results.  Sessions are resident-bounded: with millions of users a
gateway cannot hold every tenant's retained outputs forever, so the
least-recently-used session is closed when ``max_sessions`` is hit.
Eviction is cheap to recover from by construction: the persistent
summary store is shared and cone-keyed, so a re-created session's first
analyze re-hits the store instead of recomputing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.service.frontend import Frontend
from repro.service.session import Session

SessionKey = Tuple[str, str]  # (tenant, program_id)


class SessionManager:
    """LRU-bounded ``(tenant, program_id) -> Session`` map.

    Thread-safe: the gateway's dispatch workers run in an executor, so
    lookups and evictions race.  Each resident entry also carries a
    per-session lock — two in-flight requests for the same session must
    serialize (Session is single-writer), while different sessions
    proceed in parallel.
    """

    def __init__(
        self,
        max_sessions: int = 64,
        store_dir: Optional[str] = None,
        jobs: int = 0,
        max_seconds: Optional[float] = None,
    ):
        self.max_sessions = max(1, max_sessions)
        self.store_dir = store_dir
        self.jobs = jobs
        self.max_seconds = max_seconds
        self._lock = threading.Lock()
        self._sessions: "OrderedDict[SessionKey, Tuple[Session, threading.Lock]]" = (
            OrderedDict()
        )
        self.evictions = 0

    # -- lookup ------------------------------------------------------------------

    def acquire(
        self, tenant: str, program_id: str, frontend: Frontend
    ) -> Tuple[Session, threading.Lock, bool]:
        """The session for ``(tenant, program_id)``, created from
        ``frontend`` (a :class:`~repro.service.frontend.Frontend`) when
        not resident; returns ``(session, session_lock, evicted_any)``.

        This method only resolves residency (LRU touch, create, evict);
        the caller brings the session up to date with
        :meth:`update_if_changed` under the session lock.
        """
        key = (tenant, program_id)
        evicted = False
        with self._lock:
            entry = self._sessions.get(key)
            if entry is not None:
                self._sessions.move_to_end(key)
                return entry[0], entry[1], False
            while len(self._sessions) >= self.max_sessions:
                _, (old, old_lock) = self._sessions.popitem(last=False)
                # Close under the session lock: an in-flight request on
                # the evicted session finishes before the store handle
                # (a TemporaryDirectory for private stores) goes away.
                with old_lock:
                    old.close()
                self.evictions += 1
                evicted = True
            session = Session(
                frontend,
                store_dir=self.store_dir,
                jobs=self.jobs,
                max_seconds=self.max_seconds,
            )
            lock = threading.Lock()
            self._sessions[key] = (session, lock)
        return session, lock, evicted

    @staticmethod
    def update_if_changed(session: Session, frontend: Frontend) -> Optional[Any]:
        """Update ``session`` to ``frontend``'s program when the ICFG
        changed; returns the dirty-cone delta or ``None``.  Call while
        holding the session lock."""
        from repro.engine.canon import icfg_fingerprint

        if icfg_fingerprint(session.analyzer.icfg) == icfg_fingerprint(
            frontend.icfg
        ):
            return None
        return session.update(frontend)

    # -- maintenance -------------------------------------------------------------

    def flush(
        self, tenant: Optional[str] = None, program_id: Optional[str] = None
    ) -> int:
        """Drop retained outputs of the sessions that match both filters
        (``None`` matches any); returns the dropped-entry count.
        Sessions stay resident."""
        dropped = 0
        with self._lock:
            entries = [
                entry
                for key, entry in self._sessions.items()
                if tenant in (None, key[0]) and program_id in (None, key[1])
            ]
        for session, lock in entries:
            with lock:
                dropped += session.flush()
        return dropped

    def close(self) -> None:
        with self._lock:
            entries = list(self._sessions.values())
            self._sessions.clear()
        for session, lock in entries:
            with lock:
                session.close()

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def describe(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return {
                f"{tenant}/{program_id}": {
                    "procs": len(session.index.bodies),
                    "generation": session.generation,
                    "retained": len(session._outputs),
                }
                for (tenant, program_id), (session, _) in self._sessions.items()
            }
