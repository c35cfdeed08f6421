"""Hash-keyed in-memory summary cache.

The engine tabulates one record per ``(procedure, entry configuration)``
*within* a run, but the seed threw all of that work away between runs —
and the workloads re-run constantly: ``analyze_strengthened`` re-analyzes
the AM domain that ``check_equivalence`` just computed, equivalence checks
analyze both programs in both domains, and benchmarks repeat analyses for
timing.  This cache keys a whole run's record table by

    (program fingerprint, root procedure, domain descriptor,
     pattern set, fold bound k, hook tags)

so a repeated analysis is a dictionary lookup.  Caching whole record
tables (every ``(proc, entry, summary)`` of the run, not only the root's)
keeps the AM-strengthening hook exact: it looks up callee records of the
AM engine by entry key, and those must all be present on a hit.

Cross-run persistence, with its payload codec, is
:class:`repro.parallel.store.PersistentSummaryStore` (one file per key,
safe for worker pools, compacted into packs); this cache keeps run
payloads as opaque in-memory objects.
"""

from __future__ import annotations

from typing import Tuple

from repro.kernels import LRUMemo

CacheKey = Tuple  # (program_fp, proc, domain_desc, k, hook_tag, assume_tag)


# The kernels' bounded LRU memo; it treats run payloads as opaque.
SummaryCache = LRUMemo
