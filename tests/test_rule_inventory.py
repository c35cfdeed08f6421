"""Frozen inventories of public diagnostic rule ids.

Rule ids are a public contract (golden corpora, SARIF consumers, service
telemetry, client retry loops): additions are fine, renames and removals
are breaking.  Update these sets consciously.

Two inventories live here — the checker's finding rules
(``repro.checker.findings.ALL_RULE_IDS``, unchanged since the PR 5/6
goldens froze them) and the service/gateway tier's diagnostics rules
(``repro.service.diagnostics.SERVICE_RULE_IDS``, which grew the shared
``queue.shed`` admission rule and the ``gateway.*`` family when the
multi-tenant gateway landed).
"""

from repro.checker.findings import ALL_RULE_IDS
from repro.service import diagnostics as D


class TestCheckerRuleInventory:
    def test_rule_inventory_is_frozen(self):
        assert set(ALL_RULE_IDS) == {
            "lint.use-before-init",
            "lint.dead-store",
            "lint.unreachable",
            "lint.null-deref",
            "lint.missing-return",
            "lint.unused-local",
            "lint.unused-param",
            "safety.null-deref",
            "safety.leak",
            "safety.acyclic",
            "safety.termination",
            # Grew with the doubly-linked-list subsystem: back-pointer
            # consistency of output lists (DESIGN.md section 14).
            "safety.dll-consistent",
            "frontend.parse-error",
            "frontend.type-error",
            "checker.incomplete",
        }


class TestServiceRuleInventory:
    def test_rule_inventory_is_frozen(self):
        # ``budget`` is a prefix family (suffixed by kind at runtime);
        # ``queue.shed`` is the per-tenant admission-control rejection.
        assert set(D.SERVICE_RULE_IDS) == {
            "assertion",
            "budget",
            "equivalence",
            "worker.crashed",
            "worker.failed",
            "queue.shed",
            "gateway.deadline",
            "gateway.session-evicted",
            "gateway.draining",
            "frontend.parse-error",
            "frontend.type-error",
        }

    def test_queue_shed_alias_is_stable(self):
        # Pre-gateway imports keyed on RULE_QUEUE_REJECTED; the alias
        # must keep resolving to the shared shed rule.
        assert D.RULE_QUEUE_REJECTED == D.RULE_QUEUE_SHED == "queue.shed"

    def test_no_overlap_between_tiers(self):
        overlap = set(ALL_RULE_IDS) & set(D.SERVICE_RULE_IDS) - {
            "frontend.parse-error",
            "frontend.type-error",  # the shared frontend family
        }
        assert not overlap
