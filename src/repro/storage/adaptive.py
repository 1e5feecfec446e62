"""Adaptive run-time index creation (paper Section 10).

    "the back end will employ adaptive optimization techniques that select
    appropriate storage structures and access methods at run-time based on
    changing properties of the database and patterns of access.  For
    example, an index could be created for a relation after the cumulative
    cost of selection by scanning the relation reaches the cost of creating
    the index."

The policy sees, for each (relation, bound-column-set) pair, the cumulative
cost of selections answered by scanning, and decides when to amortize an
index build.  Two degenerate policies -- never index, always index -- serve
as the baselines for experiment E5.
"""

from __future__ import annotations

from repro.storage.stats import ScanCostLedger


class IndexPolicy:
    """Interface: decide whether to build an index for a column set now."""

    def should_build(self, ledger: ScanCostLedger, relation_size: int) -> bool:
        raise NotImplementedError


class AdaptiveIndexPolicy(IndexPolicy):
    """Build once cumulative scan cost reaches the index-build cost.

    The build cost is modeled as ``relation_size`` tuple-touches; the
    cumulative scan cost is the total number of tuples examined by scans
    that an index would have avoided.  After roughly one full scan's worth
    of wasted work the index pays for itself -- the paper's stated
    crossover rule.
    """

    def should_build(self, ledger: ScanCostLedger, relation_size: int) -> bool:
        if relation_size == 0:
            return False
        return ledger.cumulative_scan_cost >= relation_size


class NeverIndexPolicy(IndexPolicy):
    """Baseline: always answer selections by scanning."""

    def should_build(self, ledger: ScanCostLedger, relation_size: int) -> bool:
        return False


class AlwaysIndexPolicy(IndexPolicy):
    """Baseline: build an index on the first selection, however small."""

    def should_build(self, ledger: ScanCostLedger, relation_size: int) -> bool:
        return relation_size > 0
