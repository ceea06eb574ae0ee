"""Content-addressed cache of solved SAT equivalence queries.

The plan cache (:mod:`repro.vectorizer.plancache`) deduplicates the parse
and planning work of one kernel; this module is its counterpart for the
verification endgame: the aggregated verdict of one SAT *query batch* — the
ordered list of term pairs one kernel's equivalence check hands to the
bit-blasting stage — keyed by the content digests of those exact pairs plus
every solver parameter the answer depends on (bitwidth, conflict and
propagation budgets).

Keying on the full input set is what makes the cache safe under any
scheduling: a hit can only occur where a fresh solve would have received
bit-identical inputs, so it returns bit-identical output, and campaign
results stay independent of worker count, batch size and completion order.
The payoff is cross-target and cross-campaign reuse within a process: the
two simulated SVE vector lengths (``sve128``/``sve256``) emit identical
query batches today and used to solve every one of them twice.

Entries are plain JSON-serializable dicts, so they ship through the warm
worker initializer and come back in batch envelopes exactly like the plan
cache's counters (:mod:`repro.pipeline.scheduler`).  The module also keeps
the fleet-wide solver counters (decisions/conflicts/learned/restarts) that
:class:`~repro.pipeline.campaign.CampaignSummary` aggregates.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

from repro.memo import Memo
from repro.smt.sat import SATStatistics
from repro.smt.terms import Term, term_digest


@dataclass
class SolveCacheStats:
    """Fleet-accountable counters: cache traffic plus raw solver work.

    Every field is a monotonic counter so the scheduler's
    ``counter_delta``/``merge_counts`` protocol can ship per-batch deltas
    from workers and fold them into one campaign-wide tally.
    """

    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    restarts: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_stores": self.cache_stores,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "learned_clauses": self.learned_clauses,
            "restarts": self.restarts,
        }

    def add_solver(self, solver_stats: SATStatistics) -> None:
        self.decisions += solver_stats.decisions
        self.propagations += solver_stats.propagations
        self.conflicts += solver_stats.conflicts
        self.learned_clauses += solver_stats.learned_clauses
        self.restarts += solver_stats.restarts


stats = SolveCacheStats()

_CACHE = Memo(8192)
#: The (key, record) stores of the batch a worker is running, so it can ship
#: them back to the campaign parent; ``None`` outside a batch, so a serial
#: process journals nothing.
_journal: list[tuple[str, dict]] | None = None


def query_key(pairs: "list[tuple[Term, Term]]", bitwidth: int,
              conflict_budget: int, propagation_budget: int,
              model_bits: int = 32) -> str:
    """The content address of one SAT query batch.

    Covers everything the batched solve depends on: the ordered source and
    target term digests and the solver parameters, including the modeled
    lane element width (``model_bits``) — structurally identical terms mean
    different things at different widths, so dtype-distinct queries can
    never share a record.  Two batches with the same key are solved
    bit-identically, which is the determinism contract a cache hit relies
    on.
    """
    parts = [f"w{bitwidth}/m{model_bits}/c{conflict_budget}/p{propagation_budget}"]
    for source, target in pairs:
        parts.append(term_digest(source))
        parts.append(term_digest(target))
    return "|".join(parts)


def lookup(key: str) -> dict | None:
    """The stored batch record, counting the hit/miss."""
    record = _CACHE.get(key)
    if record is None:
        stats.cache_misses += 1
        return None
    stats.cache_hits += 1
    return record


def store(key: str, record: dict) -> None:
    """Store one solved batch record (a JSON-serializable dict)."""
    _CACHE.put(key, record)
    if _journal is not None:
        _journal.append((key, record))
    stats.cache_stores += 1


@contextlib.contextmanager
def batch_journal() -> Iterator[list[tuple[str, dict]]]:
    """Collect every (key, record) stored inside the ``with`` block (one
    worker batch) into the list it yields; stores outside one are not kept."""
    global _journal
    entries: list[tuple[str, dict]] = []
    _journal = entries
    try:
        yield entries
    finally:
        _journal = None


def export_entries() -> list[tuple[str, dict]]:
    """Every live entry, for pre-seeding warm workers."""
    return list(_CACHE.items())


def seed_entries(entries: "Iterable[tuple[str, dict]]") -> None:
    """Adopt entries discovered elsewhere (the parent or another worker).

    Seeding counts as stores only for genuinely new keys and never touches
    the hit/miss counters — it is bookkeeping, not solving.
    """
    for key, record in entries:
        if key not in _CACHE:
            _CACHE.put(key, record)


def clear_caches() -> None:
    """Drop every entry and reset the counters (tests measure from zero)."""
    _CACHE.clear()
    stats.cache_hits = stats.cache_misses = stats.cache_stores = 0
    stats.decisions = stats.propagations = 0
    stats.conflicts = stats.learned_clauses = stats.restarts = 0
