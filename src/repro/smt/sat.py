"""A compact incremental CDCL SAT solver.

The solver implements the standard conflict-driven clause learning loop with
two-watched-literal propagation (Eén & Sörensson, "An Extensible SAT-solver",
SAT 2003), first-UIP conflict analysis, lazy max-heap VSIDS decision
ordering, phase saving, Luby restarts and LBD-based learned clause database
reduction.  It is deliberately small but it is a real solver: the
bit-blasted vectorization equivalence queries it receives routinely contain
a few thousand clauses.

The engine is *incremental*: clause database, learned clauses, variable
activities and saved phases persist across :meth:`CDCLSolver.solve` calls, and
``solve(assumptions)`` answers satisfiability under the given assumption
literals without destroying that state.  The equivalence checker exploits this
by asserting every lane/unroll pair of one kernel behind a selector literal in
a single solver instance, so the shared gate structure and lemmas are learned
once instead of per pair.

Literals are encoded as nonzero integers at the API (DIMACS convention:
``-v`` is the negation of variable ``v``).  Per-call propagation/conflict
budgets turn runaway queries into a ``SATResult.UNKNOWN`` answer, which the
verification layer reports as Inconclusive — the analogue of an Alive2/Z3
timeout.

The search is fixed, only its bookkeeping is tuned.  A budget-bound UNKNOWN
depends on every step of the search, so each ``solve`` call's result,
:class:`SATStatistics` and model are pinned per campaign call in
``tests/data/sat_trajectories.json``.  What fixes the trajectory:

* the order of each watch list: a moved watch is appended to its new
  literal's list, and its slot is filled by the list's last clause, which is
  visited next;
* the order of literals in a clause when conflict analysis reads it, which
  sets the bump order and the learned clause ``[asserting] + rest``;
* the bump arithmetic (``+= increment``, then ``*= 1.05``, rescaled by
  ``1e-100`` once an activity passes ``1e100``);
* branching on the highest-activity unassigned variable, ties to the
  smallest index, in its saved phase;
* Luby restarts, the learned-clause reduction policy, budgets checked where
  they are, and ``propagations`` counted as trail literals dequeued.

So there are no blocker literals, no separate binary implication lists and
no order-preserving watch removal: each of those searches differently.  The
bookkeeping under that search:

* inside the solver a literal is a list index: variable ``v`` is ``2v`` and
  its negation ``2v + 1`` (negation is ``^ 1``), so the value and watch
  tables are plain lists indexed by literal;
* propagation is one inlined loop; a visit whose other watch is already true
  moves nothing and writes nothing to the clause (every visit that does work
  puts the other watch at position 0 and the falsified one at position 1,
  and only such a visit hands a clause to conflict analysis);
* bumps are inlined into conflict analysis and push nothing: a bumped
  variable is assigned, and the heap entry it needs is pushed when
  backtracking unassigns it, only if the heap holds no entry with its
  current activity (the ``_queued`` flag);
* backtracking leaves reasons in place; the reduction protects the reasons
  of the root-level trail instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heapify, heappop, heappush


class SATResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SATStatistics:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    restarts: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "learned_clauses": self.learned_clauses,
            "restarts": self.restarts,
        }


def luby(index: int) -> int:
    """The Luby restart sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (1-based)."""
    k = 1
    while (1 << (k + 1)) - 1 <= index:
        k += 1
    while index != (1 << k) - 1:
        index -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= index:
            k += 1
    return 1 << (k - 1)


_RESTART_BASE = 128


def _code(literal: int) -> int:
    """The internal index of a DIMACS literal: ``2v`` for ``v``, ``2v + 1`` for ``-v``."""
    return literal + literal if literal > 0 else 1 - literal - literal


class CDCLSolver:
    """Incremental conflict-driven clause-learning solver over integer literals."""

    def __init__(self, propagation_budget: int = 2_000_000, conflict_budget: int = 50_000):
        self.num_vars = 0
        self.propagation_budget = propagation_budget
        self.conflict_budget = conflict_budget
        self.stats = SATStatistics()
        # Per-literal state, indexed by internal literal (slots 0 and 1 unused).
        self._values: list[bool | None] = [None, None]
        self._watches: list[list[list[int]]] = [[], []]
        # Per-variable state (index 1..num_vars; slot 0 unused).
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[int] = [0]  # saved phase, as the literal to decide
        self._queued = bytearray(1)  # 1: the heap holds the current activity
        self._activity_increment = 1.0
        self._heap: list[tuple[float, int]] = []
        # Clause state.
        self.clauses: list[list[int]] = []  # original (problem) clauses, DIMACS
        self._pending: list[list[int]] = []  # added since the last solve()
        self._learned: list[list[int]] = []
        self._clause_lbd: dict[int, int] = {}
        self._learned_limit = 2000
        # Search state; the decision level is len(_trail_limits).
        self._trail: list[int] = []
        self._trail_limits: list[int] = []
        self._propagation_head = 0
        self._unsat = False  # permanently UNSAT at the root

    # -- problem construction -----------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: list[int]) -> None:
        """Add a clause (list of literals); empty clauses make the problem UNSAT."""
        clause = sorted(set(literals), key=abs)
        seen = set(clause)
        if any(-lit in seen for lit in clause):
            return  # tautology (x OR NOT x)
        for literal in clause:
            if abs(literal) > self.num_vars:
                self.num_vars = abs(literal)
        self.clauses.append(clause)
        self._pending.append(clause)

    def _grow(self) -> None:
        level = self._level
        while len(level) <= self.num_vars:
            variable = len(level)
            level.append(0)
            self._reason.append(None)
            self._activity.append(0.0)
            self._phase.append(variable + variable + 1)  # negative-first
            self._queued.append(1)
            heappush(self._heap, (0.0, variable))
            self._values += (None, None)
            self._watches += ([], [])

    # -- solving ---------------------------------------------------------------------

    def solve(self, assumptions: list[int] | None = None) -> tuple[SATResult, dict[int, bool]]:
        """Solve under ``assumptions``; returns (result, model) with model var -> bool.

        The call is incremental: learned clauses, activities and phases are
        kept for the next call, and the trail is rewound to the root on exit.
        UNSAT under non-empty assumptions means only that this assumption set
        is infeasible, not that the clause database is.
        """
        if self._unsat:
            return SATResult.UNSAT, {}
        for literal in assumptions or []:
            if abs(literal) > self.num_vars:
                self.num_vars = abs(literal)
        self._grow()
        self._backtrack(0)
        if not self._attach_pending():
            self._unsat = True
            return SATResult.UNSAT, {}
        if self._propagate() is not None:
            self._unsat = True
            return SATResult.UNSAT, {}

        assumed = [_code(literal) for literal in assumptions or []]
        stats = self.stats
        conflict_ceiling = stats.conflicts + self.conflict_budget
        propagation_ceiling = stats.propagations + self.propagation_budget
        restart_index = 1
        conflicts_until_restart = luby(restart_index) * _RESTART_BASE
        values = self._values
        trail = self._trail
        limits = self._trail_limits

        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts_until_restart -= 1
                if not limits:
                    self._unsat = True
                    return SATResult.UNSAT, {}
                if len(limits) <= len(assumed):
                    # The conflict depends on no real decision, only on the
                    # assumption prefix: UNSAT under these assumptions.
                    self._backtrack(0)
                    return SATResult.UNSAT, {}
                if stats.conflicts > conflict_ceiling:
                    self._backtrack(0)
                    return SATResult.UNKNOWN, {}
                learned, backtrack_level, lbd = self._analyze(conflict)
                # Backtrack to the asserting level even when that is below the
                # assumption prefix — the decision loop re-assumes the tail, and
                # a unit lemma lands permanently at level 0 (it is implied by
                # the clause database alone, not by the assumptions).
                self._backtrack(backtrack_level)
                self._learn(learned, lbd)
            elif conflicts_until_restart <= 0:
                stats.restarts += 1
                restart_index += 1
                conflicts_until_restart = luby(restart_index) * _RESTART_BASE
                self._backtrack(0)
                if len(self._learned) > self._learned_limit:
                    self._reduce_learned()
            else:
                if stats.propagations > propagation_ceiling:
                    self._backtrack(0)
                    return SATResult.UNKNOWN, {}
                if len(limits) < len(assumed):
                    literal = assumed[len(limits)]
                    value = values[literal]
                    if value is False:
                        self._backtrack(0)
                        return SATResult.UNSAT, {}
                    limits.append(len(trail))
                    if value is None:
                        self._enqueue(literal, None)
                    continue
                literal = self._pick_branch()
                if literal is None:
                    model = {var: values[var + var] for var in range(1, self.num_vars + 1)
                             if values[var + var] is not None}
                    self._backtrack(0)
                    return SATResult.SAT, model
                stats.decisions += 1
                limits.append(len(trail))
                self._enqueue(literal, None)

    # -- clause attachment -------------------------------------------------------------

    def _attach_pending(self) -> bool:
        """Attach clauses added since the last solve; False on a root conflict.

        Runs at decision level 0, so any assigned literal is permanently
        assigned and can be simplified out of the incoming clause.
        """
        values = self._values
        watches = self._watches
        for clause in self._pending:
            live = [code for code in map(_code, clause) if values[code] is not False]
            if any(values[code] for code in live):
                continue
            if not live:
                return False
            if len(live) == 1:
                self._enqueue(live[0], live)
                continue
            watches[live[0]].append(live)
            watches[live[1]].append(live)
        self._pending.clear()
        return True

    # -- internal state ---------------------------------------------------------------

    def _enqueue(self, literal: int, reason: list[int] | None) -> None:
        variable = literal >> 1
        self._values[literal] = True
        self._values[literal ^ 1] = False
        self._level[variable] = len(self._trail_limits)
        self._reason[variable] = reason
        self._phase[variable] = literal
        self._trail.append(literal)

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        values = self._values
        watches = self._watches
        level = self._level
        reason = self._reason
        phase = self._phase
        trail = self._trail
        current = len(self._trail_limits)
        start = head = self._propagation_head
        while head < len(trail):
            falsified = trail[head] ^ 1
            head += 1
            watching = watches[falsified]
            size = len(watching)
            index = 0
            while index < size:
                clause = watching[index]
                other = clause[0]
                if other == falsified:
                    other = clause[1]
                    if values[other]:
                        index += 1
                        continue
                    clause[0] = other
                    clause[1] = falsified
                elif values[other]:
                    index += 1
                    continue
                # Look for a replacement watch.
                for position in range(2, len(clause)):
                    candidate = clause[position]
                    if values[candidate] is not False:
                        clause[1] = candidate
                        clause[position] = falsified
                        watches[candidate].append(clause)
                        size -= 1
                        watching[index] = watching[size]
                        watching.pop()
                        break
                else:
                    # No replacement: the clause is unit or conflicting.
                    if values[other] is False:
                        self._propagation_head = head
                        self.stats.propagations += head - start
                        return clause
                    values[other] = True
                    values[other ^ 1] = False
                    variable = other >> 1
                    level[variable] = current
                    reason[variable] = clause
                    phase[variable] = other
                    trail.append(other)
                    index += 1
        self._propagation_head = head
        self.stats.propagations += head - start
        return None

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int, int]:
        """First-UIP analysis; returns (learned clause, backtrack level, LBD).

        The learned clause is ``[asserting] + rest``, ``rest`` in the order
        its literals were met.
        """
        learned = [0]  # slot 0 takes the asserting literal
        seen = bytearray(self.num_vars + 1)
        level = self._level
        reason = self._reason
        activity = self._activity
        queued = self._queued
        increment = self._activity_increment
        counter = 0
        clause = conflict
        trail = self._trail
        trail_index = len(trail) - 1
        current = len(self._trail_limits)

        while True:
            for lit in clause:
                variable = lit >> 1
                if seen[variable] or not level[variable]:
                    continue
                seen[variable] = 1
                bumped = activity[variable] + increment
                activity[variable] = bumped
                queued[variable] = 0  # any heap entry is stale now
                if bumped > 1e100:
                    increment = self._rescale(increment)
                increment *= 1.05
                if level[variable] == current:
                    counter += 1
                else:
                    learned.append(lit)
            # Find the next literal on the trail at the current level.
            while True:
                literal = trail[trail_index]
                trail_index -= 1
                if seen[literal >> 1]:
                    break
            counter -= 1
            if counter == 0:
                break
            clause = reason[literal >> 1] or []
        self._activity_increment = increment
        learned[0] = literal ^ 1
        self.stats.learned_clauses += 1
        if len(learned) == 1:
            return learned, 0, 1
        backtrack_level = max(level[lit >> 1] for lit in learned[1:])
        lbd = len({level[lit >> 1] for lit in learned})
        return learned, backtrack_level, lbd

    def _rescale(self, increment: float) -> float:
        """Scale every activity by 1e-100; returns the scaled increment.

        The heap is rebuilt from the unassigned variables, the only ones
        that need an entry.
        """
        activity = self._activity
        for index in range(1, self.num_vars + 1):
            activity[index] *= 1e-100
        values = self._values
        queued = self._queued
        heap: list[tuple[float, int]] = []
        for variable in range(1, self.num_vars + 1):
            unassigned = values[variable + variable] is None
            queued[variable] = unassigned
            if unassigned:
                heap.append((-activity[variable], variable))
        heapify(heap)
        self._heap = heap
        return increment * 1e-100

    def _backtrack(self, target: int) -> None:
        limits = self._trail_limits
        if len(limits) <= target:
            return
        limit = limits[target]
        del limits[target:]
        values = self._values
        trail = self._trail
        heap = self._heap
        activity = self._activity
        queued = self._queued
        for literal in trail[limit:]:
            values[literal] = values[literal ^ 1] = None
            variable = literal >> 1
            if not queued[variable]:
                queued[variable] = 1
                heappush(heap, (-activity[variable], variable))
        del trail[limit:]
        self._propagation_head = limit

    def _learn(self, clause: list[int], lbd: int) -> None:
        # The asserting literal is first, so it becomes unit immediately.
        if len(clause) > 1:
            self._watches[clause[0]].append(clause)
            self._watches[clause[1]].append(clause)
            self._learned.append(clause)
            self._clause_lbd[id(clause)] = lbd
        self._enqueue(clause[0], clause)

    def _reduce_learned(self) -> None:
        """Drop the worst (highest-LBD) half of the learned clause database.

        Called at a restart, so the trail holds only level-0 assignments;
        clauses acting as their reasons and glue clauses (LBD <= 2) are kept.
        """
        reason = self._reason
        protected = {id(reason[literal >> 1]) for literal in self._trail}
        lbd = self._clause_lbd
        ranked = sorted(self._learned, key=lambda c: lbd.get(id(c), 1), reverse=True)
        doomed: set[int] = set()
        for clause in ranked[: len(ranked) // 2]:
            clause_id = id(clause)
            if lbd.get(clause_id, 1) <= 2 or clause_id in protected:
                continue
            doomed.add(clause_id)
        if not doomed:
            self._learned_limit = int(self._learned_limit * 1.5)
            return
        self._learned = [c for c in self._learned if id(c) not in doomed]
        for clause_id in doomed:
            lbd.pop(clause_id, None)
        watches = self._watches
        for literal, watching in enumerate(watches):
            if any(id(c) in doomed for c in watching):
                watches[literal] = [c for c in watching if id(c) not in doomed]
        self._learned_limit = int(self._learned_limit * 1.1)

    def _pick_branch(self) -> int | None:
        """Highest-activity unassigned variable, in its saved phase.

        The heap is lazy: an entry whose recorded activity no longer matches
        the variable's activity is stale and discarded on pop, and so is an
        entry of an assigned variable.  Every unassigned variable has an
        entry with its current activity (``_grow``, ``_rescale`` and
        ``_backtrack`` push one where ``_queued`` says none is left), so the
        first entry that survives is the argmax, ties to the smallest index.
        """
        heap = self._heap
        values = self._values
        activity = self._activity
        queued = self._queued
        while heap:
            negated, variable = heappop(heap)
            if activity[variable] != -negated:
                continue
            queued[variable] = 0
            if values[variable + variable] is None:
                return self._phase[variable]
        return None
