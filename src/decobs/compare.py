"""Permissiveness comparison between fusion rules.

One rule is at least as permissive as another exactly when a morphism exists
between their decision graphs, so a pair of searches settles the relation in
both directions, and the witnesses double as reusable conversion recipes,
read per agent by ``extract_solution(verdict.witness_fwd)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArityMismatch
from .graph import build_decision_graph
from .model import FusionRule
from .morphism import Morphism, find_morphism


@dataclass(frozen=True)
class PermissivenessVerdict:
    """Outcome of comparing two rules, with the morphisms that witness it.

    ``witness_fwd`` maps the first rule's decision graph into the second's
    (present iff the second is at least as permissive), ``witness_bwd`` the
    converse.  A missing ``witness_fwd`` means that
    ``decision_graph_to_observation(first)`` is solvable under the first
    rule and not under the second, so it separates them; likewise for a
    missing ``witness_bwd`` with the second rule.  ``relation`` is read off
    which witnesses exist.
    """

    witness_fwd: Morphism | None
    witness_bwd: Morphism | None

    @property
    def relation(self) -> str:
        """``equivalent``, ``first_strictly_less``, ``first_strictly_more`` or
        ``incomparable``, as the two witnesses establish."""
        if self.witness_fwd is not None:
            return "equivalent" if self.witness_bwd is not None else "first_strictly_less"
        return "first_strictly_more" if self.witness_bwd is not None else "incomparable"


def compare(
    first: FusionRule, second: FusionRule, budget: int | None = None
) -> PermissivenessVerdict:
    """Compare the classes of problems solvable under two rules."""
    return relation_matrix((first, second), budget).verdicts[0][1]


@dataclass(frozen=True)
class RelationMatrix:
    """Pairwise verdicts over a list of rules, plus the induced order.

    ``classes`` partitions rule indices into equivalence classes (mutually
    convertible rules), in order of first member; ``hasse`` lists covering
    pairs (lower, upper) of class indices in the strict order "strictly less
    permissive than".  "At most as permissive" is a preorder (identities and
    composed morphisms are morphisms), so two rules are equivalent exactly
    when their rows of found witnesses are equal.
    """

    verdicts: tuple[tuple[PermissivenessVerdict, ...], ...]
    classes: tuple[tuple[int, ...], ...]
    hasse: tuple[tuple[int, int], ...]


def check_arities(counts: list[int]) -> None:
    """Raise ``ArityMismatch`` naming the first agent count that differs
    from the first one."""
    for k, n in enumerate(counts[1:], start=2):
        if n != counts[0]:
            raise ArityMismatch(
                f"all rules must share one agent count: rule 1 has {counts[0]} "
                f"agents, rule {k} has {n}"
            )


def relation_matrix(rules, budget: int | None = None) -> RelationMatrix:
    """Compare every ordered pair of rules and summarise the preorder.

    The searches run row by row, so for two rules the forward search runs
    before the backward one.  The diagonal needs no search: its witnesses
    are identity maps.  Row i of ``at_most`` marks the rules at least as
    permissive as rule i.  The relation is reflexive and transitive, so
    equal rows are exactly equivalent rules and the classes are the
    distinct rows.  ``below`` is the strict order between the classes' first
    members; a cover has no class strictly between.
    """
    rules = tuple(rules)
    if not rules:
        raise ValueError("at least one rule is required")
    check_arities([r.n for r in rules])
    graphs = [build_decision_graph(r) for r in rules]
    size = len(rules)
    witnesses = [
        [
            Morphism(graphs[i], graphs[i], range(len(graphs[i])))
            if i == j
            else find_morphism(graphs[i], graphs[j], budget=budget)
            for j in range(size)
        ]
        for i in range(size)
    ]
    verdicts = tuple(
        tuple(PermissivenessVerdict(witnesses[i][j], witnesses[j][i]) for j in range(size))
        for i in range(size)
    )
    at_most = [tuple(w is not None for w in row) for row in witnesses]
    by_row: dict[tuple[bool, ...], list[int]] = {}
    for i, row in enumerate(at_most):
        by_row.setdefault(row, []).append(i)
    classes = tuple(map(tuple, by_row.values()))
    firsts = [members[0] for members in classes]
    below = [[at_most[a][b] and not at_most[b][a] for b in firsts] for a in firsts]
    hasse = tuple(
        (a, b)
        for a, row in enumerate(below)
        for b, lower in enumerate(row)
        if lower and not any(mid and above[b] for mid, above in zip(row, below))
    )
    return RelationMatrix(verdicts, classes, hasse)
