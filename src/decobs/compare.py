"""Permissiveness comparison between fusion rules.

One rule is at least as permissive as another exactly when a morphism exists
between their decision graphs, so a pair of searches settles the relation in
both directions, and the witnesses double as reusable conversion recipes.
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
    missing ``witness_bwd`` with the second rule.
    """

    relation: str
    witness_fwd: Morphism | None
    witness_bwd: Morphism | None


def _relation(fwd_found: bool, bwd_found: bool) -> str:
    if fwd_found and bwd_found:
        return "equivalent"
    if fwd_found:
        return "first_strictly_less"
    if bwd_found:
        return "first_strictly_more"
    return "incomparable"


def compare(
    first: FusionRule, second: FusionRule, budget: int | None = None
) -> PermissivenessVerdict:
    """Compare the classes of problems solvable under two rules."""
    return relation_matrix((first, second), budget).verdicts[0][1]


@dataclass(frozen=True)
class RelationMatrix:
    """Pairwise verdicts over a list of rules, plus the induced order.

    ``classes`` partitions rule indices into equivalence classes (mutually
    convertible rules); ``hasse`` lists covering pairs (lower, upper) of class
    indices in the strict order "strictly less permissive than".
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
    are identity maps.
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
        tuple(
            PermissivenessVerdict(
                _relation(witnesses[i][j] is not None, witnesses[j][i] is not None),
                witnesses[i][j],
                witnesses[j][i],
            )
            for j in range(size)
        )
        for i in range(size)
    )
    at_most = [[witnesses[i][j] is not None for j in range(size)] for i in range(size)]

    classes: list[list[int]] = []
    for i in range(size):
        for cls in classes:
            rep = cls[0]
            if at_most[i][rep] and at_most[rep][i]:
                cls.append(i)
                break
        else:
            classes.append([i])

    def strictly_below(a: int, b: int) -> bool:
        ra, rb = classes[a][0], classes[b][0]
        return at_most[ra][rb] and not at_most[rb][ra]

    hasse = tuple(
        (a, b)
        for a in range(len(classes))
        for b in range(len(classes))
        if strictly_below(a, b)
        and not any(
            strictly_below(a, c) and strictly_below(c, b) for c in range(len(classes))
        )
    )
    return RelationMatrix(verdicts, tuple(tuple(c) for c in classes), hasse)
