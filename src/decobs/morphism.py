"""Colour-constrained morphisms between edge-coloured graphs.

A node map is a morphism when it preserves node colours and never enlarges an
edge colour (images may drop agents from an edge, never add them).  Finding
one decides solvability; the exhaustive table enumeration
(``solvable_by_enumeration``) decides the same question without ever
building a graph, which makes it a useful independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, count, product, repeat
from operator import and_, ne, or_
from typing import Hashable

from .errors import (
    ArityMismatch,
    GraphMismatch,
    InconsistentMorphism,
    SearchLimitExceeded,
    UnknownString,
)
from .graph import ColoredGraph
from .model import (
    FusionRule,
    Label,
    ObservationProblem,
    Token,
    _clashes,
    _columns,
    _observation_columns,
    _unique,
)

DEFAULT_ENUMERATION_BUDGET = 1_000_000


@dataclass(frozen=True)
class Morphism:
    """Total node map between two coloured graphs, stored by node index."""

    source: ColoredGraph
    target: ColoredGraph
    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(self.mapping) != len(self.source):
            raise ValueError(
                f"mapping covers {len(self.mapping)} nodes, source has {len(self.source)}"
            )
        size = len(self.target)
        if self.mapping and not (0 <= min(self.mapping) and max(self.mapping) < size):
            t = next(t for t in self.mapping if not 0 <= t < size)
            raise ValueError(f"target index {t} out of range")


@dataclass(frozen=True)
class MorphismReport:
    """Violations found when checking a node map against the morphism
    conditions: nodes whose colour is not preserved, and node pairs that
    share an agent's label but whose images differ in that agent's coordinate.

    ``edge_violations`` holds one pair (first node with the label, offending
    node) per offending node and agent, so it is empty exactly when every
    image edge colour is contained in its source edge colour.
    """

    node_violations: tuple[int, ...]
    edge_violations: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.node_violations and not self.edge_violations


def verify_morphism(m: Morphism) -> MorphismReport:
    """Check both morphism conditions: every node keeps its colour, and for
    each agent i, nodes sharing the label ``sig[i]`` have images sharing
    coordinate i: the edge violations are the ``_clashes`` of each agent's
    label column with its image column, merged and sorted.  Runs in O(N·n)
    for N source nodes and n agents, as whole-column passes."""
    if m.source.n != m.target.n:
        raise ArityMismatch(
            f"source has {m.source.n} agents, target has {m.target.n}"
        )
    src, tgt, f = m.source, m.target, m.mapping
    image_colours = map(tgt.colours.__getitem__, f)
    node_violations = tuple(compress(range(len(src)), map(ne, src.colours, image_colours)))
    images = tuple(map(tgt.signatures.__getitem__, f))
    clashes = map(_clashes, _columns(src.signatures, src.n), _columns(images, src.n))
    return MorphismReport(node_violations, tuple(sorted(set(chain.from_iterable(clashes)))))


def verify_d2o(p: ObservationProblem, rule: FusionRule) -> bool:
    """True iff pairing the k-th combination of ``rule.domain`` with the k-th
    string of ``p.L`` is an isomorphism of the decision graph onto the
    observation graph.  That needs one agent count, a string per combination
    (L keeps each string once, so two combinations spelled alike leave it
    short), K holding exactly the strings whose combination fuses to 1, and,
    per agent, decision and observation columns that are functions of each
    other: the morphism condition both ways, checked without a graph.  A
    table that lacks a string of L makes this False, not an error."""
    if not (p.n == rule.n == len(p.P) and len(p.L) == len(rule.domain)):
        return False
    if rule.outputs != tuple(map(int, map(p.K_set.__contains__, p.L))):
        return False
    try:
        columns = _observation_columns(p)
    except UnknownString:
        return False
    return not any(
        _clashes(d, o) or _clashes(o, d) for d, o in zip(_columns(rule.domain, p.n), columns)
    )


def _search(src: ColoredGraph, dst: ColoredGraph, budget: int | None) -> list[int] | None:
    """Complete backtracking search for a morphism image of every src node.

    Each unassigned node's candidates are a bitmask over target indices,
    starting from the targets of equal colour.  The edge condition holds
    exactly when, for each agent i, nodes sharing the label ``sig[i]`` map to
    targets sharing coordinate i; so assigning ``v -> t`` prunes only the
    unassigned nodes in the buckets ``(i, sig_v[i])``, with one AND against
    the mask of targets whose coordinate i equals ``t[i]`` (forward
    checking).  A bucket is narrowed only by the first node carrying its
    label that is assigned on the current path: every later unassigned
    member is already confined to that coordinate.  So the frame that
    assigns such a first node claims the bucket, prunes it for each of its
    candidates and releases it when popped.  The next node is the one with
    the fewest candidates, ties broken by declaration order.  ``by_count[c]``
    is the bitmask of the unassigned nodes whose domain has c bits, a bucket
    queue keyed by count: node u's bit sits at ``domains[u].bit_count()``
    exactly while u is unassigned, so it moves whenever the domain changes.
    An assigned node's domain is never pruned, so it is still filed under
    that count when the node is popped.  The lowest set bit of the first
    non-zero entry of ``by_count`` is the next node, found without scanning
    every node.  Candidates are tried lowest bit first, which is target
    declaration order, so the search is deterministic.  An explicit stack
    replaces recursion, so the search depth is not limited; ``budget`` caps
    the candidates tried.
    """
    buckets = src.label_buckets
    claimed: set[tuple[int, Hashable]] = set()
    dst_sigs = dst.signatures
    coord_masks = dst.label_masks
    colour_masks = dst.colour_masks
    domains = [colour_masks[c] for c in src.colours]
    by_count = [0] * (len(dst) + 1)
    for u, d in enumerate(domains):
        by_count[d.bit_count()] |= 1 << u
    assignment = [-1] * len(src)
    expansions = 0

    def prune(t: int, trail: dict[int, int], firsts: list[tuple[int, Hashable]]) -> bool:
        """Narrow every unassigned node of the buckets ``(i, label)`` in
        firsts to the targets agreeing with t on agent i, recording replaced
        domains in trail; False as soon as a domain empties."""
        for i, label in firsts:
            mask = coord_masks[i][dst_sigs[t][i]]
            for u in buckets[i][label]:
                if assignment[u] >= 0:
                    continue
                old = domains[u]
                kept = old & mask
                if kept != old:
                    trail.setdefault(u, old)
                    domains[u] = kept
                    bit = 1 << u
                    by_count[old.bit_count()] ^= bit
                    by_count[kept.bit_count()] |= bit
                if not kept:
                    return False
        return True

    # One frame per assigned node: [node, its untried candidates as a mask,
    # the domains its current candidate replaced, the buckets it claimed].
    stack: list[list] = []
    descend = True
    while True:
        if descend:
            tied = next(filter(None, by_count), 0)
            if not tied:
                return assignment
            v = (tied & -tied).bit_length() - 1
            by_count[domains[v].bit_count()] = tied & (tied - 1)
            firsts = [key for key in enumerate(src.signatures[v]) if key not in claimed]
            claimed.update(firsts)
            stack.append([v, domains[v], {}, firsts])
        frame = stack[-1]
        v, rest, trail, firsts = frame
        for u, old in trail.items():
            bit = 1 << u
            by_count[domains[u].bit_count()] ^= bit
            by_count[old.bit_count()] |= bit
            domains[u] = old
        trail.clear()
        if not rest:
            assignment[v] = -1
            by_count[domains[v].bit_count()] |= 1 << v
            claimed.difference_update(firsts)
            stack.pop()
            if not stack:
                return None
            descend = False
            continue
        low = rest & -rest
        frame[1] = rest ^ low
        expansions += 1
        if budget is not None and expansions > budget:
            raise SearchLimitExceeded(f"morphism search exceeded {budget} node expansions")
        t = low.bit_length() - 1
        assignment[v] = t
        descend = prune(t, trail, firsts)


def _refute(src: ColoredGraph, dst: ColoredGraph) -> list[dict[Hashable, int]] | None:
    """None when label-level arc consistency proves that no morphism maps
    src into dst; otherwise the fixpoint it reached, which proves nothing
    on its own.

    The morphism condition makes each (agent i, label l) pair a variable
    whose value is the coordinate i of the images of bucket ``(i, l)``, and
    each source node v a table constraint over its variables
    ``(i, sig_v[i])``: v's image is a target of v's colour.  Every one of
    these constraints is the same relation, the target graph, so each round
    works per target node and per (agent, coordinate), with bitmasks over
    source nodes.  ``live[i][c]`` is the union of the label buckets
    (``src.label_masks[i]``) whose label may still take coordinate c at
    agent i.  ``support[t]`` is the source nodes of t's colour
    (``src.colour_masks``) whose label at each agent i still allows
    ``t[i]``: the colour mask ANDed with ``live[i][t[i]]`` for every i, one
    pass over each column of the target signatures.  When the supports do
    not cover every source node, some node has no image left, which
    refutes.  Otherwise a label keeps coordinate c only if its whole bucket
    lies in the OR of the supports of the targets with ``t[i] == c``
    (``dst.label_buckets[i][c]``), and the rounds repeat until no ``live``
    entry changes; the fixpoint returned is ``live``.  The first round's
    supports are the colour masks alone, since every label is still live.
    This reaches the same fixpoint as AC-3 run node by node (Mackworth
    1977), so it refutes the same pairs.  On the six builtin targets it is
    exact: each is closed under the coordinate-wise ``min`` or ``max`` of
    sorted tokens, a semilattice operation, so arc consistency decides the
    query (Jeavons, Cohen & Gyssens 1997) and ``_join`` reads a witness off
    the fixpoint.  On conjunctive targets this refutes precisely the
    sources that fail C&P co-observability (Rudie & Wonham 1992), on
    disjunctive ones those that fail its D&A dual.

    The variables see one agent's label at a time, so whole signatures are
    checked first, by ``_clashes`` on each graph: two source nodes of one
    signature and two colours need images that share every coordinate and
    differ in colour, so a target with no such pair refutes.
    """
    if _clashes(src.signatures, src.colours) and not _clashes(dst.signatures, dst.colours):
        return None
    sigs = src.signatures
    everyone = (1 << len(src)) - 1
    by_colour = list(map(src.colour_masks.__getitem__, dst.colours))
    live = [dict.fromkeys(by_coord, everyone) for by_coord in dst.label_buckets]
    columns = _columns(dst.signatures, dst.n)
    support = by_colour
    while reduce(or_, support, 0) == everyone:
        changed = False
        for i, (kept_of, masks) in enumerate(zip(live, src.label_masks)):
            for c, targets in dst.label_buckets[i].items():
                kept = kept_of[c]
                missed = kept & ~reduce(or_, map(support.__getitem__, targets))
                if not missed:
                    continue
                while missed:  # drop each label with a bucket node not reached
                    bucket = masks[sigs[(missed & -missed).bit_length() - 1][i]]
                    kept ^= bucket
                    missed &= ~bucket
                kept_of[c] = kept
                changed = True
        if not changed:
            return live
        support = by_colour
        for kept_of, column in zip(live, columns):
            support = list(map(and_, support, map(kept_of.__getitem__, column)))
    return None


def _join(
    src: ColoredGraph, dst: ColoredGraph, live: list[dict[Hashable, int]], pick
) -> list[int] | None:
    """The image of every src node under the join ``pick`` (``min`` or
    ``max``) of the fixpoint ``live`` of ``_refute``, or None when some
    image is not a target node.

    Each (agent i, label l) takes the ``pick`` of the coordinates it keeps,
    in sorted token order, and each source node maps to the target of its
    colour whose signature is those coordinates.  Every coordinate is a
    function of its label and every colour is kept, so the map is a
    morphism whenever it is defined; on a target closed under ``pick`` it
    always is.  A label keeps c when its bucket meets ``live[i][c]``; the
    coordinates are written in turn, ``pick``'s choice last.
    """
    coords = []
    for kept_of, masks in zip(live, src.label_masks):
        coord: dict[Hashable, Hashable] = {}
        for c in sorted(kept_of, reverse=pick is min):
            coord.update(zip(compress(masks, map(kept_of[c].__and__, masks.values())), repeat(c)))
        coords.append(coord)
    node_of = dict(zip(zip(dst.signatures, dst.colours), count()))
    columns = map(map, [coord.__getitem__ for coord in coords], _columns(src.signatures, src.n))
    image = list(map(node_of.get, zip(zip(*columns), src.colours)))
    return None if None in image else image


def find_morphism(
    source: ColoredGraph, target: ColoredGraph, budget: int | None = None
) -> Morphism | None:
    """Deterministic, complete search for a morphism from source to target.

    Nodes enter the morphism condition only through their signature and
    colour, so nodes that agree in both are interchangeable on either side:
    everything below runs between the two quotients
    (``ColoredGraph.quotient``, built once per graph), and the witness maps
    each source node through its class to the representative (first member)
    of its image class.

    First a label-level arc-consistency pass (``_refute``) settles many
    negatives without trying a single candidate.  When it does not refute,
    its fixpoint's ``min`` join, then its ``max`` join (``_join``), is tried
    as the image; on the six builtin targets the pass is exact and one of
    the joins always succeeds, so no builtin target reaches the search.
    Only when both joins fail does the backtracking search (``_search``)
    run; the pass and the search are the only two ways this answers None.
    ``budget`` caps the candidates tried by the search, and counts nothing
    else; exceeding it raises SearchLimitExceeded rather than answering, so
    None always means "no morphism exists".  Whatever the pass or a join
    answers is answered under any budget, 0 included.
    """
    if source.n != target.n:
        raise ArityMismatch(f"source has {source.n} agents, target has {target.n}")
    src, dst = source.quotient, target.quotient
    live = _refute(src.graph, dst.graph)
    if live is None:
        return None
    for pick in (min, max):
        image = _join(src.graph, dst.graph, live, pick)
        if image is not None:
            break
    else:
        image = _search(src.graph, dst.graph, budget)
    if image is None:
        return None
    images = tuple(map(dst.representatives.__getitem__, image))
    return Morphism(source, target, tuple(map(images.__getitem__, src.class_of)))


# Per-agent decision tables keyed by observation label, agent 0 first; read-only by convention.
Solution = tuple[dict[Label, Token], ...]


def extract_solution(m: Morphism, p: ObservationProblem, r: FusionRule) -> Solution:
    """Read the tuple of per-agent decision tables, one dict per agent from
    observation label to decision, off a morphism from the observation graph
    of ``p`` into the decision graph of ``r``.

    One agent column at a time: agent i's table zips column i of the source
    signatures with column i of the image combinations, so its labels keep
    the order in which they first occur in L.  Well-definedness (one decision
    per observation label) is guaranteed for every true morphism but
    re-checked, before any table is built, by the ``_clashes`` of each label
    column with its decision column; a clash raises InconsistentMorphism
    naming the first of every column's clashes in node order, then agent
    order.
    """
    if m.source.keys != p.L:
        raise GraphMismatch("morphism source does not match the problem's strings")
    if m.target.keys != r.domain:
        raise GraphMismatch("morphism target does not match the rule's decision domain")
    images = tuple(map(m.target.keys.__getitem__, m.mapping))
    labels = _columns(m.source.signatures, p.n)
    decisions = _columns(images, p.n)
    clashes = tuple(map(_clashes, labels, decisions))
    if any(clashes):
        v, i, u = min((v, i, u) for i, found in enumerate(clashes) for u, v in found[:1])
        raise InconsistentMorphism(
            f"agent {i + 1} would decide both {decisions[i][u]!r} and "
            f"{decisions[i][v]!r} on observation {labels[i][v]!r}"
        )
    return tuple(map(dict, map(zip, labels, decisions)))


def verify_solution(p: ObservationProblem, sol: Solution, r: FusionRule) -> bool:
    """True iff the tuple of per-agent decision tables ``sol`` fuses every
    string's decisions to its colour.

    Never reads a graph: each agent's observation function observes all of L
    in one pass, its table turns that column into decisions, and one pass
    over the zipped decision columns fuses them for comparison with the
    column of K memberships.  Anything structurally off (wrong agent count,
    a string some observation table lacks, a missing table entry, a
    combination outside the rule's domain) makes this False rather than an
    error: the object simply is not a solution.
    """
    if len(sol) != p.n or len(p.P) != p.n or r.n != p.n:
        return False
    try:
        columns = _observation_columns(p)
        decided = [tuple(map(table.__getitem__, col)) for table, col in zip(sol, columns)]
        fused = tuple(map(r._output_of.__getitem__, zip(*decided)))
    except (UnknownString, KeyError):  # a gap in a table, or a combination not allowed
        return False
    return fused == tuple(map(p.K_set.__contains__, p.L))


def solvable_by_enumeration(
    p: ObservationProblem, r: FusionRule, budget: int | None = DEFAULT_ENUMERATION_BUDGET
) -> bool:
    """Decide solvability by trying every assignment of decision tables.

    Exhaustive over |D| ** (total number of distinct observation labels)
    candidates, checked with verify_solution; raises SearchLimitExceeded when
    that count is above ``budget`` (None removes the cap).
    """
    if r.n != p.n:
        raise ArityMismatch(f"problem has {p.n} agents, rule has {r.n}")
    labels = [_unique(column) for column in _observation_columns(p)]
    count = len(r.decisions) ** sum(map(len, labels))
    if budget is not None and count > budget:
        raise SearchLimitExceeded(f"{count} table assignments exceed the budget of {budget}")
    for choice in product(*(product(r.decisions, repeat=len(ls)) for ls in labels)):
        if verify_solution(p, tuple(map(dict, map(zip, labels, choice))), r):
            return True
    return False


def compose(first: Morphism, second: Morphism) -> Morphism:
    """Composite morphism; requires first.target and second.source to be the
    same graph."""
    if first.target != second.source:
        raise GraphMismatch("the target of the first morphism is not the source of the second")
    return Morphism(
        source=first.source,
        target=second.target,
        mapping=tuple(second.mapping[t] for t in first.mapping),
    )
