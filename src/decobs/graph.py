"""Edge-coloured complete graphs over strings or decision tuples.

Both views share one representation: every node carries an n-entry signature
(its observation tuple, or the decision tuple itself) and a binary colour.
The colour of the edge between two nodes is defined as the set of agent
indices on which their signatures disagree.  It is never stored, and only
``export_dot`` computes it: the morphism search and its checks work per agent
label (see morphism.py).
"""

from __future__ import annotations

from itertools import combinations, compress, count
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable

from .model import (
    FusionRule,
    ObservationProblem,
    Projection,
    Str,
    Token,
    _observation_columns,
    format_str,
)

_BINARY = (0, 1)


@dataclass(frozen=True)
class ColoredGraph:
    """Complete graph with 0/1 node colours.  An edge's colour is the set of
    agents on which its two nodes' signatures differ: defined by the
    signatures, never stored, and computed only where ``export_dot`` needs it.

    ``n`` is at least 1.  ``decisions`` is None when the keys are strings
    (token tuples).  A decision graph and its quotient carry their rule's
    decisions instead, in the declared order that ``_join`` follows; every
    signature coordinate must be one of them (ValueError otherwise).
    """

    n: int
    keys: tuple[Hashable, ...]
    signatures: tuple[tuple[Hashable, ...], ...]
    colours: tuple[int, ...]
    decisions: tuple[Token, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"agent count must be at least 1, got {self.n}")
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "signatures", tuple(map(tuple, self.signatures)))
        object.__setattr__(self, "colours", tuple(self.colours))
        if not (len(self.keys) == len(self.signatures) == len(self.colours)):
            raise ValueError("keys, signatures and colours must be parallel")
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("node keys must be distinct")
        if not set(map(len, self.signatures)) <= {self.n}:
            sig = next(sig for sig in self.signatures if len(sig) != self.n)
            raise ValueError(f"signature {sig!r} does not have arity {self.n}")
        if not all(map(_BINARY.__contains__, self.colours)):
            colour = next(c for c in self.colours if c not in _BINARY)
            raise ValueError(f"node colours must be 0 or 1, got {colour!r}")
        if self.decisions is not None:
            object.__setattr__(self, "decisions", tuple(self.decisions))
            if not set().union(*self.signatures) <= set(self.decisions):
                d = next(d for sig in self.signatures for d in sig if d not in self.decisions)
                raise ValueError(f"signatures use {d!r}, which decisions does not declare")

    def __len__(self) -> int:
        return len(self.keys)

    # ``columns`` and the label indexes built from it, once per graph, are
    # shared by the search, its checks and the verifier; do not mutate them.

    @cached_property
    def columns(self) -> tuple[tuple[Hashable, ...], ...]:
        """Per agent, that agent's coordinate of every node, in node order:
        the one transpose of ``signatures``; ``()`` when there are no nodes."""
        return tuple(zip(*self.signatures))

    @cached_property
    def label_buckets(self) -> tuple[dict[Hashable, list[int]], ...]:
        """Per agent i, each label l mapped to the nodes whose signature has
        ``sig[i] == l``, in node order; one dict per column of ``columns``."""
        buckets: tuple[dict[Hashable, list[int]], ...] = tuple({} for _ in self.columns)
        for bucket, column in zip(buckets, self.columns):
            for v, label in enumerate(column):
                bucket.setdefault(label, []).append(v)
        return buckets

    @cached_property
    def label_masks(self) -> tuple[dict[Hashable, int], ...]:
        """``label_buckets`` as bitmasks over node indices (bit v is node v)."""
        return tuple(
            {label: sum(1 << v for v in nodes) for label, nodes in by_label.items()}
            for by_label in self.label_buckets
        )

    @cached_property
    def colour_masks(self) -> tuple[int, int]:
        """Bitmasks of the nodes of colour 0 and of colour 1."""
        ones = sum(1 << v for v, colour in enumerate(self.colours) if colour)
        return ((1 << len(self)) - 1) ^ ones, ones

    @cached_property
    def quotient(self) -> Quotient:
        """``quotient_by_indistinguishability(self)``, built once per graph."""
        return quotient_by_indistinguishability(self)


def build_observation_graph(p: ObservationProblem) -> ColoredGraph:
    """One node per string of L, coloured by membership in K; two strings are
    joined by the set of agents observing them differently.

    Built one agent column at a time: each observation function observes all
    of L in one pass (a partial table raises UnknownString for the first
    string of L it lacks), the signatures are the columns zipped row by row,
    and the colours are one membership pass over L.
    """
    return ColoredGraph(
        n=p.n,
        keys=p.L,
        signatures=tuple(zip(*_observation_columns(p))),
        colours=tuple(map(int, map(p.K_set.__contains__, p.L))),
    )


def build_decision_graph(r: FusionRule) -> ColoredGraph:
    """One node per allowed decision combination, coloured by the fused output;
    two combinations are joined by the set of positions where they differ."""
    return ColoredGraph(
        n=r.n,
        keys=r.domain,
        signatures=r.domain,
        colours=r.outputs,
        decisions=r.decisions,
    )


@dataclass(frozen=True)
class Quotient:
    """Result of merging nodes that share both signature and colour.

    Such nodes are interchangeable on either side of a morphism, so every
    class is uniform and the quotient graph is a correct coloured graph.
    Two nodes that share a signature but not a colour stay in separate
    classes.  ``class_of`` sends each original node index to its class index
    in the quotient graph, and ``representatives`` each class to its first
    member, the node that stands for it in the quotient graph.
    """

    graph: ColoredGraph
    representatives: tuple[int, ...]
    class_of: tuple[int, ...]

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The members of each class, in node order; built from ``class_of``
        on first use.  No command reads it, but the benchmark's tracer
        (``bench/tracing.py``) counts ``len(classes)`` of every quotient."""
        members: list[list[int]] = [[] for _ in self.representatives]
        for v, c in enumerate(self.class_of):
            members[c].append(v)
        return tuple(map(tuple, members))


def quotient_by_indistinguishability(g: ColoredGraph) -> Quotient:
    """Merge the nodes that share both signature and colour.

    Classes are ordered by their first member, which also represents them in
    the quotient graph.  Edge colours between classes are inherited, which is
    well defined because class members share their signature.  When no two
    nodes share a signature, as in every decision graph, the quotient graph
    is ``g`` itself.
    """
    if len(set(g.signatures)) == len(g):
        nodes = tuple(range(len(g)))
        return Quotient(graph=g, representatives=nodes, class_of=nodes)
    # Each node sent to the first node that shares its signature and colour;
    # those first nodes represent the classes, numbered in node order.
    first_of: dict[tuple, int] = {}
    firsts = tuple(map(first_of.setdefault, zip(g.signatures, g.colours), count()))
    reps = tuple(first_of.values())
    return Quotient(
        graph=ColoredGraph(
            n=g.n,
            keys=tuple(map(g.keys.__getitem__, reps)),
            signatures=tuple(map(g.signatures.__getitem__, reps)),
            colours=tuple(map(g.colours.__getitem__, reps)),
            decisions=g.decisions,
        ),
        representatives=reps,
        class_of=tuple(map(dict(zip(reps, count())).__getitem__, firsts)),
    )


ENCODINGS = ("tagged", "unary")


def decision_graph_to_observation(rule: FusionRule, encoding: str = "unary") -> ObservationProblem:
    """Recast a fusion rule's decision graph as an observation problem.

    tagged: alphabet {d^i : d ∈ D, agent i}; the combination (d_1, ..., d_n)
    becomes the string d_1^1 ... d_n^n and agent i observes exactly the
    i-tagged symbols.  Agent tags are printed 1-based.

    unary: alphabet {0_i, 1_i}; decision d is encoded for agent i as
    0_i repeated (index of d in the declared decision order) followed by 1_i.
    The encoding is prefix-free, so the node-to-string map is injective.

    Either way agent i observes exactly ``symbols[i]``, and a combination is
    spelled by concatenating ``spell[i][d_i]``.  The pairing of nodes with
    strings is positional: the k-th string of L spells the k-th combination
    of ``rule.domain``, and K keeps the strings whose combination fuses to 1.
    """
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}; choose from {ENCODINGS}")
    symbols: list[tuple[Token, ...]] = []
    spell: list[dict[Token, Str]] = []
    for i in range(1, rule.n + 1):
        if encoding == "tagged":
            symbols.append(tuple(f"{d}^{i}" for d in rule.decisions))
            spell.append({d: (tok,) for d, tok in zip(rule.decisions, symbols[-1])})
        else:
            zero, one = f"0_{i}", f"1_{i}"
            symbols.append((zero, one))
            spell.append({d: (zero,) * j + (one,) for j, d in enumerate(rule.decisions)})
    strings = tuple(
        tuple(tok for words, d in zip(spell, combo) for tok in words[d]) for combo in rule.domain
    )
    return ObservationProblem(
        n=rule.n,
        alphabet=tuple(tok for tokens in symbols for tok in tokens),
        L=strings,
        K=tuple(compress(strings, rule.outputs)),
        P=tuple(map(Projection, symbols)),
    )


def _edge_attrs(su: tuple, sv: tuple) -> str:
    """DOT attributes of the edge between the nodes signed ``su`` and ``sv``,
    whose colour is the agents on which the two signatures differ."""
    colour = tuple(i for i, (a, b) in enumerate(zip(su, sv)) if a != b)
    if not colour:
        return 'label="∅", style=solid, color=gray60'
    label = "{" + ",".join(str(i + 1) for i in colour) + "}"
    style = {(0,): "dotted", (1,): "dashed"}.get(colour, "solid")
    return f'label="{label}", style={style}'


def export_dot(g: ColoredGraph) -> str:
    """Deterministic DOT text: doubly-circled nodes carry colour 1, edges are
    dotted for {1}, dashed for {2}, solid otherwise, grey for the empty set."""
    render = format_str if g.decisions is None else lambda key: "(" + ",".join(key) + ")"
    lines = ['graph "G" {']
    for idx in range(len(g)):
        shape = "doublecircle" if g.colours[idx] == 1 else "circle"
        label = render(g.keys[idx]).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{idx} [label="{label}", shape={shape}];')
    for u, v in combinations(range(len(g)), 2):
        lines.append(f"  n{u} -- n{v} [{_edge_attrs(g.signatures[u], g.signatures[v])}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
