"""Generators and small oracles shared between test modules."""

import functools
import itertools
import os
import random
from pathlib import Path

import decobs
from decobs import ColoredGraph, FusionRule, SearchLimitExceeded
from decobs.files import to_json
from decobs.model import _clashes


def dump_json(obj, path) -> None:
    """Write ``obj`` to ``path`` as the CLI writes its JSON files."""
    Path(path).write_text(to_json(obj), encoding="utf-8")


def process_env() -> dict:
    """The environment of a real Python process that imports this checkout's
    package."""
    env = dict(os.environ)
    src = str(Path(decobs.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def random_colored_graph(
    rng: random.Random, max_nodes: int = 8, max_agents: int = 3, min_nodes: int = 1
) -> ColoredGraph:
    """Arbitrary coloured graph: random signatures over small per-agent pools,
    random node colours.  Duplicate signatures (empty-set edges) are likely."""
    n = rng.randint(1, max_agents)
    size = rng.randint(min_nodes, max_nodes)
    pools = [[f"v{k}" for k in range(rng.randint(1, 3))] for _ in range(n)]
    signatures = tuple(
        tuple(rng.choice(pools[i]) for i in range(n)) for _ in range(size)
    )
    colours = tuple(rng.randint(0, 1) for _ in range(size))
    return ColoredGraph(
        n=n,
        keys=tuple((f"s{v}",) for v in range(size)),
        signatures=signatures,
        colours=colours,
    )


def edge_colour(g: ColoredGraph, u: int, v: int) -> frozenset[int]:
    """The colour of the edge between nodes u and v, by its definition: the
    agents on which their signatures disagree."""
    su, sv = g.signatures[u], g.signatures[v]
    return frozenset(i for i in range(g.n) if su[i] != sv[i])


def pairs(g: ColoredGraph):
    """Unordered pairs of distinct node indices, in declaration order."""
    return itertools.combinations(range(len(g)), 2)


def brute_force_morphism_exists(src: ColoredGraph, dst: ColoredGraph) -> bool:
    """Try every node map; independent of the backtracking search."""
    if len(src) == 0:
        return True
    if len(dst) == 0:
        return False

    def ok(mapping):
        for v in range(len(src)):
            if src.colours[v] != dst.colours[mapping[v]]:
                return False
        return pairwise_edge_ok(src, dst, mapping)

    import itertools

    return any(ok(m) for m in itertools.product(range(len(dst)), repeat=len(src)))


def pairwise_edge_ok(src: ColoredGraph, dst: ColoredGraph, mapping) -> bool:
    """The edge condition straight from its definition, over every node pair:
    no image edge colour adds an agent to its source edge colour."""
    return all(
        edge_colour(dst, mapping[u], mapping[v]) <= edge_colour(src, u, v)
        for u, v in pairs(src)
    )


@functools.lru_cache(maxsize=8)
def _edge_colours(g: ColoredGraph) -> tuple[tuple[frozenset[int], ...], ...]:
    """The full matrix of edge colours; cached because the differential tests
    search between the same few graphs many times."""
    return tuple(
        tuple(edge_colour(g, u, v) for v in range(len(g))) for u in range(len(g))
    )


def pairwise_search(src: ColoredGraph, dst: ColoredGraph, budget: int | None) -> list[int] | None:
    """Reference for the library's search: forward checking over every
    (node, node) pair with the full matrix of edge colours, recursive.

    Same candidate order and variable choice (fewest candidates, ties to the
    lower index) as the library, so it must return the same assignment and
    exceed the same budgets.
    """
    size = len(src)
    src_edges = _edge_colours(src)
    dst_edges = _edge_colours(dst)
    domains = [
        [t for t in range(len(dst)) if dst.colours[t] == src.colours[v]]
        for v in range(size)
    ]
    assignment = [-1] * size
    expansions = 0

    def extend() -> bool:
        nonlocal expansions
        pending = [v for v in range(size) if assignment[v] < 0]
        if not pending:
            return True
        v = min(pending, key=lambda u: (len(domains[u]), u))
        rest = [u for u in pending if u != v]
        for t in domains[v]:
            expansions += 1
            if budget is not None and expansions > budget:
                raise SearchLimitExceeded(f"morphism search exceeded {budget} node expansions")
            assignment[v] = t
            shrunk = {}
            dead = False
            for u in rest:
                allowed = src_edges[v][u]
                kept = [t2 for t2 in domains[u] if dst_edges[t][t2] <= allowed]
                if len(kept) != len(domains[u]):
                    shrunk[u] = domains[u]
                    domains[u] = kept
                if not kept:
                    dead = True
                    break
            if not dead and extend():
                return True
            assignment[v] = -1
            for u, old in shrunk.items():
                domains[u] = old
        return False

    return assignment if extend() else None


def nodewise_refute(src: ColoredGraph, dst: ColoredGraph) -> bool:
    """Reference for ``morphism._refute``: the same label-level arc
    consistency, run node by node as AC-3 (Mackworth 1977).

    ``allowed[i][l]`` is the mask of targets whose coordinate i is still
    possible for the variable ``(i, l)``.  Node v's support is its colour
    mask ANDed with ``allowed[i][sig_v[i]]`` for every i.  An empty support
    refutes.  Otherwise each of v's variables keeps only the coordinates
    that the support still meets, and when one shrinks, its bucket's nodes
    are checked again, until nothing changes.  Whole signatures are checked
    first, by ``_clashes`` on each graph.
    """
    if _clashes(src.signatures, src.colours) and not _clashes(dst.signatures, dst.colours):
        return True
    buckets = src.label_buckets
    coord_masks = dst.label_masks
    colour_masks = dst.colour_masks
    every = colour_masks[0] | colour_masks[1]
    allowed = [dict.fromkeys(by_label, every) for by_label in buckets]
    sigs, colours = src.signatures, src.colours
    pending = list(range(len(src)))
    queued = [True] * len(src)
    while pending:
        v = pending.pop()
        queued[v] = False
        sig = sigs[v]
        support = colour_masks[colours[v]]
        for by_label, label in zip(allowed, sig):
            support &= by_label[label]
        if not support:
            return True
        for i, label in enumerate(sig):
            kept = 0
            for mask in coord_masks[i].values():
                if mask & support:
                    kept |= mask
            if kept != allowed[i][label]:
                allowed[i][label] = kept
                for u in buckets[i][label]:
                    if not queued[u]:
                        queued[u] = True
                        pending.append(u)
    return False


def pairwise_poset(at_most) -> tuple[tuple, tuple]:
    """Reference for the classes and covers of ``relation_matrix``, from the
    matrix ``at_most[i][j]`` (a morphism maps rule i into rule j), pair by
    pair.

    A rule joins the first class whose first member it maps to and from, or
    opens a new class.  Class a covers under b when a's first member maps
    into b's and not back, and no class c lies strictly between them.
    """
    classes: list[list[int]] = []
    for i in range(len(at_most)):
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
    return tuple(tuple(c) for c in classes), hasse


def random_rule(rng: random.Random, n: int, k: int) -> FusionRule:
    """A fusion rule of n agents over the k decisions "0", "1", ...: each
    combination is kept with probability 0.7, drawn again when none is, and
    fuses to a random output."""
    decisions = tuple(map(str, range(k)))
    domain: list[tuple[str, ...]] = []
    while not domain:
        domain = [c for c in itertools.product(decisions, repeat=n) if rng.random() < 0.7]
    return FusionRule(n, decisions, tuple(domain), tuple(rng.randint(0, 1) for _ in domain))


def inference_rule(N: int, n: int) -> FusionRule:
    """``inf_N:n``, a fusion rule of n agents modelled on Kumar & Takai's
    N-inference architecture (IEEE TAC 2007).  Each decision is a vote 0 or
    1 at an ambiguity level 0..N, written ``v@k``, or ``dk``, declared level
    first: ``0@0, 1@0, ..., 0@N, 1@N, dk``.  A combination is allowed iff
    some agent votes and every vote at the lowest level present is the same;
    it fuses to that vote.  ``inf_0`` is ``cpda`` with its decisions renamed."""
    decisions = tuple(f"{v}@{k}" for k in range(N + 1) for v in "01") + ("dk",)
    domain, outputs = [], []
    for combo in itertools.product(decisions, repeat=n):
        votes = sorted((int(k), v) for v, _, k in (d.partition("@") for d in combo if d != "dk"))
        lowest = {v for k, v in votes if k == votes[0][0]}
        if len(lowest) == 1:
            domain.append(combo)
            outputs.append(int(lowest.pop()))
    return FusionRule(n, decisions, tuple(domain), tuple(outputs))


def separable(inside, outside, n: int) -> bool:
    """Every label tuple of ``outside`` has an agent whose label occurs in no
    tuple of ``inside``."""
    seen = [{labels[i] for labels in inside} for i in range(n)]
    return all(any(labels[i] not in seen[i] for i in range(n)) for labels in outside)


def closed_form_solvable(labels, in_k, rule: str) -> bool:
    """Solvability under a builtin rule from the label tuples alone, without
    a graph or a search.  ``labels`` and ``in_k`` are parallel, one entry per
    string of L.  O(|L|·n).

    conjunctive and conjunctive_cd: C&P co-observability (Rudie & Wonham
    1992), every string of L − K has an agent whose label no string of K
    carries; disjunctive: its D&A dual, with K and L − K swapped; cpda: every
    string has an agent whose label is pure (carried by strings of one colour
    only), that is both of the above; const0: K is empty; const1: K = L."""
    n = len(labels[0]) if labels else 0
    k = [lab for lab, inside in zip(labels, in_k) if inside]
    rest = [lab for lab, inside in zip(labels, in_k) if not inside]
    if rule in ("conjunctive", "conjunctive_cd"):
        return separable(k, rest, n)
    if rule == "disjunctive":
        return separable(rest, k, n)
    if rule == "cpda":
        return separable(k, rest, n) and separable(rest, k, n)
    if rule == "const0":
        return not k
    if rule == "const1":
        return not rest
    raise ValueError(f"no closed-form oracle for {rule!r}")


def closed_form_core(labels, in_k, rule: str) -> tuple[int, ...] | None:
    """None when ``closed_form_solvable`` holds; otherwise the indices, in
    order, of an unsolvable subproblem of at most n + 1 strings.

    The form fails at a first string s; the core is s and, for each agent,
    the first string of the other colour that shares s's label there.  Every
    label of s stays shared in the core, so the form fails there too.  Under
    const0 and const1 the form fails at s by its colour alone: the core is s.
    """
    n = len(labels[0]) if labels else 0
    if rule in ("const0", "const1"):
        wrong = [k for k, inside in enumerate(in_k) if inside != (rule == "const1")]
        return tuple(wrong[:1]) or None
    # The colours whose strings the form checks, and the first string of
    # each (label, colour) at each agent.
    checked = {
        "conjunctive": (False,),
        "conjunctive_cd": (False,),
        "disjunctive": (True,),
        "cpda": (False, True),
    }[rule]
    first = [{} for _ in range(n)]
    for k, (labs, inside) in enumerate(zip(labels, in_k)):
        for i, label in enumerate(labs):
            first[i].setdefault((label, inside), k)
    for k, (labs, inside) in enumerate(zip(labels, in_k)):
        if inside in checked:
            others = [first[i].get((label, not inside)) for i, label in enumerate(labs)]
            if None not in others:
                return tuple(sorted({k, *others}))
    return None


def restated_builtin(name: str, n: int) -> tuple[tuple, tuple, tuple]:
    """A builtin rule's decision set, allowed combinations and fused outputs,
    restated from the definitions.  The combinations come in the
    lexicographic order of the decision set; that order fixes the witness
    target order and the bytes ``d2o`` writes."""
    if name in ("const0", "const1"):
        decision = name[-1]
        return ("0", "1"), ((decision,) * n,), (int(decision),)
    extra = {"cpda": ("dk",), "conjunctive_cd": ("cd",)}.get(name, ())
    decisions = ("0", "1") + extra
    domain, outputs = [], []
    for combo in itertools.product(decisions, repeat=n):
        conflict = "0" in combo and "1" in combo
        if (extra and conflict) or (name == "cpda" and all(d == "dk" for d in combo)):
            continue
        domain.append(combo)
        if name == "conjunctive":
            outputs.append(int(all(d == "1" for d in combo)))
        elif name == "disjunctive":
            outputs.append(int(any(d == "1" for d in combo)))
        else:  # cpda and conjunctive_cd fuse to 0 exactly when some agent says 0
            outputs.append(0 if "0" in combo else 1)
    return decisions, tuple(domain), tuple(outputs)


# Row-wise restatements of the problem path: one string, node or table entry
# at a time, straight from the definitions.  The library computes the same
# results one agent column at a time.


def rowwise_observation_graph(p) -> tuple[tuple, tuple]:
    """Signatures and colours of the observation graph of ``p``: each string's
    observation by every agent, and 1 exactly for the strings of K."""
    signatures = tuple(tuple(fn.observe(s) for fn in p.P) for s in p.L)
    colours = tuple(1 if s in p.K else 0 for s in p.L)
    return signatures, colours


def rowwise_quotient(g: ColoredGraph) -> tuple[tuple, tuple]:
    """Classes and class of each node of ``quotient_by_indistinguishability``.

    A node joins the first class whose first member has its signature and
    colour, or opens a new class.
    """
    classes: list[list[int]] = []
    for v in range(len(g)):
        for members in classes:
            u = members[0]
            if g.signatures[u] == g.signatures[v] and g.colours[u] == g.colours[v]:
                members.append(v)
                break
        else:
            classes.append([v])
    class_of = tuple(
        next(c for c, members in enumerate(classes) if v in members) for v in range(len(g))
    )
    return tuple(map(tuple, classes)), class_of


def rowwise_tables(m) -> list[dict] | str:
    """The per-agent tables a node map induces, from each source label to
    the image's coordinate (read off the target's signatures), node by node
    and agent by agent, or the message naming the first label sent to two
    coordinates."""
    tables: list[dict] = [{} for _ in range(m.source.n)]
    for v, t in enumerate(m.mapping):
        for i, (label, image) in enumerate(zip(m.source.signatures[v], m.target.signatures[t])):
            if label in tables[i] and tables[i][label] != image:
                return (
                    f"agent {i + 1} sends label {label!r} to both "
                    f"{tables[i][label]!r} and {image!r}"
                )
            tables[i][label] = image
    return tables


def rowwise_edge_violations(m) -> tuple[tuple[int, int], ...]:
    """The edge violations of a node map, node by node and agent by agent:
    (first node with the label, node) for every node whose image differs on
    that agent from the image of the first node sharing its label, sorted
    and without repeats."""
    violations = set()
    for i in range(m.source.n):
        first: dict = {}
        for v, sig in enumerate(m.source.signatures):
            u = first.setdefault(sig[i], v)
            if m.target.signatures[m.mapping[u]][i] != m.target.signatures[m.mapping[v]][i]:
                violations.add((u, v))
    return tuple(sorted(violations))


def rowwise_clashes(keys, values) -> list[tuple[int, int]]:
    """(first position of the key, position) for every value that differs
    from the value at its key's first position, one position at a time."""
    first: dict = {}
    clashes = []
    for j, (key, value) in enumerate(zip(keys, values)):
        u = first.setdefault(key, j)
        if values[u] != value:
            clashes.append((u, j))
    return clashes


def rowwise_verify_solution(p, sol, r) -> bool:
    """Whether the tables solve ``p`` under ``r``, string by string: every
    agent has a decision for its observation, the combination is allowed,
    and it fuses to 1 exactly on K."""
    if len(sol) != p.n or len(p.P) != p.n or r.n != p.n:
        return False
    fused = dict(zip(r.domain, r.outputs))
    for s in p.L:
        combo = []
        for fn, table in zip(p.P, sol):
            label = fn.observe(s)
            if label not in table:
                return False
            combo.append(table[label])
        if tuple(combo) not in fused or fused[tuple(combo)] != (1 if s in p.K else 0):
            return False
    return True
