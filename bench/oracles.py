"""Oracles that judge each CLI outcome without the morphism search.

Everything here reads the generator's own data (labels, membership) and the
files the CLI wrote; nothing imports decobs.  Each check returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from workloads import Op, Problem

# Builtin fusion rules, restated from their definitions: the allowed
# decision combinations and the fused output of each.
DECISIONS = {
    "conjunctive": ("0", "1"),
    "disjunctive": ("0", "1"),
    "cpda": ("0", "1", "dk"),
    "conjunctive_cd": ("0", "1", "cd"),
    "const0": ("0", "1"),
    "const1": ("0", "1"),
}


def fused(rule: str, combo: tuple[str, ...]) -> int | None:
    """Fused output of a combination, or None if the rule disallows it."""
    if any(d not in DECISIONS[rule] for d in combo):
        return None
    if rule == "conjunctive":
        return int(all(d == "1" for d in combo))
    if rule == "disjunctive":
        return int("1" in combo)
    if rule in ("cpda", "conjunctive_cd"):
        if "0" in combo and "1" in combo:
            return None
        if rule == "cpda" and all(d == "dk" for d in combo):
            return None
        return 0 if "0" in combo else 1
    constant = {"const0": "0", "const1": "1"}[rule]
    return int(constant == "1") if all(d == constant for d in combo) else None


def domain(rule: str, n: int) -> list[tuple[str, ...]]:
    return [c for c in itertools.product(DECISIONS[rule], repeat=n) if fused(rule, c) is not None]


# --- solvability of observation problems -------------------------------------


def _separable(inside: list, outside: list, n: int) -> bool:
    """Every label tuple of ``outside`` has an agent whose label occurs in no
    tuple of ``inside``."""
    seen = [{lab[i] for lab in inside} for i in range(n)]
    return all(any(lab[i] not in seen[i] for i in range(n)) for lab in outside)


def solvable(p: Problem, rule: str) -> bool:
    """C&P co-observability for the conjunctive rule, its D&A dual for the
    disjunctive rule.  O(|L|·n)."""
    n = len(p.labels[0]) if p.labels else 0
    k = [lab for s, lab in zip(p.L, p.labels) if s in p.K]
    rest = [lab for s, lab in zip(p.L, p.labels) if s not in p.K]
    if rule == "conjunctive":
        return _separable(k, rest, n)
    if rule == "disjunctive":
        return _separable(rest, k, n)
    raise ValueError(f"no closed-form oracle for {rule!r}")


def factorises(n: int, sources, colours, images, rule: str) -> str | None:
    """The morphism condition, agent by agent: each image is an allowed
    combination of the right colour, and image coordinate i is a function of
    source label i.  ``sources`` are label tuples, parallel to the rest."""
    first: list[dict] = [{} for _ in range(n)]
    for labels, colour, image in zip(sources, colours, images):
        if len(image) != n:
            return f"image {image} has the wrong arity"
        if fused(rule, image) != colour:
            return f"image {image} of {labels} has output {fused(rule, image)}, expected {colour}"
        for i, (label, decision) in enumerate(zip(labels, image)):
            if first[i].setdefault(label, decision) != decision:
                return f"agent {i + 1} decides both {first[i][label]!r} and {decision!r} on {label!r}"
    return None


def _read(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return e


def check_problem_witness(p: Problem, rule: str, path: Path) -> str | None:
    pairs = _read(path)
    if isinstance(pairs, Exception):
        return f"witness unreadable: {pairs}"
    image = {}
    for key, combo in pairs:
        if key in image:
            return f"witness maps {key!r} twice"
        image[key] = tuple(combo)
    if set(image) != set(p.L):
        return "witness does not cover exactly the strings of L"
    return factorises(len(p.labels[0]), p.labels, [int(s in p.K) for s in p.L], [image[s] for s in p.L], rule)


def check_solution(p: Problem, rule: str, path: Path) -> str | None:
    """Evaluate the written decision tables on every string of L."""
    tables = _read(path)
    if isinstance(tables, Exception):
        return f"solution unreadable: {tables}"
    if len(tables) != len(p.labels[0]):
        return "solution has the wrong number of tables"
    lookup = [{"".join(label) if isinstance(label, list) else label: d for label, d in t} for t in tables]
    for s, labels in zip(p.L, p.labels):
        combo = tuple(lookup[i].get(label) for i, label in enumerate(labels))
        if None in combo:
            return f"no decision for an observation of {s!r}"
        if fused(rule, combo) != int(s in p.K):
            return f"tables fuse {s!r} to {fused(rule, combo)}"
    return None


# --- the permissiveness order of the builtin rules -----------------------------

# Equivalence classes and covering pairs (lower, upper) of the preorder
# "at most as permissive as", for every n in 2..7.
CLASSES = (("conjunctive", "conjunctive_cd"), ("disjunctive",), ("cpda",), ("const0",), ("const1",))
COVERS = (("cpda", "conjunctive"), ("cpda", "disjunctive"), ("const0", "cpda"), ("const1", "cpda"))
_CLASS_OF = {r: c[0] for c in CLASSES for r in c}


def at_most(a: str, b: str) -> bool:
    """Is every problem solvable under rule a also solvable under rule b?"""
    a, b = _CLASS_OF[a], _CLASS_OF[b]
    if a == b:
        return True
    return any(lo == a and at_most(hi, b) for lo, hi in COVERS)


def relation(a: str, b: str) -> str:
    fwd, bwd = at_most(a, b), at_most(b, a)
    if fwd and bwd:
        return "equivalent"
    if fwd:
        return "first_strictly_less"
    return "first_strictly_more" if bwd else "incomparable"


PHRASES = {
    "equivalent": "equivalent",
    "first_strictly_less": "second strictly more permissive",
    "first_strictly_more": "first strictly more permissive",
    "incomparable": "incomparable",
}


def _split(spec: str) -> tuple[str, int]:
    name, n = spec.split(":")
    return name, int(n)


def check_rule_witness(a: str, b: str, path: Path) -> str | None:
    """A witness file maps a's decision combinations into b's."""
    pairs = _read(path)
    if isinstance(pairs, Exception):
        return f"witness unreadable: {pairs}"
    (ra, n), (rb, _) = _split(a), _split(b)
    image = {tuple(src): tuple(dst) for src, dst in pairs}
    if len(image) != len(pairs) or set(image) != set(domain(ra, n)):
        return f"witness {path.name} does not cover exactly the domain of {a}"
    sources = list(image)
    reason = factorises(n, sources, [fused(ra, c) for c in sources], [image[c] for c in sources], rb)
    return f"witness {path.name}: {reason}" if reason else None


def check_compare(op: Op, stdout: str, workdir: Path) -> str | None:
    a, b = op.rules
    rel = relation(_split(a)[0], _split(b)[0])
    lines = stdout.splitlines()
    if not lines or lines[0] != PHRASES[rel]:
        return f"compare {a} {b} said {lines[:1]}, expected {PHRASES[rel]!r}"
    for name, (src, dst) in zip(op.outputs, ((a, b), (b, a))):
        path = workdir / name
        expected = at_most(_split(src)[0], _split(dst)[0])
        if path.exists() != expected:
            return f"compare {a} {b}: {path.name} {'missing' if expected else 'written'}"
        if expected:
            reason = check_rule_witness(src, dst, path)
            if reason:
                return reason
    return None


def check_poset(op: Op, workdir: Path) -> str | None:
    obj = _read(workdir / op.outputs[0])
    if isinstance(obj, Exception):
        return f"poset output unreadable: {obj}"
    names = [_split(s)[0] for s in op.rules]
    if obj.get("rules") != list(op.rules):
        return "poset lists other rules"
    for i, j in itertools.product(range(len(names)), repeat=2):
        if obj["matrix"][i][j] != relation(names[i], names[j]):
            return f"poset says {names[i]} vs {names[j]} is {obj['matrix'][i][j]}"
    classes = [frozenset(_split(s)[0] for s in cls) for cls in obj["classes"]]
    if set(classes) != {frozenset(c) for c in CLASSES}:
        return f"poset classes {obj['classes']}"
    hasse = {(_CLASS_OF[min(classes[lo])], _CLASS_OF[min(classes[hi])]) for lo, hi in obj["hasse"]}
    if hasse != set(COVERS):
        return f"poset Hasse edges {sorted(hasse)}"
    return None
