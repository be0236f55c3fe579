"""Alphabets, finite languages, observation functions, fusion rules, and the
two decentralized problem classes (observation, and control extending it).

Strings are tuples of tokens over an explicit finite alphabet; tokens are
plain text so that structured symbol names like ``0_1`` or ``d^2`` work.
Agents are indexed from 0 throughout the library.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, product, repeat
from operator import ne
from typing import Callable, Hashable, Iterable, Sequence

from .errors import ControllabilityViolation, UnknownRuleName, UnknownString

Token = str
Str = tuple[Token, ...]

# Observation labels: a Str for projections, opaque text for tables.
Label = Hashable

def format_str(s: Str) -> str:
    """Human-readable rendering of a string; the empty string prints as ε."""
    return " ".join(s) if s else "ε"


def _unique(items: Iterable) -> tuple:
    return tuple(dict.fromkeys(items))


def _clashes(keys: Sequence, values: Sequence) -> list[tuple[int, int]]:
    """(first position of the key, position) for each value that differs from
    the value at its key's first position, in position order: empty exactly
    when equal keys always carry equal values.  Listed, in C-level passes,
    only when some key repeats and pairing the values with the keys adds
    distinct entries."""
    distinct = len(set(keys))
    if distinct == len(keys) or distinct == len(set(zip(keys, values))):
        return []
    first: dict = {}
    firsts = tuple(map(first.setdefault, keys, count()))
    at = tuple(compress(count(), map(ne, map(values.__getitem__, firsts), values)))
    return list(zip(map(firsts.__getitem__, at), at))


class ObservationFunction:
    """An agent's observation map, a ``Projection`` or an ``ObservationTable``:
    each reads every string through its own ``_observe_all``."""

    def observe(self, s: Str) -> Label:
        return self._observe_all((tuple(s),))[0]


@dataclass(frozen=True)
class Projection(ObservationFunction):
    """Natural projection: erases every token outside the observable alphabet."""

    observable: frozenset[Token]

    def __post_init__(self):
        object.__setattr__(self, "observable", frozenset(self.observable))

    def _observe_all(self, strings: tuple[Str, ...]) -> tuple[Str, ...]:
        """``observe`` of every string, in one C-level pass."""
        return tuple(map(tuple, map(filter, repeat(self.observable.__contains__), strings)))


@dataclass(frozen=True)
class ObservationTable(ObservationFunction):
    """Explicit observation map, total on the language it was declared for
    and a function on it: ``validate_problem`` reports a string listed with
    two labels.

    Labels are opaque and compare by equality only.
    """

    entries: tuple[tuple[Str, Label], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple([(tuple(s), label) for s, label in self.entries])
        )

    @cached_property
    def _lookup(self) -> dict[Str, Label]:
        return dict(self.entries)

    def _observe_all(self, strings: tuple[Str, ...]) -> tuple[Label, ...]:
        """``observe`` of every string, in one C-level pass; UnknownString
        names the first string without an entry."""
        try:
            return tuple(map(self._lookup.__getitem__, strings))
        except KeyError as e:
            raise UnknownString(f"no observation recorded for {format_str(e.args[0])}") from None


@dataclass(frozen=True)
class ObservationProblem:
    """Finite languages K ⊆ L over an alphabet, with one observation function
    per agent.  Construct local decision tables and fuse them so that every
    string of K fuses to 1 and every string of L−K fuses to 0."""

    n: int
    alphabet: tuple[Token, ...]
    L: tuple[Str, ...]
    K: tuple[Str, ...]
    P: tuple[ObservationFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", _unique(self.alphabet))
        object.__setattr__(self, "L", _unique(map(tuple, self.L)))
        object.__setattr__(self, "K", _unique(map(tuple, self.K)))
        object.__setattr__(self, "P", tuple(self.P))

    @cached_property
    def L_set(self) -> frozenset[Str]:
        return frozenset(self.L)

    @cached_property
    def K_set(self) -> frozenset[Str]:
        return frozenset(self.K)


def _observation_columns(p: ObservationProblem) -> list[tuple[Label, ...]]:
    """Per agent, its observation of every string of L, in one pass each:
    the one place a problem's labels are read.

    The first table, in agent order, that lacks a string of L raises
    UnknownString naming its first missing string: builders (the graph,
    the enumeration) raise it on, checkers (``verify_solution``,
    ``verify_d2o``) answer False instead."""
    return [fn._observe_all(p.L) for fn in p.P]


@dataclass(frozen=True)
class ControlProblem(ObservationProblem):
    """An observation problem plus per-agent controllable alphabets, its one
    added field, last: ``(n, alphabet, L, K, P, controllable)``.  Both kinds
    are ``ObservationProblem`` instances: tell them apart by ``type(p)``."""

    controllable: tuple[frozenset[Token], ...]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "controllable", tuple(frozenset(c) for c in self.controllable))

    @cached_property
    def sigma_c(self) -> tuple[Token, ...]:
        """Every token some agent controls, in alphabet declaration order."""
        return tuple(t for t in self.alphabet if any(t in c for c in self.controllable))


def _outside(tokens: Iterable[Token], alphabet: frozenset[Token]) -> str:
    """The words naming the sorted tokens not in alphabet ("tokens outside
    the alphabet: x, y"), or "" when there are none."""
    stray = sorted(set(tokens) - alphabet)
    return f"tokens outside the alphabet: {', '.join(stray)}" if stray else ""


def validate_problem(p: ObservationProblem) -> tuple[str, ...]:
    """The tuple of worded violations of a problem's structural invariants,
    empty exactly when the problem is well formed.

    Never raises: a malformed problem yields a non-empty tuple.  Each check
    on L and K first runs as one whole-language test; only a failed test
    walks the strings to word its violations.
    """
    v: list[str] = []
    alphabet = frozenset(p.alphabet)
    if p.n < 1:
        v.append(f"agent count must be at least 1, got {p.n}")
    if len(p.P) != p.n:
        v.append(f"expected {p.n} observation functions, got {len(p.P)}")
    if "" in alphabet:
        v.append("alphabet contains an empty token")
    for name, language in (("L", p.L), ("K", p.K)):
        if alphabet.issuperset(chain.from_iterable(language)):
            continue
        for s in language:
            if stray := _outside(s, alphabet):
                v.append(f"{name} string {format_str(s)} uses {stray}")
    if not p.L_set.issuperset(p.K):
        outside = [s for s in p.K if s not in p.L_set]
        v.append("K is not a subset of L: " + ", ".join(format_str(s) for s in outside))
    for i, fn in enumerate(p.P):
        if isinstance(fn, Projection):
            if stray := _outside(fn.observable, alphabet):
                v.append(f"P_{i + 1} observes {stray}")
        elif isinstance(fn, ObservationTable):
            lookup = fn._lookup
            if not lookup.keys() >= p.L_set:
                absent = [s for s in p.L if s not in lookup]
                v.append(
                    f"P_{i + 1} table is partial on L: missing "
                    + ", ".join(format_str(s) for s in absent)
                )
            # Two labels for one string; looked for only if a string repeats.
            if len(fn.entries) != len(lookup):
                strings, labels = zip(*fn.entries)
                for s in _unique(strings[j] for _, j in _clashes(strings, labels)):
                    v.append(f"P_{i + 1} table maps {format_str(s)} to two labels")
    if isinstance(p, ControlProblem):
        if len(p.controllable) != p.n:
            v.append(
                f"expected {p.n} controllable alphabets, got {len(p.controllable)}"
            )
        for i, c in enumerate(p.controllable):
            if stray := _outside(c, alphabet):
                v.append(f"controllable alphabet of agent {i + 1} contains {stray}")
    return tuple(v)


def controllability_witness(c: ControlProblem) -> tuple[Str, Token] | None:
    """First (s, u) with s ∈ K, u uncontrollable, su ∈ L − K; None exactly
    when the problem is controllable."""
    controlled = frozenset(c.sigma_c)
    uncontrollable = [u for u in c.alphabet if u not in controlled]
    for s in c.K:
        for u in uncontrollable:
            su = s + (u,)
            if su in c.L_set and su not in c.K_set:
                return s, u
    return None


@dataclass(frozen=True)
class ReducedProblem:
    """One per-event observation problem produced by reducing a control problem.

    ``agents`` lists the original agent indices that control the event; the
    embedded problem's agents appear in that order.
    """

    event: Token
    agents: tuple[int, ...]
    problem: ObservationProblem


def reduce_control(
    c: ControlProblem, allow_uncontrollable: bool = False
) -> tuple[ReducedProblem, ...]:
    """Split a control problem into one observation problem per controllable
    event σ, over the languages

        L_σ = {s ∈ K : sσ ∈ L}        K_σ = {s ∈ K : sσ ∈ K}

    restricted to the agents that control σ.  Raises ControllabilityViolation
    unless the problem is controllable or ``allow_uncontrollable`` is set.
    """
    if not allow_uncontrollable:
        witness = controllability_witness(c)
        if witness is not None:
            raise ControllabilityViolation(witness[0], witness[1])
    reduced = []
    for sigma in c.sigma_c:
        agents = tuple(i for i in range(c.n) if sigma in c.controllable[i])
        l_sigma = tuple(s for s in c.K if s + (sigma,) in c.L_set)
        k_sigma = tuple(s for s in c.K if s + (sigma,) in c.K_set)
        problem = ObservationProblem(
            n=len(agents),
            alphabet=c.alphabet,
            L=l_sigma,
            K=k_sigma,
            P=tuple(c.P[i] for i in agents),
        )
        reduced.append(ReducedProblem(sigma, agents, problem))
    return tuple(reduced)


@dataclass(frozen=True)
class FusionRule:
    """Partial map from combinations of local decisions to a global 0/1 verdict.

    ``decisions`` is the ordered decision set D; ``domain`` holds the allowed
    n-tuples over D, and ``outputs`` is parallel to ``domain``.
    """

    n: int
    decisions: tuple[Token, ...]
    domain: tuple[tuple[Token, ...], ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "decisions", tuple(self.decisions))
        object.__setattr__(self, "domain", tuple(tuple(t) for t in self.domain))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if self.n < 1:
            raise ValueError(f"agent count must be at least 1, got {self.n}")
        if not self.decisions:
            raise ValueError("decision set must be nonempty")
        if len(set(self.decisions)) != len(self.decisions):
            raise ValueError("decision set contains duplicates")
        if len(self.outputs) != len(self.domain):
            raise ValueError(
                f"{len(self.domain)} domain tuples but {len(self.outputs)} outputs"
            )
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("domain contains duplicate tuples")
        allowed = set(self.decisions)
        for combo in self.domain:
            if len(combo) != self.n:
                raise ValueError(f"domain tuple {combo!r} does not have arity {self.n}")
            for d in combo:
                if d not in allowed:
                    raise ValueError(f"domain tuple {combo!r} uses unknown decision {d!r}")
        for out in self.outputs:
            if out not in (0, 1):
                raise ValueError(f"outputs must be 0 or 1, got {out!r}")

    @cached_property
    def _output_of(self) -> dict[tuple[Token, ...], int]:
        return dict(zip(self.domain, self.outputs))

    def output(self, combo: Iterable[Token]) -> int:
        combo = tuple(combo)
        try:
            return self._output_of[combo]
        except KeyError:
            raise KeyError(f"{combo!r} is not an allowed decision combination") from None


def _no_zero(combo: tuple[Token, ...]) -> int:
    return int("0" not in combo)


def _no_conflict(combo: tuple[Token, ...]) -> bool:
    return not ("0" in combo and "1" in combo)


# name: (decision set D, the decisions its combinations use, the filter a
# combination must pass or None for every combination, the fused output).
# Combinations come in the product order of the decisions they use.
_BUILTINS: dict[str, tuple[tuple[Token, ...], tuple[Token, ...], Callable | None, Callable]] = {
    # Every combination allowed, fuse by AND.
    "conjunctive": (("0", "1"), ("0", "1"), None, _no_zero),
    # Every combination allowed, fuse by OR.
    "disjunctive": (("0", "1"), ("0", "1"), None, lambda combo: int("1" in combo)),
    # Combinations mixing 0 and 1, or consisting solely of dk, are
    # disallowed; fuse to 0 iff some 0.
    "cpda": (
        ("0", "1", "dk"),
        ("0", "1", "dk"),
        lambda combo: _no_conflict(combo) and set(combo) != {"dk"},
        _no_zero,
    ),
    # Only the 0/1 conflicts are disallowed; fuse to 0 iff some 0 (all-cd
    # fuses to 1).
    "conjunctive_cd": (("0", "1", "cd"), ("0", "1", "cd"), _no_conflict, _no_zero),
    # A single all-0 (all-1) combination with constant output.
    "const0": (("0", "1"), ("0",), None, lambda combo: 0),
    "const1": (("0", "1"), ("1",), None, lambda combo: 1),
}

BUILTIN_RULES = tuple(_BUILTINS)


def builtin_rule(name: str, n: int) -> FusionRule:
    """Construct the standard architecture ``name`` for n agents, as the
    table ``_BUILTINS`` defines it."""
    if n < 1:
        raise ValueError(f"agent count must be at least 1, got {n}")
    if n > sys.maxsize:
        raise ValueError(f"agent count must be at most {sys.maxsize}, got {n}")
    try:
        decisions, used, allowed, fuse = _BUILTINS[name]
    except KeyError:
        raise UnknownRuleName(
            f"unknown builtin rule {name!r}; choose from {', '.join(BUILTIN_RULES)}"
        ) from None
    # Every combination is a nonempty tuple, so filter(None, ...) keeps all.
    domain = tuple(filter(allowed, product(used, repeat=n)))
    return FusionRule(n, decisions, domain, tuple(map(fuse, domain)))
