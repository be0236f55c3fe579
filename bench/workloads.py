"""Seeded input generators and op lists for the benchmark workloads.

Stdlib only: nothing here imports decobs, so the generators double as the
ground truth the oracles read.  The same (workload, seed) always yields the
same problems, the same files byte for byte and the same op order.

Every observation problem has three agents.  Agent i observes its own three
single-letter tokens (a-c, d-f, g-i); u and v are observed by nobody.  Tokens
are single characters so that a string's joined text (the key of a witness
file) names it unambiguously.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import zlib
from dataclasses import dataclass

AGENT_TOKENS = ("abc", "def", "ghi")
HIDDEN_TOKENS = "uv"
ALPHABET = tuple("".join(AGENT_TOKENS) + HIDDEN_TOKENS)
N_AGENTS = len(AGENT_TOKENS)

BUILTIN_RULES = ("conjunctive", "disjunctive", "cpda", "conjunctive_cd", "const0", "const1")
# n = 7 alone takes about 27 s per batch at the seed, so a run would hold one
# batch and its p90 would spread too far between runs: it is kept in the
# rules7 workload, which BENCHMARK.json does not list.
RULE_ARITIES = {"rules": range(2, 7), "rules7": (7,)}

# Problems per batch.  Sizes are log-spaced over the range (one problem per
# stratum) rather than drawn log-uniformly, and on check each kind of problem
# gets every fourth size, so that seeds change the content and order of a
# batch but not its size profile, which keeps batch_s comparable across seeds.
# Solve sizes count quotient classes, which set the search's time and memory
# (|L| is about 4/3 of them): 45..450 classes is |L| of about 60..600.
SOLVE_CLASSES = (45, 450)
SOLVE_PROBLEMS = 32
SOLVE_MAX_LEN = 6
CHECK_SIZES = (100, 1500)
CHECK_PROBLEMS = 16
CHECK_MAX_LEN = 8
CHECK_LABELS = 4
# Solve problems past the search's recursion depth (about 1,850 strings).
# Kept out of the solve workload, whose ops must not fail.
TAIL_CLASSES = (1100, 1100)


@dataclass(frozen=True)
class Problem:
    """A generated observation problem plus what the oracles need to know
    about it: every string's per-agent label and its membership in K."""

    name: str
    L: tuple[str, ...]
    K: frozenset[str]
    labels: tuple[tuple[str, ...], ...]  # labels[k][i]: agent i's label of L[k]
    table: bool

    def to_obj(self) -> dict:
        if self.table:
            observations = [
                {"kind": "table", "map": [[list(s), lab[i]] for s, lab in zip(self.L, self.labels)]}
                for i in range(N_AGENTS)
            ]
        else:
            observations = [{"kind": "projection", "observable": list(t)} for t in AGENT_TOKENS]
        return {
            "type": "observation",
            "agents": N_AGENTS,
            "alphabet": list(ALPHABET),
            "L": [list(s) for s in self.L],
            "K": [list(s) for s in self.L if s in self.K],
            "observations": observations,
        }


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``args`` holds the placeholder {dir} for the work
    directory; the remaining fields are what the oracles need."""

    args: tuple[str, ...]
    outputs: tuple[str, ...]  # files the op writes, removed before each run
    problem: Problem | None = None
    rule: str | None = None
    rules: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        """The command: solve, check, poset or compare."""
        return self.args[0]


def _projection(s: str, tokens: str) -> str:
    return "".join(t for t in s if t in tokens)


def _passes(salt: str, label: str, percent: int) -> bool:
    """Seeded local predicate: a fixed pseudo-random subset of labels."""
    return zlib.crc32(f"{salt}|{label}".encode()) % 100 < percent


def _string(rng: random.Random, max_len: int) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, max_len)))


def _language(rng: random.Random, size: int, max_len: int) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    while len(seen) < size:
        seen[_string(rng, max_len)] = None
    return tuple(seen)


def _sizes(bounds: tuple[int, int], count: int) -> list[int]:
    lo, hi = (math.log(b) for b in bounds)
    return [round(math.exp(lo + (hi - lo) * k / (count - 1))) for k in range(count)]


def _solve_op(p: Problem) -> Op:
    rule = f"conjunctive:{N_AGENTS}"
    return Op(
        ("solve", f"{{dir}}/{p.name}.json", "--rule", rule,
         "-o", f"{{dir}}/{p.name}.sol.json", "--witness", f"{{dir}}/{p.name}.wit.json"),
        (f"{p.name}.sol.json", f"{p.name}.wit.json"),
        problem=p,
        rule=rule,
    )


def solve_problem(rng: random.Random, name: str, classes: int) -> Problem:
    """Projection observations, strings drawn until there are ``classes``
    distinct observation tuples.  K holds the strings whose every
    observation passes that agent's local predicate, so the problem is
    solvable under the conjunctive rule by construction."""
    salt = f"{name}:{rng.random()}"
    signature: dict[str, tuple[str, ...]] = {}
    seen: set[tuple[str, ...]] = set()
    while len(seen) < classes:
        s = _string(rng, SOLVE_MAX_LEN)
        if s not in signature:
            signature[s] = tuple(_projection(s, t) for t in AGENT_TOKENS)
            seen.add(signature[s])
    L, labels = tuple(signature), tuple(signature.values())
    K = frozenset(
        s for s, lab in zip(L, labels) if all(_passes(f"{salt}{i}", lab[i], 80) for i in range(N_AGENTS))
    )
    return Problem(name, L, K, labels, table=False)


def check_problem(rng: random.Random, name: str, size: int, rule: str, add_class: bool) -> Problem:
    """Table observations with four coarse labels per agent (at most 64
    quotient classes).  K is solvable under ``rule`` by construction; with
    ``add_class`` one whole signature class of L-K joins K, drawn among the
    classes that make the problem unsolvable under ``rule`` (the problem is
    redrawn if none does).  So every problem's verdict is fixed by its
    place in the batch, whatever the seed."""
    import oracles  # imports this module, so it is imported on first use

    for _ in range(1000):
        salt = f"{name}:{rng.random()}"
        L = _language(rng, size, CHECK_MAX_LEN)
        labels = tuple(
            tuple(
                f"o{zlib.crc32(f'{salt}{i}|{_projection(s, t)}'.encode()) % CHECK_LABELS}"
                for i, t in enumerate(AGENT_TOKENS)
            )
            for s in L
        )
        all_labels = [f"o{k}" for k in range(CHECK_LABELS)]
        keep = 3 if rule == "conjunctive" else 1
        passing = [set(rng.sample(all_labels, keep)) for _ in range(N_AGENTS)]
        combine = all if rule == "conjunctive" else any
        K = {s for s, lab in zip(L, labels) if combine(lab[i] in passing[i] for i in range(N_AGENTS))}
        if not add_class:
            return Problem(name, L, frozenset(K), labels, table=True)
        outside = list(dict.fromkeys(lab for s, lab in zip(L, labels) if s not in K))
        rng.shuffle(outside)
        for chosen in outside:
            p = Problem(name, L, frozenset(K | {s for s, lab in zip(L, labels) if lab == chosen}), labels, True)
            if not oracles.solvable(p, rule):
                return p
    raise ValueError(f"no added class makes a problem of {size} strings unsolvable under {rule}")


def build_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []
    if workload in ("solve", "tail"):
        sizes = _sizes(SOLVE_CLASSES, SOLVE_PROBLEMS) if workload == "solve" else TAIL_CLASSES
        ops = [_solve_op(solve_problem(rng, f"p{k:03d}", size)) for k, size in enumerate(sizes)]
    elif workload == "check":
        for k, size in enumerate(_sizes(CHECK_SIZES, CHECK_PROBLEMS)):
            rule_name = ("conjunctive", "disjunctive")[k % 2]
            p = check_problem(rng, f"p{k:03d}", size, rule_name, add_class=bool(k // 2 % 2))
            rule = f"{rule_name}:{N_AGENTS}"
            ops.append(
                Op(
                    ("check", f"{{dir}}/{p.name}.json", "--rule", rule,
                     "--witness", f"{{dir}}/{p.name}.wit.json"),
                    (f"{p.name}.wit.json",),
                    problem=p,
                    rule=rule,
                )
            )
    elif workload in RULE_ARITIES:
        for n in RULE_ARITIES[workload]:
            names = list(BUILTIN_RULES)
            rng.shuffle(names)
            specs = tuple(f"{r}:{n}" for r in names)
            ops.append(
                Op(("poset", *specs, "-o", f"{{dir}}/poset{n}.json"), (f"poset{n}.json",), rules=specs)
            )
            for a, b in itertools.combinations(specs, 2):
                if rng.random() < 0.5:
                    a, b = b, a
                tag = f"cmp{n}_{a.split(':')[0]}_{b.split(':')[0]}"
                ops.append(
                    Op(
                        ("compare", a, b, "--witness", f"{{dir}}/{tag}"),
                        (f"{tag}_fwd.json", f"{tag}_bwd.json"),
                        rules=(a, b),
                    )
                )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def input_files(ops: list[Op]) -> dict[str, bytes]:
    """File name -> bytes of every input file the ops read."""
    return {
        f"{op.problem.name}.json": json.dumps(op.problem.to_obj(), indent=2).encode() + b"\n"
        for op in ops
        if op.problem is not None
    }
