"""End-to-end acceptance checks.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
from contextlib import contextmanager

from click.testing import CliRunner

from decobs import (
    BUILTIN_RULES,
    ControlProblem,
    ObservationProblem,
    Projection,
    build_decision_graph,
    build_observation_graph,
    builtin_rule,
    compare,
    compose,
    controllability_witness,
    decision_graph_to_observation,
    extract_solution,
    find_morphism,
    reduce_control,
    solvable_by_enumeration,
    verify_d2o,
    verify_morphism,
    verify_solution,
)
from decobs import files
from decobs.cli import main
from helpers import dump_json, random_colored_graph


@contextmanager
def criterion(number: int, description: str):
    outcome = {"ok": False}
    try:
        yield outcome
    except BaseException:
        print(f"criterion {number}: FAIL ({description})")
        raise
    status = "PASS" if outcome["ok"] else "FAIL"
    print(f"criterion {number}: {status} ({description})")
    assert outcome["ok"], f"criterion {number} failed: {description}"


def _example_problem() -> ObservationProblem:
    return ObservationProblem(
        n=2,
        alphabet=("a", "b"),
        L=(("a",), ("b",), ("a", "b"), ("b", "b")),
        K=(("b",),),
        P=(Projection(frozenset({"a"})), Projection(frozenset({"b"}))),
    )


def test_criterion_1_example_solvable_with_verified_witness(tmp_path):
    with criterion(
        1, "check finds a verified solution of the two-agent example under conjunctive:2"
    ) as c:
        problem = _example_problem()
        problem_path = tmp_path / "example.json"
        witness_path = tmp_path / "witness.json"
        dump_json(files.problem_to_obj(problem), problem_path)
        result = CliRunner().invoke(
            main,
            ["check", str(problem_path), "--rule", "conjunctive:2", "--witness", str(witness_path)],
        )
        rule = builtin_rule("conjunctive", 2)
        source = build_observation_graph(problem)
        target = build_decision_graph(rule)
        morphism = files.load_morphism(witness_path, source, target)
        solution = extract_solution(morphism)
        c["ok"] = (
            result.exit_code == 0
            and "SOLVABLE" in result.output
            and verify_morphism(morphism)
            and verify_solution(problem, solution, rule)
        )


def test_criterion_2_conjunctive_disjunctive_incomparable():
    with criterion(2, "conjunctive:2 and disjunctive:2 are incomparable") as c:
        verdict = compare(builtin_rule("conjunctive", 2), builtin_rule("disjunctive", 2))
        c["ok"] = (
            verdict.relation == "incomparable"
            and verdict.witness_fwd is None
            and verdict.witness_bwd is None
        )


def test_criterion_3_conjunctive_strictly_above_cpda():
    with criterion(
        3, "conjunctive:2 is strictly more permissive than cpda:2, witness verified"
    ) as c:
        verdict = compare(builtin_rule("cpda", 2), builtin_rule("conjunctive", 2))
        c["ok"] = (
            verdict.relation == "first_strictly_less"
            and verdict.witness_fwd is not None
            and verify_morphism(verdict.witness_fwd)
            and verdict.witness_bwd is None
        )


def test_criterion_4_conditional_variant_equivalent():
    with criterion(
        4, "conjunctive_cd:2 is equivalent to conjunctive:2 with both witnesses verified"
    ) as c:
        verdict = compare(builtin_rule("conjunctive_cd", 2), builtin_rule("conjunctive", 2))
        c["ok"] = (
            verdict.relation == "equivalent"
            and verify_morphism(verdict.witness_fwd)
            and verify_morphism(verdict.witness_bwd)
        )


def test_criterion_5_unary_conversion_is_token_exact():
    with criterion(
        5, "unary conversion of conjunctive:2 is token-exact and every builtin round-trips"
    ) as c:
        rule = builtin_rule("conjunctive", 2)
        problem = decision_graph_to_observation(rule, "unary")
        exact = set(problem.L) == {
            ("1_1", "1_2"),
            ("0_1", "1_1", "1_2"),
            ("1_1", "0_2", "1_2"),
            ("0_1", "1_1", "0_2", "1_2"),
        } and set(problem.K) == {("0_1", "1_1", "0_2", "1_2")}
        round_trips = all(
            verify_d2o(
                decision_graph_to_observation(builtin_rule(name, 2), encoding),
                builtin_rule(name, 2),
            )
            for name in BUILTIN_RULES
            for encoding in ("tagged", "unary")
        )
        c["ok"] = exact and verify_d2o(problem, rule) and round_trips


def test_criterion_6_search_agrees_with_exhaustive_oracle():
    with criterion(
        6,
        "morphism search and exhaustive table enumeration agree on the full "
        "two-agent family (|L| <= 4 over seven candidate strings, three rules)",
    ) as c:
        candidates = [(), ("a",), ("b",), ("a", "b"), ("b", "a"), ("b", "b"), ("a", "a")]
        observers = (Projection(frozenset({"a"})), Projection(frozenset({"b"})))
        rules = [builtin_rule(name, 2) for name in ("conjunctive", "disjunctive", "cpda")]
        decision_graphs = [build_decision_graph(r) for r in rules]
        checked = 0
        disagreements = 0
        for size in range(5):
            for language in itertools.combinations(candidates, size):
                for mask in range(2**size):
                    legal = tuple(s for i, s in enumerate(language) if mask >> i & 1)
                    problem = ObservationProblem(
                        n=2, alphabet=("a", "b"), L=language, K=legal, P=observers
                    )
                    graph = build_observation_graph(problem)
                    for rule, dg in zip(rules, decision_graphs):
                        via_search = find_morphism(graph, dg) is not None
                        via_tables = solvable_by_enumeration(problem, rule, budget=None)
                        checked += 1
                        if via_search != via_tables:
                            disagreements += 1
        c["ok"] = disagreements == 0 and checked == 939 * 3


def test_criterion_7_decision_graph_morphisms_match_problem_solvability():
    with criterion(
        7,
        "for every ordered builtin pair at n=2, a decision-graph morphism exists "
        "exactly when the first rule's converted problem is solvable under the second",
    ) as c:
        rules = {name: builtin_rule(name, 2) for name in BUILTIN_RULES}
        graphs = {name: build_decision_graph(rule) for name, rule in rules.items()}
        converted = {
            name: decision_graph_to_observation(rule, "unary")
            for name, rule in rules.items()
        }
        disagreements = 0
        for f in BUILTIN_RULES:
            for g in BUILTIN_RULES:
                morphism_exists = find_morphism(graphs[f], graphs[g]) is not None
                solvable = solvable_by_enumeration(converted[f], rules[g], budget=None)
                if morphism_exists != solvable:
                    disagreements += 1
        c["ok"] = disagreements == 0


def test_criterion_8_reduction_matches_direct_evaluation():
    with criterion(
        8, "the crafted control problem is controllable and reduces to L={a,b}, K={a}"
    ) as c:
        control = ControlProblem(
            n=2,
            alphabet=("a", "b", "γ"),
            controllable=(frozenset({"γ"}), frozenset({"γ"})),
            L=((), ("a",), ("b",), ("a", "γ"), ("b", "γ")),
            K=((), ("a",), ("b",), ("a", "γ")),
            P=(Projection(frozenset({"a"})), Projection(frozenset({"b"}))),
        )
        family = reduce_control(control)
        reduced = family[0]
        # Independent evaluation of the defining set comprehensions.
        expected_l = tuple(s for s in control.K if s + ("γ",) in control.L_set)
        expected_k = tuple(s for s in control.K if s + ("γ",) in control.K_set)
        c["ok"] = (
            controllability_witness(control) is None
            and [rp.event for rp in family] == ["γ"]
            and expected_l == (("a",), ("b",))
            and expected_k == (("a",),)
            and reduced.problem.L == expected_l
            and reduced.problem.K == expected_k
        )


def _morphism_experiment(seed: int):
    """Search between consecutive random graphs and each graph and itself;
    returns (sound, composition_ok, serialized transcript)."""
    rng = random.Random(seed)
    graphs = [random_colored_graph(rng) for _ in range(200)]
    buckets: dict[int, list] = {}
    for g in graphs:
        buckets.setdefault(g.n, []).append(g)
    sound = True
    composition_ok = True
    transcript = []
    for n in sorted(buckets):
        bucket = buckets[n]
        found = []
        for i, src in enumerate(bucket):
            loop = find_morphism(src, src)
            if loop is None or not verify_morphism(loop):
                sound = False
            transcript.append(files.to_json(files.morphism_to_obj(loop)))
            if i + 1 < len(bucket):
                step = find_morphism(src, bucket[i + 1])
                found.append(step)
                if step is None:
                    transcript.append("none\n")
                else:
                    if not verify_morphism(step):
                        sound = False
                    transcript.append(files.to_json(files.morphism_to_obj(step)))
        for first, second in zip(found, found[1:]):
            if first is not None and second is not None:
                if not verify_morphism(compose(first, second)):
                    composition_ok = False
    return sound, composition_ok, "".join(transcript)


def test_criterion_9_random_graph_soundness_determinism_composition():
    with criterion(
        9,
        "on 200 random coloured graphs: found morphisms verify, reruns are "
        "byte-identical, and compositions of found morphisms verify",
    ) as c:
        sound, composition_ok, transcript = _morphism_experiment(seed=20240817)
        sound_again, composition_again, transcript_again = _morphism_experiment(seed=20240817)
        c["ok"] = (
            sound
            and sound_again
            and composition_ok
            and composition_again
            and transcript == transcript_again
            and transcript.encode() == transcript_again.encode()
        )
