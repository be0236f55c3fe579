import dataclasses
import itertools
import json
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from decobs import (
    ArityMismatch,
    BUILTIN_RULES,
    ColoredGraph,
    FusionRule,
    GraphMismatch,
    InconsistentMorphism,
    Morphism,
    ObservationProblem,
    ObservationTable,
    Projection,
    SearchLimitExceeded,
    UnknownString,
    build_decision_graph,
    build_observation_graph,
    builtin_rule,
    compose,
    decision_graph_to_observation,
    extract_solution,
    find_morphism,
    solvable_by_enumeration,
    verify_morphism,
    verify_solution,
)
from decobs import files
from decobs.morphism import _refute, _search
from helpers import (
    brute_force_morphism_exists,
    closed_form_core,
    closed_form_solvable,
    nodewise_refute,
    pairwise_edge_ok,
    pairwise_search,
    process_env,
    random_colored_graph,
    random_rule,
    rowwise_edge_violations,
)


_EMPTY_MAP_UNDER_A_CAP = """
import resource

cap = 1_500_000_000
_, hard = resource.getrlimit(resource.RLIMIT_AS)
soft = cap if hard == resource.RLIM_INFINITY else min(cap, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

from decobs import FusionRule, build_decision_graph, find_morphism, verify_morphism

g = build_decision_graph(FusionRule(10**9, ("0", "1"), (), ()))
print(verify_morphism(find_morphism(g, g)))
"""


def explicit_morphism(source, target, pairs):
    return Morphism(
        source, target, tuple(target.keys.index(pairs[key]) for key in source.keys)
    )


def _xnor_odd_cycle() -> tuple[ObservationProblem, FusionRule]:
    """An odd cycle under XNOR: ``_refute`` does not settle it, so only the
    search says no.  The smallest such instance found; no builtin rule gives
    one."""
    domain = (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))
    rule = FusionRule(2, ("0", "1"), domain, (1, 0, 0, 1))
    strings = tuple((f"s{k}",) for k in range(4))

    def table(labels: str) -> ObservationTable:
        return ObservationTable(tuple(zip(strings, labels)))

    problem = ObservationProblem(
        n=2,
        alphabet=tuple(t for (t,) in strings),
        L=strings,
        K=(strings[0], strings[2], strings[3]),
        P=(table("baab"), table("aabb")),
    )
    return problem, rule


@pytest.fixture
def conj_graph():
    return build_decision_graph(builtin_rule("conjunctive", 2))


@pytest.fixture
def ex1_graph(ex1):
    return build_observation_graph(ex1)


class TestVerifyMorphism:
    def test_identity_is_a_morphism(self, conj_graph):
        m = Morphism(conj_graph, conj_graph, tuple(range(len(conj_graph))))
        assert verify_morphism(m) is True

    def test_known_solution_map(self, ex1_graph, conj_graph):
        m = explicit_morphism(
            ex1_graph,
            conj_graph,
            {
                ("a",): ("0", "0"),
                ("b",): ("1", "1"),
                ("a", "b"): ("0", "1"),
                ("b", "b"): ("1", "0"),
            },
        )
        assert verify_morphism(m)

    def test_node_colour_violation(self, ex1_graph, conj_graph):
        zero = conj_graph.keys.index(("0", "0"))
        m = Morphism(ex1_graph, conj_graph, (zero,) * 4)
        assert verify_morphism(m) is False  # the single green node turns red
        assert extract_solution(m) == (
            {("a",): "0", (): "0"},
            {(): "0", ("b",): "0", ("b", "b"): "0"},
        )

    def test_one_flipped_colour_with_consistent_tables(self, ex1_graph, conj_graph):
        """The known solution with agent 2 deciding 1 on bb: every table is
        still a function, but the red string bb now maps to a green node."""
        m = explicit_morphism(
            ex1_graph,
            conj_graph,
            {
                ("a",): ("0", "0"),
                ("b",): ("1", "1"),
                ("a", "b"): ("0", "1"),
                ("b", "b"): ("1", "1"),
            },
        )
        assert [conj_graph.colours[t] for t in m.mapping] == [0, 1, 0, 1]
        assert ex1_graph.colours == (0, 1, 0, 0)
        assert extract_solution(m) == (
            {("a",): "0", (): "1"},
            {(): "0", ("b",): "1", ("b", "b"): "1"},
        )
        assert verify_morphism(m) is False

    def test_edge_colour_violation(self, ex1_graph, conj_graph):
        m = explicit_morphism(
            ex1_graph,
            conj_graph,
            {
                ("a",): ("0", "0"),
                ("b",): ("1", "1"),
                ("a", "b"): ("1", "0"),
                ("b", "b"): ("0", "1"),
            },
        )
        assert [conj_graph.colours[t] for t in m.mapping] == list(ex1_graph.colours)
        assert verify_morphism(m) is False
        with pytest.raises(InconsistentMorphism):
            extract_solution(m)

    def test_arity_mismatch(self, conj_graph):
        other = build_decision_graph(builtin_rule("conjunctive", 3))
        with pytest.raises(ArityMismatch):
            verify_morphism(Morphism(conj_graph, other, (0, 0, 0, 0)))

    def test_graphs_must_share_an_agent_count(self, conj_graph):
        other = build_decision_graph(builtin_rule("conjunctive", 3))
        with pytest.raises(ArityMismatch, match=r"^source has 2 agents, target has 3$"):
            Morphism(conj_graph, other, (0, 0, 0, 0))
        with pytest.raises(ArityMismatch, match=r"^source has 3 agents, target has 2$"):
            Morphism(other, conj_graph, (0,) * len(other))

    def test_mapping_must_be_total_and_in_range(self, conj_graph):
        with pytest.raises(ValueError):
            Morphism(conj_graph, conj_graph, (0, 1))
        with pytest.raises(ValueError):
            Morphism(conj_graph, conj_graph, (0, 1, 2, 9))
        # The first index out of range is named, whichever end it falls off.
        with pytest.raises(ValueError, match=r"^target index -1 out of range$"):
            Morphism(conj_graph, conj_graph, (0, -1, 4, 2))
        with pytest.raises(ValueError, match=r"^target index 4 out of range$"):
            Morphism(conj_graph, conj_graph, (0, 4, -1, 2))
        empty = ColoredGraph(n=2, keys=(), signatures=(), colours=())
        assert Morphism(empty, conj_graph, ()).mapping == ()


class TestFindMorphism:
    def test_example_problem_into_conjunctive(self, ex1_graph, conj_graph):
        m = find_morphism(ex1_graph, conj_graph)
        assert m is not None and verify_morphism(m)

    def test_conjunctive_into_disjunctive_has_none(self):
        conj = build_decision_graph(builtin_rule("conjunctive", 2))
        disj = build_decision_graph(builtin_rule("disjunctive", 2))
        assert find_morphism(conj, disj) is None
        assert find_morphism(disj, conj) is None

    def test_cpda_into_conjunctive(self):
        cpda = build_decision_graph(builtin_rule("cpda", 2))
        conj = build_decision_graph(builtin_rule("conjunctive", 2))
        assert find_morphism(cpda, conj) is not None
        assert find_morphism(conj, cpda) is None

    @pytest.mark.parametrize("name", ["conjunctive", "cpda", "conjunctive_cd"])
    def test_every_graph_maps_onto_itself(self, name):
        g = build_decision_graph(builtin_rule(name, 2))
        m = find_morphism(g, g)
        assert m is not None and verify_morphism(m)

    def test_a_source_without_nodes_maps_by_the_empty_map_at_once(self):
        g = build_decision_graph(FusionRule(10**6, ("0", "1"), (), ()))
        m = find_morphism(g, g)
        assert m is not None and m.mapping == ()
        assert "quotient" not in g.__dict__
        assert "label_buckets" not in g.__dict__

    def test_the_empty_map_verifies_in_bounded_memory(self):
        # A child process caps its own address space at 1.5 GB, so anything
        # built per agent for 10**9 agents raises MemoryError there.
        proc = subprocess.run(
            [sys.executable, "-c", _EMPTY_MAP_UNDER_A_CAP],
            capture_output=True,
            text=True,
            env=process_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr

    def test_deterministic(self, ex1_graph, conj_graph):
        first = find_morphism(ex1_graph, conj_graph)
        second = find_morphism(ex1_graph, conj_graph)
        assert first.mapping == second.mapping

    def test_budget_exhaustion_raises(self, ex1_graph, conj_graph):
        # XNOR is closed under neither join, so ex1 reaches the search, which
        # needs 4 expansions; a builtin target answers under any budget.
        _, xnor = _xnor_odd_cycle()
        target = build_decision_graph(xnor)
        with pytest.raises(SearchLimitExceeded):
            find_morphism(ex1_graph, target, budget=1)
        assert verify_morphism(find_morphism(ex1_graph, target, budget=4))
        assert verify_morphism(find_morphism(ex1_graph, conj_graph, budget=0))

    def test_colour_conflict_is_refuted_before_the_search(self, conj_graph):
        p = ObservationProblem(
            n=2,
            alphabet=("a", "b"),
            L=(("a",), ("b",)),
            K=(("a",),),
            P=(Projection(frozenset()), Projection(frozenset())),
        )
        g = build_observation_graph(p)
        assert _refute(g.quotient.graph, conj_graph) is None
        assert find_morphism(g, conj_graph, budget=0) is None

    def test_conflict_can_still_map_into_duplicated_targets(self):
        # Two indistinguishable nodes of different colours can split images
        # only when the target itself has an empty-set edge to offer.
        g = ColoredGraph(
            n=1, keys=("s", "t"), signatures=(("x",), ("x",)), colours=(0, 1)
        )
        m = find_morphism(g, g)
        assert m is not None and verify_morphism(m)

    def test_conflict_into_conflict_free_target_is_none_at_budget_0(self):
        # The target repeats a signature, but never in both colours, so no
        # target can take the two source nodes apart.  Each colour's targets
        # cover the same coordinates, so no label alone proves it: the pass
        # refutes it by whole signatures, and the search never starts.
        src = ColoredGraph(
            n=2, keys=("s", "t"), signatures=(("x", "y"), ("x", "y")), colours=(0, 1)
        )
        dst = ColoredGraph(
            n=2,
            keys=tuple(range(5)),
            signatures=(("a", "b"), ("c", "d"), ("a", "d"), ("c", "b"), ("a", "b")),
            colours=(0, 0, 1, 1, 0),
        )
        assert _refute(src, dst) is None
        assert find_morphism(src, dst, budget=0) is None

    def test_conflict_after_many_free_strings_is_none_at_budget_0_under_xnor(self):
        # 40 strings that both agents tell apart, then two that neither does,
        # one in K.  XNOR's colours use the same coordinates, and every
        # quotient node has two candidates, so a search would assign the
        # pair last and retry all 2**40 choices before it: only the whole-
        # signature check answers at once.
        _, rule = _xnor_odd_cycle()
        strings = tuple((f"s{k}",) for k in range(42))
        table = ObservationTable(
            tuple((s, f"l{min(k, 40)}") for k, s in enumerate(strings))
        )
        p = ObservationProblem(
            n=2,
            alphabet=tuple(t for (t,) in strings),
            L=strings,
            K=strings[:41],
            P=(table, table),
        )
        source, target = build_observation_graph(p), build_decision_graph(rule)
        assert len(source.quotient.graph) == 42
        assert find_morphism(source, target, budget=0) is None

    def test_duplicate_targets_fold_into_one_candidate(self):
        # Five (signature, colour) kinds, 24 copies each, in blocks.  Without
        # the fold every failing subtree is repeated once per copy, and the
        # search needs more than 60,000 candidates; with it, 15.
        kinds = [
            (("c2", "c0", "c1"), 1),
            (("c2", "c1", "c2"), 0),
            (("c1", "c1", "c1"), 0),
            (("c2", "c0", "c2"), 0),
            (("c2", "c1", "c0"), 1),
        ]
        copies = [kind for kind in kinds for _ in range(24)]
        dst = ColoredGraph(
            n=3,
            keys=tuple(range(len(copies))),
            signatures=tuple(sig for sig, _ in copies),
            colours=tuple(colour for _, colour in copies),
        )
        labels = [
            ("l1", "l0", "l1"), ("l2", "l2", "l2"), ("l2", "l1", "l3"),
            ("l0", "l2", "l2"), ("l2", "l0", "l1"), ("l1", "l0", "l2"),
            ("l0", "l1", "l0"), ("l3", "l0", "l3"), ("l2", "l1", "l0"),
        ]
        src = ColoredGraph(
            n=3,
            keys=tuple(range(9)),
            signatures=tuple(labels),
            colours=(1, 1, 1, 1, 1, 1, 1, 0, 1),
        )
        found = find_morphism(src, dst, budget=50)
        assert found is not None and verify_morphism(found)
        # Each target class is represented by its first member.
        assert {t % 24 for t in found.mapping} == {0}

    def test_arity_mismatch(self, conj_graph):
        with pytest.raises(ArityMismatch):
            find_morphism(conj_graph, build_decision_graph(builtin_rule("conjunctive", 3)))

    def test_empty_source_maps_vacuously(self, conj_graph):
        empty = ColoredGraph(n=2, keys=(), signatures=(), colours=())
        m = find_morphism(empty, conj_graph)
        assert m is not None and m.mapping == ()
        for target in (conj_graph, empty):
            assert find_morphism(empty, target, budget=0).mapping == ()

    def test_missing_target_colour_fails_without_expansions(self):
        # Node 1's colour is absent from the target; it has no candidates, so
        # the fewest-candidates pick fails on it before trying anything.
        src = ColoredGraph(n=2, keys=(0, 1), signatures=(("a", "b"), ("b", "c")), colours=(0, 1))
        dst = ColoredGraph(n=2, keys=(0, 1), signatures=(("a", "b"), ("a", "c")), colours=(0, 0))
        assert find_morphism(src, dst, budget=0) is None

    def test_4096_classes_take_one_expansion_each(self):
        # The observation problem of conjunctive:12 is its decision graph
        # again, 4,096 classes that each need exactly one candidate in the
        # search, so the exact budget answers and one less does not.
        # find_morphism reads the same answer off the fixpoint at budget 0.
        rule = builtin_rule("conjunctive", 12)
        src = build_observation_graph(decision_graph_to_observation(rule))
        dst = build_decision_graph(rule)
        quotients = src.quotient.graph, dst.quotient.graph
        assert len(quotients[0]) == 4096
        image = _search(*quotients, 4096)
        with pytest.raises(SearchLimitExceeded):
            _search(*quotients, 4095)
        found = find_morphism(src, dst, budget=0)
        assert verify_morphism(found)
        assert found.mapping == tuple(image)

    def test_the_search_alone_refutes_an_odd_cycle(self):
        problem, rule = _xnor_odd_cycle()
        source, target = build_observation_graph(problem), build_decision_graph(rule)
        assert _refute(source.quotient.graph, target.quotient.graph) is not None
        assert find_morphism(source, target) is None
        with pytest.raises(SearchLimitExceeded):
            find_morphism(source, target, budget=5)
        assert find_morphism(source, target, budget=6) is None
        assert solvable_by_enumeration(problem, rule) is False

    def test_agrees_with_exhaustive_map_enumeration(self):
        rng = random.Random(99)
        for _ in range(60):
            src = random_colored_graph(rng, max_nodes=4, max_agents=2)
            dst = random_colored_graph(rng, max_nodes=4, max_agents=2)
            if src.n != dst.n:
                continue
            found = find_morphism(src, dst)
            assert (found is not None) == brute_force_morphism_exists(src, dst)
            if found is not None:
                assert verify_morphism(found)


class TestExtractSolution:
    def test_tables_from_known_morphism(self, ex1, ex1_graph, conj_graph):
        rule = builtin_rule("conjunctive", 2)
        m = explicit_morphism(
            ex1_graph,
            conj_graph,
            {
                ("a",): ("0", "0"),
                ("b",): ("1", "1"),
                ("a", "b"): ("0", "1"),
                ("b", "b"): ("1", "0"),
            },
        )
        sol = extract_solution(m)
        assert sol[0] == {("a",): "0", (): "1"}
        assert sol[1] == {(): "0", ("b",): "1", ("b", "b"): "0"}
        assert verify_solution(ex1, sol, rule)

    def test_single_string_constant_rule(self):
        rule = builtin_rule("const1", 2)
        p = ObservationProblem(
            n=2,
            alphabet=("a",),
            L=(("a",),),
            K=(("a",),),
            P=(Projection(frozenset({"a"})), Projection(frozenset())),
        )
        g = build_observation_graph(p)
        m = find_morphism(g, build_decision_graph(rule))
        sol = extract_solution(m)
        assert sol == ({("a",): "1"}, {(): "1"})

    def test_merged_class_shares_one_entry(self):
        rule = builtin_rule("conjunctive", 1)
        p = ObservationProblem(
            n=1,
            alphabet=("a", "b"),
            L=(("a",), ("b",)),
            K=(("a",), ("b",)),
            P=(Projection(frozenset()),),
        )
        g = build_observation_graph(p)
        m = find_morphism(g, build_decision_graph(rule))
        sol = extract_solution(m)
        assert sol == ({(): "1"},)

    def test_inconsistent_map_is_rejected(self, conj_graph):
        p = ObservationProblem(
            n=2,
            alphabet=("a", "b"),
            L=(("a",), ("b",)),
            K=(),
            P=(Projection(frozenset()), Projection(frozenset())),
        )
        g = build_observation_graph(p)
        bad = explicit_morphism(
            g, conj_graph, {("a",): ("0", "0"), ("b",): ("0", "1")}
        )
        with pytest.raises(InconsistentMorphism):
            extract_solution(bad)

    @pytest.mark.parametrize(
        "label_of_b, mapping, message",
        [
            # node 1 clashes for agent 2, node 2 for agent 1: node order first
            ("y", (0, 3, 3), "agent 2 sends label 'u' to both '0' and '1'"),
            # node 1 clashes for both agents: agent order next
            ("x", (0, 3, 0), "agent 1 sends label 'x' to both '0' and '1'"),
        ],
        ids=["node-order", "agent-order"],
    )
    def test_clash_message_names_the_first_clash(self, conj_graph, label_of_b, mapping, message):
        p = ObservationProblem(
            n=2,
            alphabet=("a", "b", "c"),
            L=(("a",), ("b",), ("c",)),
            K=(),
            P=(
                ObservationTable(((("a",), "x"), (("b",), label_of_b), (("c",), "x"))),
                ObservationTable(((("a",), "u"), (("b",), "u"), (("c",), "w"))),
            ),
        )
        m = Morphism(build_observation_graph(p), conj_graph, mapping)
        with pytest.raises(InconsistentMorphism, match=f"^{re.escape(message)}$"):
            extract_solution(m)

    def test_clash_message_on_a_compare_witness(self):
        """A clash between two decision graphs names the source label as a
        label, which here is a decision, not an observation."""
        cpda = build_decision_graph(builtin_rule("cpda", 2))
        m = Morphism(cpda, build_decision_graph(builtin_rule("conjunctive", 2)), (0, 1, 3, 2, 0, 3))
        message = "agent 2 sends label 'dk' to both '1' and '0'"
        with pytest.raises(InconsistentMorphism, match=f"^{re.escape(message)}$"):
            extract_solution(m)
        assert verify_morphism(m) is False

    def test_tables_of_any_morphism(self, ex1_graph):
        """Into a graph that is not a decision graph, the tables send each
        label to the image's coordinate: the identity gives identity tables."""
        identity = Morphism(ex1_graph, ex1_graph, range(len(ex1_graph)))
        assert extract_solution(identity) == tuple(
            {label: label for label in column} for column in zip(*ex1_graph.signatures)
        )


class TestVerifySolution:
    def test_all_one_tables_fail_on_example(self, ex1):
        rule = builtin_rule("conjunctive", 2)
        tables = (
            {("a",): "1", (): "1"},
            {(): "1", ("b",): "1", ("b", "b"): "1"},
        )
        # ("a",) lies outside K yet every agent enables, so fusion gives 1.
        assert verify_solution(ex1, tables, rule) is False

    def test_empty_language_is_vacuously_solved(self):
        rule = builtin_rule("conjunctive", 1)
        p = ObservationProblem(
            n=1, alphabet=("a",), L=(), K=(), P=(Projection(frozenset({"a"})),)
        )
        assert verify_solution(p, ({},), rule) is True

    def test_partial_tables_are_not_solutions(self, ex1):
        rule = builtin_rule("conjunctive", 2)
        assert verify_solution(ex1, ({}, {}), rule) is False

    def test_a_string_some_table_lacks_is_not_a_solution(self, ex1):
        rule = builtin_rule("conjunctive", 2)
        found = find_morphism(build_observation_graph(ex1), build_decision_graph(rule))
        solution = extract_solution(found)

        def first_agent_table(strings):
            return ObservationTable(tuple((s, ex1.P[0].observe(s)) for s in strings))

        full = dataclasses.replace(ex1, P=(first_agent_table(ex1.L), ex1.P[1]))
        partial = dataclasses.replace(ex1, P=(first_agent_table(ex1.L[1:]), ex1.P[1]))
        assert verify_solution(full, solution, rule) is True
        assert verify_solution(partial, solution, rule) is False

    def test_wrong_agent_count_is_not_a_solution(self, ex1):
        rule = builtin_rule("conjunctive", 2)
        assert verify_solution(ex1, ({},), rule) is False

    def test_combination_outside_domain_fails(self):
        rule = builtin_rule("cpda", 2)
        p = ObservationProblem(
            n=2,
            alphabet=("a",),
            L=(("a",),),
            K=(("a",),),
            P=(Projection(frozenset({"a"})), Projection(frozenset({"a"}))),
        )
        tables = ({("a",): "0"}, {("a",): "1"})
        assert verify_solution(p, tables, rule) is False


class TestSolvableByEnumeration:
    def test_example_with_conjunctive(self, ex1):
        assert solvable_by_enumeration(ex1, builtin_rule("conjunctive", 2)) is True

    @pytest.mark.parametrize("name", ["conjunctive", "disjunctive", "cpda"])
    def test_colour_conflict_unsolvable_under_every_rule(self, name):
        p = ObservationProblem(
            n=2,
            alphabet=("a", "b"),
            L=(("a",), ("b",)),
            K=(("a",),),
            P=(Projection(frozenset()), Projection(frozenset())),
        )
        assert solvable_by_enumeration(p, builtin_rule(name, 2)) is False

    def test_all_green_with_constant_rule(self, ex1):
        p = ObservationProblem(n=2, alphabet=ex1.alphabet, L=ex1.L, K=ex1.L, P=ex1.P)
        assert solvable_by_enumeration(p, builtin_rule("const1", 2)) is True

    def test_budget_guard(self, ex1):
        with pytest.raises(SearchLimitExceeded):
            solvable_by_enumeration(ex1, builtin_rule("conjunctive", 2), budget=3)
        assert solvable_by_enumeration(ex1, builtin_rule("conjunctive", 2), budget=None)

    def test_arity_mismatch(self, ex1):
        with pytest.raises(ArityMismatch):
            solvable_by_enumeration(ex1, builtin_rule("conjunctive", 3))

    @pytest.mark.parametrize("order", ["agent-1-first", "agent-2-first"])
    def test_a_partial_table_names_the_first_string_of_l(self, ex1, order):
        """One table lacks the string a b, the other the earlier string b:
        in either agent order the error names the first partial table's
        missing string, as the graph build does."""

        def table_without(gone, fn):
            return ObservationTable(tuple((s, fn.observe(s)) for s in ex1.L if s != gone))

        lacks_ab = table_without(("a", "b"), ex1.P[0])
        lacks_b = table_without(("b",), ex1.P[1])
        p = dataclasses.replace(
            ex1, P=(lacks_ab, lacks_b) if order == "agent-1-first" else (lacks_b, lacks_ab)
        )
        missing = "a b" if order == "agent-1-first" else "b"
        with pytest.raises(UnknownString, match=f"^no observation recorded for {missing}$"):
            solvable_by_enumeration(p, builtin_rule("conjunctive", 2))
        with pytest.raises(UnknownString, match=f"^no observation recorded for {missing}$"):
            build_observation_graph(p)


class TestCompose:
    def test_identity_composition(self, ex1_graph, conj_graph):
        m = find_morphism(ex1_graph, conj_graph)
        identity = Morphism(conj_graph, conj_graph, tuple(range(len(conj_graph))))
        assert compose(m, identity).mapping == m.mapping

    def test_chained_morphisms_verify(self):
        cpda = builtin_rule("cpda", 2)
        obs = build_observation_graph(decision_graph_to_observation(cpda))
        to_cpda = find_morphism(obs, build_decision_graph(cpda))
        to_conj = find_morphism(
            build_decision_graph(cpda),
            build_decision_graph(builtin_rule("conjunctive", 2)),
        )
        composite = compose(to_cpda, to_conj)
        assert verify_morphism(composite)

    def test_mismatched_middle_graph(self, ex1_graph, conj_graph):
        m = find_morphism(ex1_graph, conj_graph)
        disj = build_decision_graph(builtin_rule("disjunctive", 2))
        identity = Morphism(disj, disj, tuple(range(len(disj))))
        with pytest.raises(GraphMismatch):
            compose(m, identity)


def _first_solution_by_enumeration(p, rule):
    """Independent solution constructor: first table assignment that verifies."""
    import itertools

    labels_per_agent = []
    for fn in p.P:
        seen = []
        for s in p.L:
            label = fn.observe(s)
            if label not in seen:
                seen.append(label)
        labels_per_agent.append(seen)
    slots = sum(len(labels) for labels in labels_per_agent)
    for assignment in itertools.product(rule.decisions, repeat=slots):
        tables, pos = [], 0
        for labels in labels_per_agent:
            tables.append(dict(zip(labels, assignment[pos : pos + len(labels)])))
            pos += len(labels)
        candidate = tuple(tables)
        if verify_solution(p, candidate, rule):
            return candidate
    return None


def _induced_morphism(p, sol, rule):
    graph = build_observation_graph(p)
    target = build_decision_graph(rule)
    mapping = tuple(
        target.keys.index(
            tuple(sol[i][graph.signatures[v][i]] for i in range(p.n))
        )
        for v in range(len(graph))
    )
    return Morphism(graph, target, mapping)


class TestSolutionMorphismCorrespondence:
    @pytest.mark.parametrize("name", ["conjunctive", "conjunctive_cd"])
    def test_verified_solutions_induce_morphisms(self, ex1, name):
        rule = builtin_rule(name, 2)
        sol = _first_solution_by_enumeration(ex1, rule)
        assert sol is not None
        assert verify_morphism(_induced_morphism(ex1, sol, rule))

    def test_extracted_solutions_induce_the_same_morphism(self, ex1):
        rule = builtin_rule("conjunctive", 2)
        graph = build_observation_graph(ex1)
        m = find_morphism(graph, build_decision_graph(rule))
        sol = extract_solution(m)
        assert _induced_morphism(ex1, sol, rule).mapping == m.mapping


@st.composite
def graph_pairs(draw, max_nodes=6):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    graphs = []
    for _ in range(2):
        g = random_colored_graph(rng, max_nodes=max_nodes, max_agents=3)
        while g.n != n:
            g = random_colored_graph(rng, max_nodes=max_nodes, max_agents=3)
        graphs.append(g)
    return graphs


@settings(max_examples=60, deadline=None)
@given(graph_pairs())
def test_found_morphisms_always_verify(pair):
    src, dst = pair
    found = find_morphism(src, dst)
    if found is not None:
        assert verify_morphism(found)
        again = find_morphism(src, dst)
        assert again.mapping == found.mapping


@settings(max_examples=150, deadline=None)
@given(graph_pairs(max_nodes=5))  # conflicts and duplicate targets are both common
def test_find_morphism_agrees_with_brute_force(pair):
    src, dst = pair
    found = find_morphism(src, dst)
    assert (found is not None) == brute_force_morphism_exists(src, dst)
    if found is not None:
        assert verify_morphism(found)


def _same_arity_pairs(rng, count, max_nodes):
    pairs = []
    while len(pairs) < count:
        src = random_colored_graph(rng, max_nodes=max_nodes)
        dst = random_colored_graph(rng, max_nodes=max_nodes)
        if src.n == dst.n:
            pairs.append((src, dst))
    return pairs


def _expansions_needed(search, src, dst) -> int:
    """Smallest budget under which ``search`` finishes (finding a morphism or
    proving there is none) rather than raising SearchLimitExceeded."""

    def finishes(budget):
        try:
            search(src, dst, budget)
        except SearchLimitExceeded:
            return False
        return True

    if finishes(0):
        return 0
    low, high = 0, 1
    while not finishes(high):
        low, high = high, high * 2
    while high - low > 1:
        mid = (low + high) // 2
        if finishes(mid):
            high = mid
        else:
            low = mid
    return high


def _builtin_graph_pairs(max_n, min_n=1):
    for n in range(min_n, max_n + 1):
        graphs = [build_decision_graph(builtin_rule(name, n)) for name in BUILTIN_RULES]
        for src in graphs:
            for dst in graphs:
                yield src, dst


class TestAgainstPairwiseReference:
    """The per-agent label search and checks against the pairwise definition."""

    def test_search_matches_on_random_graphs(self):
        rng = random.Random(2024)
        for src, dst in _same_arity_pairs(rng, 300, max_nodes=9):
            assert _search(src, dst, None) == pairwise_search(src, dst, None)
            assert _expansions_needed(_search, src, dst) == _expansions_needed(
                pairwise_search, src, dst
            )

    def test_search_matches_on_builtin_decision_graphs(self):
        for src, dst in _builtin_graph_pairs(4):
            assert _search(src, dst, None) == pairwise_search(src, dst, None)
            assert _expansions_needed(_search, src, dst) == _expansions_needed(
                pairwise_search, src, dst
            )

    def test_search_matches_on_builtin_decision_graphs_wider_than_a_word(self):
        # Targets of 32-127 nodes: candidate masks span more than 64 bits.
        for src, dst in _builtin_graph_pairs(6, min_n=5):
            assert _search(src, dst, None) == pairwise_search(src, dst, None)
            if src.n == 5:
                assert _expansions_needed(_search, src, dst) == _expansions_needed(
                    pairwise_search, src, dst
                )

    def test_search_matches_on_random_targets_wider_than_a_word(self):
        rng = random.Random(65)
        pairs = 0
        while pairs < 50:
            src = random_colored_graph(rng, max_nodes=9, max_agents=2)
            dst = random_colored_graph(rng, min_nodes=65, max_nodes=130, max_agents=2)
            if src.n != dst.n:
                continue
            pairs += 1
            assert _search(src, dst, None) == pairwise_search(src, dst, None)
            assert _expansions_needed(_search, src, dst) == _expansions_needed(
                pairwise_search, src, dst
            )

    def test_verify_morphism_matches_pairwise_definition(self):
        rng = random.Random(31)
        seen = {True: 0, False: 0}
        for src, dst in _same_arity_pairs(rng, 400, max_nodes=8):
            maps = [tuple(rng.randrange(len(dst)) for _ in range(len(src))) for _ in range(3)]
            found = find_morphism(src, dst)
            if found is not None:
                maps.append(found.mapping)
            for mapping in maps:
                m = Morphism(src, dst, mapping)
                ok = verify_morphism(m)
                edges_ok = pairwise_edge_ok(src, dst, mapping)
                colours_ok = all(
                    src.colours[v] == dst.colours[mapping[v]] for v in range(len(src))
                )
                try:
                    extract_solution(m)
                except InconsistentMorphism:
                    assert not edges_ok
                else:
                    assert edges_ok
                assert (rowwise_edge_violations(m) == ()) == edges_ok
                assert ok is (edges_ok and colours_ok)
                seen[ok] += 1
        assert seen[False] > seen[True] > 0

    @pytest.mark.parametrize(
        "source, target, n, exists, expansions",
        [
            ("conjunctive", "cpda", 6, False, 1176),
            ("conjunctive_cd", "cpda", 6, False, 1192),
            ("cpda", "conjunctive_cd", 6, True, 132),
            ("conjunctive", "cpda", 5, False, 332),
            ("conjunctive_cd", "cpda", 5, False, 340),
        ],
    )
    def test_expansion_counts_where_the_reference_is_too_slow(
        self, source, target, n, exists, expansions
    ):
        # Counts of the pairwise reference's search order, pinned because
        # running it at n = 6 takes too long; --budget outcomes rest on them.
        src = build_decision_graph(builtin_rule(source, n))
        dst = build_decision_graph(builtin_rule(target, n))
        assert (_search(src, dst, None) is not None) == exists
        assert _expansions_needed(_search, src, dst) == expansions

    def test_search_matches_on_sources_with_repeated_signatures(self):
        # Unquotiented sources: every bucket holds several nodes, so later
        # members are assigned after the first has already narrowed it, and
        # backtracking must hand the bucket back to be narrowed again.
        rng = random.Random(77)
        outcomes = {True: 0, False: 0}
        backtracked = 0
        for _ in range(200):
            n = rng.randint(2, 3)
            src = _graph_with_repeated_signatures(rng, n, rng.randint(8, 12), rng.randint(3, 6))
            dst = _graph_with_repeated_signatures(rng, n, rng.randint(6, 12), rng.randint(4, 8))
            found = _search(src, dst, None)
            assert found == pairwise_search(src, dst, None)
            needed = _expansions_needed(_search, src, dst)
            assert needed == _expansions_needed(pairwise_search, src, dst)
            outcomes[found is not None] += 1
            # Without backtracking a search tries one candidate per node.
            backtracked += needed > (len(src) if found else 1)
        assert min(outcomes.values()) > 50 and backtracked > 50

    def test_search_matches_where_counts_tie_and_change_at_every_level(self):
        # Ring sources: most nodes start on one count, and nearly every
        # assignment narrows a free neighbour, so the pick breaks ties on
        # counts that keep changing.
        rng = random.Random(12)
        outcomes = {True: 0, False: 0}
        backtracked = 0
        for _ in range(150):
            src = _ring_graph(rng, 2 * rng.randint(5, 8))
            pool = rng.randint(2, 4)
            size = rng.randint(6, 12)
            dst = ColoredGraph(
                n=2,
                keys=tuple(range(size)),
                signatures=tuple(
                    (f"x{rng.randrange(pool)}", f"y{rng.randrange(pool)}") for _ in range(size)
                ),
                colours=tuple(int(rng.random() < 0.3) for _ in range(size)),
            )
            found = _search(src, dst, None)
            assert found == pairwise_search(src, dst, None)
            needed = _expansions_needed(_search, src, dst)
            assert needed == _expansions_needed(pairwise_search, src, dst)
            outcomes[found is not None] += 1
            backtracked += needed > (len(src) if found else 1)
        assert min(outcomes.values()) > 20 and backtracked > 20


def _random_rule_file_pairs(n, k, count=60):
    """``count`` seeded pairs of random rules of n agents and k decisions,
    each read back from the JSON text of its rule file."""
    rng = random.Random(100 * n + k)

    def drawn():
        rule = random_rule(rng, n, k)
        parsed = files.parse_rule(json.loads(files.to_json(files.rule_to_obj(rule))))
        assert parsed == rule
        return parsed

    return [(drawn(), drawn()) for _ in range(count)]


class TestRandomRuleFiles:
    """Searches between the decision graphs of random rule files, the inputs
    that can still reach the search after the arc-consistency pass and its
    joins."""

    @pytest.mark.parametrize("n, k", [(2, 2), (2, 3), (3, 2)])
    def test_find_morphism_matches_enumeration(self, n, k, monkeypatch):
        # Enumeration over rule B's tables decides A <= B with no graph and
        # no search; at (3, 3) it takes about 0.8 s a pair.  Some answers
        # come from a join of the arc-consistency fixpoint, some from the
        # search, and both must agree with it.
        searched = []

        def search(src, dst, budget):
            searched.append(True)
            return _search(src, dst, budget)

        monkeypatch.setattr("decobs.morphism._search", search)
        outcomes = {True: 0, False: 0}
        answered_by = {"join": 0, "search": 0}
        for first, second in _random_rule_file_pairs(n, k):
            searched.clear()
            found = find_morphism(build_decision_graph(first), build_decision_graph(second))
            problem = decision_graph_to_observation(first)
            assert (found is not None) == solvable_by_enumeration(problem, second)
            if found is not None:
                assert verify_morphism(found)
            outcomes[found is not None] += 1
            if searched:
                answered_by["search"] += 1
            elif found is not None:
                answered_by["join"] += 1
        assert min(outcomes.values()) > 0
        assert min(answered_by.values()) > 0, answered_by

    @pytest.mark.parametrize("n, k", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_search_matches_pairwise_reference(self, n, k):
        # At (3, 3) every pair is a negative, and the arc-consistency pass
        # proves only 3 of the 60.  The search runs under the reference's
        # expansion count, so one that loses track of its candidates fails
        # instead of looping.
        for first, second in _random_rule_file_pairs(n, k):
            src, dst = build_decision_graph(first), build_decision_graph(second)
            needed = _expansions_needed(pairwise_search, src, dst)
            assert _search(src, dst, needed) == pairwise_search(src, dst, None)
            if needed:
                with pytest.raises(SearchLimitExceeded):
                    _search(src, dst, needed - 1)


def _ring_graph(rng, size) -> ColoredGraph:
    """``size`` (even) nodes in a ring, each sharing its agent-1 label with
    one ring neighbour and its agent-2 label with the other, declared in a
    shuffled order.  Most nodes have colour 0, so they tie on their first
    count, and assigning a node can narrow a neighbour that is still free."""
    order = list(range(size))
    rng.shuffle(order)
    signatures = [()] * size
    for position, v in enumerate(order):
        signatures[v] = (f"a{position // 2}", f"b{(position + 1) // 2 % (size // 2)}")
    return ColoredGraph(
        n=2,
        keys=tuple(range(size)),
        signatures=tuple(signatures),
        colours=tuple(int(rng.random() < 0.25) for _ in range(size)),
    )


def _graph_with_repeated_signatures(rng, n, size, distinct) -> ColoredGraph:
    """``size`` nodes whose signatures are drawn from only ``distinct`` random
    ones, so most repeat.  A node's colour is its signature's, flipped with
    probability 0.1, so that many searches fail and backtrack."""
    pools = [[f"v{k}" for k in range(3)] for _ in range(n)]
    drawn = [tuple(rng.choice(pool) for pool in pools) for _ in range(distinct)]
    colour_of = {sig: rng.randint(0, 1) for sig in drawn}
    signatures = tuple(rng.choice(drawn) for _ in range(size))
    return ColoredGraph(
        n=n,
        keys=tuple(range(size)),
        signatures=signatures,
        colours=tuple(colour_of[sig] ^ (rng.random() < 0.1) for sig in signatures),
    )


# For each builtin rule, the other builtin rules whose decision graphs its own
# maps into, at every n >= 2.  The 17 ordered pairs not listed have no
# morphism.
_BUILTIN_MORPHISMS = {
    "conjunctive": {"conjunctive_cd"},
    "disjunctive": set(),
    "cpda": {"conjunctive", "disjunctive", "conjunctive_cd"},
    "conjunctive_cd": {"conjunctive"},
    "const0": {"conjunctive", "disjunctive", "cpda", "conjunctive_cd"},
    "const1": {"conjunctive", "disjunctive", "cpda", "conjunctive_cd"},
}


@settings(max_examples=150, deadline=None)
@given(graph_pairs(max_nodes=5))  # small enough for brute force; signatures often repeat
def test_refute_never_denies_an_existing_morphism(pair):
    src, dst = pair
    if _refute(src, dst) is None:
        assert pairwise_search(src, dst, None) is None
        assert not brute_force_morphism_exists(src, dst)


class TestRefute:
    """The arc-consistency pass that find_morphism runs before the search."""

    def test_sound_on_sources_and_targets_with_repeated_signatures(self):
        # Unquotiented graphs on both sides: find_morphism hands the pass
        # only quotients, but its soundness does not rest on that.
        rng = random.Random(91)
        refuted = 0
        for _ in range(300):
            n = rng.randint(2, 3)
            src = _graph_with_repeated_signatures(rng, n, rng.randint(6, 12), rng.randint(3, 6))
            dst = _graph_with_repeated_signatures(rng, n, rng.randint(4, 10), rng.randint(3, 8))
            if _refute(src, dst) is None:
                assert pairwise_search(src, dst, None) is None
                refuted += 1
        assert refuted > 50

    @pytest.mark.parametrize("n", range(2, 9))
    def test_builtin_negatives_are_refuted_before_the_search(self, n):
        graphs = {name: build_decision_graph(builtin_rule(name, n)) for name in BUILTIN_RULES}
        negatives = 0
        for source, targets in _BUILTIN_MORPHISMS.items():
            for target in BUILTIN_RULES:
                if target == source:
                    continue
                src, dst = graphs[source], graphs[target]
                if target in targets:
                    found = find_morphism(src, dst)
                    assert found is not None and verify_morphism(found)
                else:
                    # A budget of 0 lets the search try no candidate at all.
                    assert find_morphism(src, dst, budget=0) is None
                    negatives += 1
        assert negatives == 17

    @pytest.mark.parametrize("name", BUILTIN_RULES)
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 5), data=st.data())
    def test_builtin_targets_refute_a_signature_in_two_colours(self, name, n, data):
        # Two source nodes with one signature and two colours: the pass
        # proves that no builtin rule takes them apart.
        labels = st.tuples(*[st.sampled_from("xyz")] * n)
        signatures = data.draw(st.lists(labels, min_size=1, max_size=8))
        colours = data.draw(
            st.lists(st.sampled_from((0, 1)), min_size=len(signatures), max_size=len(signatures))
        )
        v = data.draw(st.integers(0, len(signatures) - 1))
        at = data.draw(st.integers(0, len(signatures)))
        signatures.insert(at, signatures[v])
        colours.insert(at, 1 - colours[v])
        src = ColoredGraph(
            n=n, keys=tuple(range(len(signatures))), signatures=signatures, colours=colours
        )
        target = build_decision_graph(builtin_rule(name, n))
        assert _refute(src.quotient.graph, target.quotient.graph) is None
        assert find_morphism(src, target, budget=0) is None


def _problem_at_scale(rng, size, built_for):
    """About ``size`` distinct strings over six tokens and three agents, each
    observing three of them.  K is chosen through per-agent votes on labels
    so that the problem is solvable under the builtin ``built_for``
    (conjunctive and conjunctive_cd: every label accepted; disjunctive: some
    label accepted; cpda: each label votes 1, 0 or dk, a string is kept when
    its votes hold 1 or 0 but not both, and is in K when they hold 1; const0
    and const1: K empty or all of L).  Label tuples and
    membership are computed here, not by decobs, so the closed-form oracle
    stays independent of the library."""
    tokens = "abcdef"
    observable = [frozenset(rng.sample(tokens, 3)) for _ in range(3)]
    strings = set()
    while len(strings) < size:
        strings.add(tuple(rng.choice(tokens) for _ in range(rng.randint(0, 7))))
    strings = sorted(strings)
    labels = [tuple(tuple(t for t in s if t in obs) for obs in observable) for s in strings]
    if built_for in ("const0", "const1"):
        return strings, observable, labels, [built_for == "const1"] * len(strings)
    accepted = [{} for _ in range(3)]
    if built_for == "cpda":
        votes = [
            [accepted[i].setdefault(label, rng.choice("10ddd")) for i, label in enumerate(labs)]
            for labs in labels
        ]
        keep = [("1" in v) != ("0" in v) for v in votes]
        strings, labels, votes = (list(itertools.compress(xs, keep)) for xs in (strings, labels, votes))
        return strings, observable, labels, ["1" in v for v in votes]
    share = 0.2 if built_for == "disjunctive" else 0.8
    votes = [
        [accepted[i].setdefault(label, rng.random() < share) for i, label in enumerate(labs)]
        for labs in labels
    ]
    in_k = [any(v) if built_for == "disjunctive" else all(v) for v in votes]
    return strings, observable, labels, in_k


def _scale_problem(strings, in_k, observations) -> ObservationProblem:
    """The problem over the strings of ``_problem_at_scale`` with K given by
    ``in_k`` and the agents observing through ``observations``."""
    return ObservationProblem(
        n=3,
        alphabet=tuple("abcdef"),
        L=tuple(strings),
        K=tuple(s for s, inside in zip(strings, in_k) if inside),
        P=tuple(observations),
    )


def _problems_at_1000_strings(seed):
    """Projection problems from _problem_at_scale, with and without one
    flipped membership, and table problems over the same strings whose
    tables merge each agent's projection labels at random."""
    rng = random.Random(seed)
    for built_for in ("conjunctive", "disjunctive"):
        strings, observable, labels, in_k = _problem_at_scale(rng, 1000, built_for)
        flipped = list(in_k)
        x = rng.randrange(len(strings))
        flipped[x] = not flipped[x]
        merged = []
        for i in range(3):
            column = sorted({labs[i] for labs in labels})
            merge = {label: rng.randrange(max(1, len(column) * 3 // 4)) for label in column}
            entries = tuple((s, f"m{merge[labs[i]]}") for s, labs in zip(strings, labels))
            merged.append(ObservationTable(entries))
        projections = tuple(Projection(obs) for obs in observable)
        for members in (in_k, flipped):
            for observations in (projections, merged):
                yield _scale_problem(strings, members, observations)


class TestClosedFormOracleAtScale:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1000, 10_000),
        built_for=st.sampled_from(BUILTIN_RULES),
        flip=st.booleans(),
    )
    def test_verdicts_match_co_observability(self, seed, size, built_for, flip):
        rng = random.Random(seed)
        strings, observable, labels, in_k = _problem_at_scale(rng, size, built_for)
        assert closed_form_solvable(labels, in_k, built_for)
        if flip:  # flip one string's membership: usually unsolvable
            x = rng.randrange(len(strings))
            in_k[x] = not in_k[x]
        projections = tuple(Projection(obs) for obs in observable)
        graph = build_observation_graph(_scale_problem(strings, in_k, projections))
        for rule in BUILTIN_RULES:
            target = build_decision_graph(builtin_rule(rule, 3))
            found = find_morphism(graph, target, budget=0)
            core = closed_form_core(labels, in_k, rule)
            if closed_form_solvable(labels, in_k, rule):
                # A join of the pass's fixpoint maps it, with no search.
                assert found is not None and verify_morphism(found)
                assert core is None
            else:
                # On the builtins the pass before the search is exact, and
                # the form's failure fits in n + 1 strings.
                assert found is None
                assert core is not None and len(core) <= 4
                sub = _scale_problem(
                    [strings[k] for k in core], [in_k[k] for k in core], projections
                )
                assert find_morphism(build_observation_graph(sub), target, budget=0) is None


# The coordinate-wise operations, on sorted tokens, under which each colour
# class of a builtin decision graph is closed at every n >= 2 (at n = 1 every
# builtin is closed under both).
_BUILTIN_JOINS = {
    "conjunctive": {min},
    "disjunctive": {max},
    "cpda": {min},
    "conjunctive_cd": {min},
    "const0": {min, max},
    "const1": {min, max},
}


@pytest.mark.parametrize("n", range(1, 5))
def test_builtin_colour_classes_are_closed_under_a_join(n):
    # The property that lets find_morphism read every builtin answer off the
    # arc-consistency fixpoint; checked on every pair of same-colour nodes.
    for name, joins in _BUILTIN_JOINS.items():
        g = build_decision_graph(builtin_rule(name, n))
        nodes = set(zip(g.signatures, g.colours))
        closed = {
            pick
            for pick in (min, max)
            if all(
                (tuple(map(pick, u, v)), colour) in nodes
                for u, colour in nodes
                for v, other in nodes
                if colour == other
            )
        }
        assert closed == (joins if n > 1 else {min, max}), name


class TestNoBuiltinTargetReachesTheSearch:
    """With ``_search`` replaced by one that fails, find_morphism still
    answers every query into a builtin target: the pass refutes each
    negative, and a join of its fixpoint maps each positive."""

    @pytest.fixture(autouse=True)
    def no_search(self, monkeypatch):
        def search(src, dst, budget):
            raise AssertionError("a builtin target reached the search")

        monkeypatch.setattr("decobs.morphism._search", search)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_builtin_pairs(self, n):
        graphs = [build_decision_graph(builtin_rule(name, n)) for name in BUILTIN_RULES]
        found = {True: 0, False: 0}
        for src, dst in itertools.product(graphs, repeat=2):
            witness = find_morphism(src, dst)
            assert (witness is None) == (pairwise_search(src, dst, None) is None)
            if witness is not None:
                assert verify_morphism(witness)
            found[witness is not None] += 1
        assert found[False] == (17 if n > 1 else 10)

    @pytest.mark.parametrize("seed", range(3))
    def test_problems_at_scale(self, seed):
        # _problem_at_scale's projection problems, with and without one
        # flipped membership, into each builtin at n = 3.  The reference
        # search takes exponential time on some negatives from about 70
        # classes up, so these have about 40 strings;
        # TestClosedFormOracleAtScale answers larger ones at budget 0.
        rng = random.Random(seed)
        targets = [build_decision_graph(builtin_rule(name, 3)) for name in BUILTIN_RULES]
        found = {True: 0, False: 0}
        for built_for in ("conjunctive", "disjunctive"):
            strings, observable, labels, in_k = _problem_at_scale(rng, 40, built_for)
            flipped = list(in_k)
            x = rng.randrange(len(strings))
            flipped[x] = not flipped[x]
            projections = tuple(Projection(obs) for obs in observable)
            for members in (in_k, flipped):
                graph = build_observation_graph(_scale_problem(strings, members, projections))
                for target in targets:
                    witness = find_morphism(graph, target, budget=0)
                    expected = pairwise_search(graph.quotient.graph, target, None)
                    assert (witness is None) == (expected is None)
                    if witness is not None:
                        assert verify_morphism(witness)
                    found[witness is not None] += 1
        assert min(found.values()) > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_problems_at_1000_strings(self, seed):
        # The inputs of TestRefuteMatchesNodewiseReference's problems at
        # scale.  Arc consistency decides every query into a builtin target,
        # so the node-wise AC-3 is a complete reference where the pairwise
        # search would take exponential time.
        targets = [build_decision_graph(builtin_rule(name, 3)) for name in BUILTIN_RULES]
        found = {True: 0, False: 0}
        for problem in _problems_at_1000_strings(seed):
            graph = build_observation_graph(problem)
            for target in targets:
                witness = find_morphism(graph, target, budget=0)
                assert (witness is None) == nodewise_refute(graph.quotient.graph, target)
                if witness is not None:
                    assert verify_morphism(witness)
                found[witness is not None] += 1
        assert min(found.values()) > 0


@st.composite
def repeated_signature_pairs(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    n = rng.randint(2, 3)
    return (
        _graph_with_repeated_signatures(rng, n, rng.randint(6, 12), rng.randint(3, 6)),
        _graph_with_repeated_signatures(rng, n, rng.randint(4, 10), rng.randint(3, 8)),
    )


@st.composite
def sized_pairs(draw, src_nodes, dst_nodes):
    """A source and a target of one arity whose node counts lie in the
    inclusive ranges ``src_nodes`` and ``dst_nodes``."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    n = rng.randint(1, 3)
    graphs = []
    for low, high in (src_nodes, dst_nodes):
        g = random_colored_graph(rng, min_nodes=low, max_nodes=high)
        while g.n != n:
            g = random_colored_graph(rng, min_nodes=low, max_nodes=high)
        graphs.append(g)
    return graphs


class TestRefuteMatchesNodewiseReference:
    """``_refute`` works by target node over bitmasks of source nodes; the
    node-wise AC-3 in ``helpers.nodewise_refute`` reaches the same fixpoint,
    so the two must give the same answer on every input."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            graph_pairs(),
            repeated_signature_pairs(),
            sized_pairs((0, 0), (0, 6)),  # empty source
            sized_pairs((1, 6), (0, 0)),  # empty target
            sized_pairs((1, 12), (65, 130)),  # target wider than a 64-bit word
            sized_pairs((65, 130), (1, 12)),  # source masks wider than a word
        )
    )
    def test_random_pairs(self, pair):
        src, dst = pair
        assert (_refute(src, dst) is None) == nodewise_refute(src, dst)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_builtin_pairs(self, n):
        graphs = [build_decision_graph(builtin_rule(name, n)) for name in BUILTIN_RULES]
        verdicts = [
            (_refute(src, dst) is None, nodewise_refute(src, dst))
            for src, dst in itertools.permutations(graphs, 2)
        ]
        assert len(verdicts) == 30
        assert all(new == old for new, old in verdicts)
        if n >= 2:
            assert sum(new for new, _ in verdicts) == 17

    @pytest.mark.parametrize("seed", range(3))
    def test_problems_at_scale(self, seed):
        targets = [build_decision_graph(builtin_rule(name, 3)) for name in BUILTIN_RULES]
        refuted = {True: 0, False: 0}
        for problem in _problems_at_1000_strings(seed):
            graph = build_observation_graph(problem).quotient.graph
            assert len(graph) > 100
            for target in targets:
                verdict = _refute(graph, target) is None
                assert verdict == nodewise_refute(graph, target)
                refuted[verdict] += 1
        assert min(refuted.values()) > 0
