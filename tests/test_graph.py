import dataclasses
import itertools
import random
import re

import pytest

from decobs import (
    BUILTIN_RULES,
    ColoredGraph,
    FusionRule,
    ObservationProblem,
    ObservationTable,
    Projection,
    UnknownString,
    build_decision_graph,
    build_observation_graph,
    builtin_rule,
    decision_graph_to_observation,
    export_dot,
    quotient_by_indistinguishability,
    solvable_by_enumeration,
    verify_d2o,
)
from decobs import files
from helpers import edge_colour, pairs, random_colored_graph, restated_builtin


def edges_by_key(g: ColoredGraph) -> dict:
    return {
        frozenset((g.keys[u], g.keys[v])): edge_colour(g, u, v) for u, v in pairs(g)
    }


class TestObservationGraph:
    def test_example_graph(self, ex1):
        g = build_observation_graph(ex1)
        assert g.keys == ex1.L and g.n == 2 and g.decisions is None
        assert g.colours == (0, 1, 0, 0)
        a, b, ab, bb = ("a",), ("b",), ("a", "b"), ("b", "b")
        assert edges_by_key(g) == {
            frozenset((b, ab)): frozenset({0}),
            frozenset((a, ab)): frozenset({1}),
            frozenset((b, bb)): frozenset({1}),
            frozenset((a, b)): frozenset({0, 1}),
            frozenset((a, bb)): frozenset({0, 1}),
            frozenset((ab, bb)): frozenset({0, 1}),
        }

    def test_edges_follow_observation_tuples(self, ex1):
        # Recompute every edge straight from the definition.
        g = build_observation_graph(ex1)
        for u, v in pairs(g):
            tu = tuple(fn.observe(g.keys[u]) for fn in ex1.P)
            tv = tuple(fn.observe(g.keys[v]) for fn in ex1.P)
            assert edge_colour(g, u, v) == frozenset(
                i for i in range(2) if tu[i] != tv[i]
            )

    def test_singleton_language(self):
        p = ObservationProblem(
            n=1, alphabet=("a",), L=(("a",),), K=(("a",),), P=(Projection(frozenset({"a"})),)
        )
        g = build_observation_graph(p)
        assert len(g) == 1 and g.colours == (1,) and list(pairs(g)) == []

    def test_identical_tuples_give_empty_edge(self):
        p = ObservationProblem(
            n=1,
            alphabet=("a", "b"),
            L=(("a",), ("b",)),
            K=(("a",), ("b",)),
            P=(Projection(frozenset()),),
        )
        g = build_observation_graph(p)
        assert edge_colour(g, 0, 1) == frozenset()

    @pytest.mark.parametrize("order", ["agent-1-first", "agent-2-first"])
    def test_partial_tables_name_the_first_missing_string_of_l(self, order):
        """Without validation, the first table in agent order that lacks a
        string of L raises UnknownString naming its first missing string,
        and the graph build and the enumeration name the same one."""
        lacks_c = ObservationTable(((("a",), "x"), (("b",), "y")))
        lacks_b = ObservationTable(((("a",), "u"), (("c",), "w")))
        p = ObservationProblem(
            n=2,
            alphabet=("a", "b", "c"),
            L=(("a",), ("b",), ("c",)),
            K=(),
            P=(lacks_c, lacks_b) if order == "agent-1-first" else (lacks_b, lacks_c),
        )
        missing = "c" if order == "agent-1-first" else "b"
        with pytest.raises(UnknownString, match=f"^no observation recorded for {missing}$"):
            build_observation_graph(p)
        with pytest.raises(UnknownString, match=f"^no observation recorded for {missing}$"):
            solvable_by_enumeration(p, builtin_rule("conjunctive", 2))


class TestDecisionGraph:
    def test_conjunctive_graph(self):
        g = build_decision_graph(builtin_rule("conjunctive", 2))
        assert g.decisions == ("0", "1") and len(g) == 4
        assert edges_by_key(g) == {
            frozenset((("0", "0"), ("0", "1"))): frozenset({1}),
            frozenset((("0", "0"), ("1", "0"))): frozenset({0}),
            frozenset((("0", "1"), ("1", "1"))): frozenset({0}),
            frozenset((("1", "0"), ("1", "1"))): frozenset({1}),
            frozenset((("0", "0"), ("1", "1"))): frozenset({0, 1}),
            frozenset((("0", "1"), ("1", "0"))): frozenset({0, 1}),
        }
        greens = {g.keys[v] for v in range(len(g)) if g.colours[v] == 1}
        assert greens == {("1", "1")}

    def test_cpda_graph(self):
        g = build_decision_graph(builtin_rule("cpda", 2))
        assert len(g) == 6
        greens = {g.keys[v] for v in range(len(g)) if g.colours[v] == 1}
        assert greens == {("1", "1"), ("1", "dk"), ("dk", "1")}

    def test_const0_graph(self):
        g = build_decision_graph(builtin_rule("const0", 2))
        assert len(g) == 1 and g.colours == (0,)

    @pytest.mark.parametrize("name", BUILTIN_RULES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_empty_edges_between_distinct_nodes(self, name, n):
        g = build_decision_graph(builtin_rule(name, n))
        assert all(edge_colour(g, u, v) for u, v in pairs(g))

    def test_node_count_matches_domain(self):
        for name in BUILTIN_RULES:
            rule = builtin_rule(name, 2)
            assert len(build_decision_graph(rule)) == len(rule.domain)


class TestColoredGraph:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ColoredGraph(n=1, keys=(0,), signatures=(), colours=(0,))

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ValueError):
            ColoredGraph(n=1, keys=(0, 0), signatures=(("x",), ("y",)), colours=(0, 0))

    def test_rejects_bad_colours(self):
        with pytest.raises(ValueError):
            ColoredGraph(n=1, keys=(0,), signatures=(("x",),), colours=(2,))

    def test_names_the_first_signature_of_bad_arity(self):
        with pytest.raises(ValueError, match=r"^signature \('x',\) does not have arity 2$"):
            ColoredGraph(
                n=2, keys=(0, 1, 2), signatures=(("x", "y"), ("x",), ("y", "z", "w")), colours=(0, 1, 0)
            )

    def test_names_the_first_bad_colour(self):
        with pytest.raises(ValueError, match="^node colours must be 0 or 1, got 2$"):
            ColoredGraph(n=1, keys=(0, 1, 2), signatures=(("x",),) * 3, colours=(True, 2, -1))

    def test_rejects_zero_agents(self):
        with pytest.raises(ValueError, match="^agent count must be at least 1, got 0$"):
            ColoredGraph(n=0, keys=(("a",), ("b",)), signatures=((), ()), colours=(0, 1))

    def test_names_the_first_undeclared_decision(self):
        keys = (("0", "1"), ("1", "x"), ("y", "1"))
        with pytest.raises(ValueError, match="^signatures use 'x', which decisions does not declare$"):
            ColoredGraph(n=2, keys=keys, signatures=keys, colours=(0, 1, 1), decisions=["0", "1"])

    def test_decisions_are_a_tuple_that_the_quotient_keeps(self):
        g = ColoredGraph(
            n=1,
            keys=(("a",), ("b",), ("c",)),
            signatures=(("1",), ("1",), ("0",)),
            colours=(1, 1, 0),
            decisions=["1", "0"],
        )
        assert g.decisions == ("1", "0")
        assert len(g.quotient.graph) == 2 and g.quotient.graph.decisions == ("1", "0")


class TestQuotient:
    def test_identity_quotient(self, ex1):
        g = build_observation_graph(ex1)
        q = quotient_by_indistinguishability(g)
        assert q.graph == g
        assert q.class_of == (0, 1, 2, 3)

    @pytest.mark.parametrize("name", BUILTIN_RULES)
    def test_decision_graph_is_its_own_quotient(self, name):
        for n in range(1, 5):
            g = build_decision_graph(builtin_rule(name, n))
            q = quotient_by_indistinguishability(g)
            assert q.graph is g
            assert q.classes == tuple((v,) for v in range(len(g)))
            assert q.class_of == tuple(range(len(g)))

    def test_two_colours_keep_two_classes(self):
        p = ObservationProblem(
            n=1,
            alphabet=("a", "b"),
            L=(("a",), ("b",)),
            K=(("a",),),
            P=(Projection(frozenset()),),
        )
        q = quotient_by_indistinguishability(build_observation_graph(p))
        assert q.classes == ((0,), (1,))
        assert q.graph.signatures == (((),), ((),)) and q.graph.colours == (1, 0)

    def test_compatible_classes_merge(self):
        p = ObservationProblem(
            n=1,
            alphabet=("a", "b"),
            L=(("a",), ("b",)),
            K=(("a",), ("b",)),
            P=(Projection(frozenset()),),
        )
        q = quotient_by_indistinguishability(build_observation_graph(p))
        assert len(q.graph) == 1 and q.graph.colours == (1,)
        assert q.classes == ((0, 1),)

    def test_quotient_has_no_empty_edges_when_its_signatures_are_distinct(self):
        rng = random.Random(20)
        for _ in range(50):
            g = random_colored_graph(rng)
            q = quotient_by_indistinguishability(g)
            if len(set(q.graph.signatures)) == len(q.graph):
                assert all(edge_colour(q.graph, u, v) for u, v in pairs(q.graph))

    def test_inherited_edges_match_representatives(self):
        rng = random.Random(21)
        for _ in range(30):
            g = random_colored_graph(rng)
            q = quotient_by_indistinguishability(g)
            for u, v in pairs(g):
                cu, cv = q.class_of[u], q.class_of[v]
                if cu != cv:
                    assert edge_colour(q.graph, cu, cv) == edge_colour(g, u, v)


    def test_classes_are_uniform_and_distinct(self):
        rng = random.Random(22)
        shared_signatures = 0
        for _ in range(300):
            g = random_colored_graph(rng)
            q = quotient_by_indistinguishability(g)
            kinds = [(g.signatures[c[0]], g.colours[c[0]]) for c in q.classes]
            for c, kind in zip(q.classes, kinds):
                assert all((g.signatures[m], g.colours[m]) == kind for m in c)
            assert len(set(kinds)) == len(kinds)
            assert list(zip(q.graph.signatures, q.graph.colours)) == kinds
            shared_signatures += len({sig for sig, _ in kinds}) < len(kinds)
            assert sorted(m for c in q.classes for m in c) == list(range(len(g)))
            assert all(q.class_of[m] == ci for ci, c in enumerate(q.classes) for m in c)
        assert shared_signatures > 50

    def test_quotient_is_cached_per_graph(self):
        g = random_colored_graph(random.Random(23), min_nodes=6)
        assert g.quotient is g.quotient
        assert g.quotient == quotient_by_indistinguishability(g)


def restated_d2o(decisions, domain, outputs, encoding):
    """Alphabet, L, K and each agent's observable tokens of the d2o problem,
    restated from the two encodings' definitions (agents numbered from 1)."""
    n = len(domain[0])
    if encoding == "tagged":
        observable = [[f"{d}^{i}" for d in decisions] for i in range(1, n + 1)]

        def spell(combo):
            return tuple(f"{d}^{i}" for i, d in enumerate(combo, 1))

    else:
        observable = [[f"0_{i}", f"1_{i}"] for i in range(1, n + 1)]

        def spell(combo):
            return tuple(
                tok
                for i, d in enumerate(combo, 1)
                for tok in [f"0_{i}"] * decisions.index(d) + [f"1_{i}"]
            )

    strings = tuple(map(spell, domain))
    in_k = tuple(s for s, out in zip(strings, outputs) if out == 1)
    alphabet = tuple(tok for tokens in observable for tok in tokens)
    return alphabet, strings, in_k, [frozenset(tokens) for tokens in observable]


class TestD2O:
    @pytest.mark.parametrize("encoding", ["tagged", "unary"])
    @pytest.mark.parametrize(
        "name, n",
        [(name, n) for name in BUILTIN_RULES for n in range(1, 5)] + [("one decision", 2)],
    )
    def test_matches_the_encodings_definition_in_order(self, name, n, encoding):
        if name == "one decision":
            rule = FusionRule(n, ("x",), (("x",) * n,), (1,))
            definition = (rule.decisions, rule.domain, rule.outputs)
        else:
            rule = builtin_rule(name, n)
            definition = restated_builtin(name, n)
        alphabet, strings, in_k, observable = restated_d2o(*definition, encoding)
        problem = decision_graph_to_observation(rule, encoding)
        assert problem.alphabet == alphabet
        assert problem.L == strings
        assert problem.K == in_k
        assert [fn.observable for fn in problem.P] == observable
        assert rule.domain == definition[1]

    def test_unary_conjunctive_strings(self):
        problem = decision_graph_to_observation(builtin_rule("conjunctive", 2), "unary")
        assert set(problem.L) == {
            ("1_1", "1_2"),
            ("0_1", "1_1", "1_2"),
            ("1_1", "0_2", "1_2"),
            ("0_1", "1_1", "0_2", "1_2"),
        }
        assert problem.K == (("0_1", "1_1", "0_2", "1_2"),)
        assert problem.alphabet == ("0_1", "1_1", "0_2", "1_2")
        assert problem.P[0].observable == frozenset({"0_1", "1_1"})

    def test_tagged_conjunctive_strings(self):
        rule = builtin_rule("conjunctive", 2)
        problem = decision_graph_to_observation(rule, "tagged")
        assert problem.L[rule.domain.index(("1", "1"))] == ("1^1", "1^2")
        assert problem.P[0].observable == frozenset({"0^1", "1^1"})
        assert problem.K == (("1^1", "1^2"),)

    def test_const1_single_node_image(self):
        problem = decision_graph_to_observation(builtin_rule("const1", 1), "unary")
        # "1" sits at index 1 of the declared decision order ("0", "1").
        assert problem.L == (("0_1", "1_1"),)
        assert problem.K == problem.L

    def test_bijection_follows_domain_order(self):
        rule = builtin_rule("cpda", 2)
        problem = decision_graph_to_observation(rule, "unary")
        pairs = files.bijection_to_obj(rule, problem)
        assert [tuple(combo) for combo, _ in pairs] == list(rule.domain)
        assert [tuple(s) for _, s in pairs] == list(problem.L)

    def test_unknown_encoding(self):
        with pytest.raises(ValueError):
            decision_graph_to_observation(builtin_rule("conjunctive", 2), "binary")

    @pytest.mark.parametrize("name", BUILTIN_RULES)
    @pytest.mark.parametrize("encoding", ["tagged", "unary"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip_isomorphism(self, name, encoding, n):
        rule = builtin_rule(name, n)
        assert verify_d2o(decision_graph_to_observation(rule, encoding), rule)

    @pytest.mark.parametrize("agents", [1, 3])
    def test_verify_rejects_another_agent_count(self, agents):
        rule = builtin_rule("conjunctive", 2)
        problem = decision_graph_to_observation(rule, "unary")
        # The same strings, so only the agent count differs.
        other = dataclasses.replace(problem, n=agents, P=(problem.P * 2)[:agents])
        assert not verify_d2o(other, rule)

    def test_verify_rejects_another_observation_count(self):
        rule = builtin_rule("conjunctive", 2)
        problem = decision_graph_to_observation(rule, "unary")
        assert not verify_d2o(dataclasses.replace(problem, P=problem.P[:1]), rule)

    def test_verify_rejects_broken_node_colours(self):
        rule = builtin_rule("conjunctive", 2)
        problem = decision_graph_to_observation(rule, "unary")
        assert not verify_d2o(dataclasses.replace(problem, K=()), rule)

    @pytest.mark.parametrize(
        "defect", ["missing-combination", "repeated-string", "unknown-string"]
    )
    def test_verify_rejects_a_bijection_that_is_not_one(self, defect):
        # A combination listed twice cannot be built: pairing is by position
        # in the rule's domain, which holds each combination once.
        rule = builtin_rule("conjunctive", 2)
        problem = decision_graph_to_observation(rule, "unary")
        strings = list(problem.L)
        if defect == "missing-combination":
            strings.pop()
        elif defect == "repeated-string":
            strings[1] = strings[0]
        else:
            strings[1] = ("1_1",)
        assert not verify_d2o(dataclasses.replace(problem, L=tuple(strings)), rule)

    def test_verify_rejects_a_blinded_agent(self):
        rule = builtin_rule("conjunctive", 2)
        problem = decision_graph_to_observation(rule, "unary")
        # Agent 1 sees nothing, so its one label stands for both decisions.
        blinded = dataclasses.replace(problem, P=(Projection(frozenset()),) + problem.P[1:])
        assert not verify_d2o(blinded, rule)

    def test_verify_rejects_a_partial_table(self):
        rule = builtin_rule("conjunctive", 2)
        problem = decision_graph_to_observation(rule, "unary")

        def first_agent_table(strings):
            return ObservationTable(tuple((s, problem.P[0].observe(s)) for s in strings))

        for strings, expected in ((problem.L, True), (problem.L[1:], False)):
            observed = (first_agent_table(strings), problem.P[1])
            assert verify_d2o(dataclasses.replace(problem, P=observed), rule) is expected

    def test_verify_rejects_swapped_strings(self):
        rule = builtin_rule("conjunctive", 2)
        problem = decision_graph_to_observation(rule, "unary")
        # Swap the strings of two equally-coloured nodes with different tuples.
        strings = list(problem.L)
        a, b = rule.domain.index(("0", "0")), rule.domain.index(("0", "1"))
        strings[a], strings[b] = strings[b], strings[a]
        assert not verify_d2o(dataclasses.replace(problem, L=tuple(strings)), rule)

    @pytest.mark.parametrize("encoding", ["tagged", "unary"])
    def test_verify_matches_pairwise_edge_colours_on_perturbed_bijections(self, encoding):
        rng = random.Random(5)
        seen = {True: 0, False: 0}
        for name in BUILTIN_RULES:
            for n in (1, 2, 3):
                rule = builtin_rule(name, n)
                converted = decision_graph_to_observation(rule, encoding)
                dg = build_decision_graph(rule)
                # Blinding agent 1 merges its labels, which only the check
                # from the observation side back to the decisions can see.
                blinded = dataclasses.replace(
                    converted, P=(Projection(frozenset()),) + converted.P[1:]
                )
                for swaps, problem in itertools.product(range(4), (converted, blinded)):
                    strings = list(problem.L)
                    for _ in range(swaps):
                        a, b = rng.randrange(len(strings)), rng.randrange(len(strings))
                        strings[a], strings[b] = strings[b], strings[a]
                    perturbed = dataclasses.replace(problem, L=tuple(strings))
                    # Node k of both graphs is the k-th combination and string.
                    og = build_observation_graph(perturbed)
                    expected = dg.colours == og.colours and all(
                        edge_colour(dg, u, v) == edge_colour(og, u, v) for u, v in pairs(dg)
                    )
                    assert verify_d2o(perturbed, rule) == expected
                    seen[expected] += 1
        assert seen[True] > 0 and seen[False] > 0


class TestExportDot:
    def test_conjunctive_counts(self):
        text = export_dot(build_decision_graph(builtin_rule("conjunctive", 2)))
        lines = text.splitlines()
        assert sum("shape=" in l for l in lines) == 4
        assert sum(" -- " in l for l in lines) == 6
        assert text.count("doublecircle") == 1
        assert "style=dotted" in text and "style=dashed" in text

    def test_example_graph_counts(self, ex1):
        text = export_dot(build_observation_graph(ex1))
        assert sum("shape=" in l for l in text.splitlines()) == 4
        assert sum(" -- " in l for l in text.splitlines()) == 6
        assert text.count("doublecircle") == 1

    def test_empty_graph_is_header_only(self):
        g = ColoredGraph(n=1, keys=(), signatures=(), colours=())
        assert export_dot(g) == 'graph "G" {\n}\n'

    def test_empty_set_edges_are_distinguished(self):
        g = ColoredGraph(
            n=1, keys=("x", "y"), signatures=(("s",), ("s",)), colours=(0, 0)
        )
        text = export_dot(g)
        assert "∅" in text

    def test_epsilon_label_for_empty_string(self):
        p = ObservationProblem(
            n=1, alphabet=("a",), L=((), ("a",)), K=((),), P=(Projection(frozenset({"a"})),)
        )
        text = export_dot(build_observation_graph(p))
        assert 'label="ε"' in text

    def test_deterministic(self, ex1):
        g = build_observation_graph(ex1)
        assert export_dot(g) == export_dot(g)

    @staticmethod
    def _graphs():
        for name in BUILTIN_RULES:
            for n in range(1, 5):
                yield build_decision_graph(builtin_rule(name, n))
        rng = random.Random(31)
        for _ in range(60):
            yield random_colored_graph(rng)

    def test_edge_labels_match_the_pairwise_definition(self):
        edge = re.compile(r'  n(\d+) -- n(\d+) \[label="(∅|\{[\d,]+\})", style=(\w+)(, color=gray60)?\];')
        for g in self._graphs():
            lines = [l for l in export_dot(g).splitlines() if " -- " in l]
            parsed = [edge.fullmatch(l) for l in lines]
            assert all(parsed), lines
            assert [(int(m[1]), int(m[2])) for m in parsed] == list(pairs(g))
            for m in parsed:
                colour = edge_colour(g, int(m[1]), int(m[2]))
                if not colour:
                    assert (m[3], m[4], m[5]) == ("∅", "solid", ", color=gray60")
                    continue
                assert m[3] == "{" + ",".join(str(i + 1) for i in sorted(colour)) + "}"
                style = {frozenset({0}): "dotted", frozenset({1}): "dashed"}.get(colour, "solid")
                assert (m[4], m[5]) == (style, None)

    @pytest.mark.parametrize("kind", ["observation", "decision"])
    def test_backslashes_and_quotes_in_labels_are_escaped(self, kind):
        tokens = ("a\\", 'b"')
        if kind == "observation":
            p = ObservationProblem(
                n=1,
                alphabet=tokens,
                L=tuple((t,) for t in tokens),
                K=((tokens[0],),),
                P=(Projection(frozenset(tokens)),),
            )
            g, labels = build_observation_graph(p), list(tokens)
        else:
            rule = FusionRule(n=1, decisions=tokens, domain=tuple((t,) for t in tokens), outputs=(0, 1))
            g, labels = build_decision_graph(rule), [f"({t})" for t in tokens]
        # Each label is one DOT string that reads back as the node's text.
        quoted = re.findall(r'\[label="((?:[^"\\]|\\.)*)", shape=\w+\];', export_dot(g))
        assert [re.sub(r"\\(.)", r"\1", q) for q in quoted] == labels
