"""The problem path against its row-wise restatement in helpers.py.

The library builds observation graphs, quotients, decision tables, morphism
checks and solution checks one agent column at a time; these tests compare each result
with a reference that walks one string, node or table entry at a time, over
random problems that mix projections and observation tables.
"""

import random
import re

import pytest
from hypothesis import assume, given, strategies as st

from decobs import (
    BUILTIN_RULES,
    FusionRule,
    InconsistentMorphism,
    Morphism,
    ObservationProblem,
    ObservationTable,
    Projection,
    build_decision_graph,
    build_observation_graph,
    builtin_rule,
    extract_solution,
    find_morphism,
    quotient_by_indistinguishability,
    verify_morphism,
    verify_solution,
)
from helpers import (
    random_colored_graph,
    rowwise_edge_violations,
    rowwise_observation_graph,
    rowwise_quotient,
    rowwise_tables,
    rowwise_verify_solution,
)

TOKENS = ("a", "b", "c")
LABELS = ("x", "y", "z")


@st.composite
def problems(draw, max_strings: int = 8, n: int | None = None) -> ObservationProblem:
    """A valid problem over TOKENS, of n agents or of one to three: each
    agent observes by a projection or by a table total on L."""
    if n is None:
        n = draw(st.integers(1, 3))
    strings = draw(
        st.lists(
            st.lists(st.sampled_from(TOKENS), max_size=3).map(tuple),
            unique=True,
            max_size=max_strings,
        )
    )
    in_k = draw(st.lists(st.booleans(), min_size=len(strings), max_size=len(strings)))
    functions = []
    for _ in range(n):
        if draw(st.booleans()):
            functions.append(Projection(frozenset(draw(st.sets(st.sampled_from(TOKENS))))))
        else:
            labels = draw(
                st.lists(st.sampled_from(LABELS), min_size=len(strings), max_size=len(strings))
            )
            functions.append(ObservationTable(tuple(zip(strings, labels))))
    return ObservationProblem(
        n=n,
        alphabet=TOKENS,
        L=tuple(strings),
        K=tuple(s for s, inside in zip(strings, in_k) if inside),
        P=tuple(functions),
    )


def _items(tables) -> list[list[tuple]]:
    """Table contents with their key order."""
    return [list(table.items()) for table in tables]


def _solved(p: ObservationProblem, name: str):
    """The rule and the extracted solution, or None when p is unsolvable."""
    rule = builtin_rule(name, p.n)
    found = find_morphism(build_observation_graph(p), build_decision_graph(rule))
    return None if found is None else (rule, extract_solution(found))


class TestGraphAndQuotient:
    @given(problems())
    def test_observation_graph(self, p):
        g = build_observation_graph(p)
        signatures, colours = rowwise_observation_graph(p)
        assert g.keys == p.L
        assert g.signatures == signatures
        assert g.colours == colours
        assert all(type(c) is int for c in g.colours)

    @given(problems(max_strings=12))
    def test_quotient(self, p):
        g = build_observation_graph(p)
        q = quotient_by_indistinguishability(g)
        classes, class_of = rowwise_quotient(g)
        assert q.classes == classes
        assert q.class_of == class_of
        assert q.graph.keys == tuple(g.keys[members[0]] for members in classes)


def _assert_label_indexes(g) -> None:
    """A graph's columns, label buckets, label masks and colour masks
    against a restatement of their definitions, one node at a time."""
    nodes = range(len(g))
    assert g.columns == tuple(tuple(sig[i] for sig in g.signatures) for i in range(g.n) if nodes)
    for i, (buckets, masks) in enumerate(zip(g.label_buckets, g.label_masks)):
        labels = list(dict.fromkeys(sig[i] for sig in g.signatures))
        assert list(buckets) == labels
        assert list(masks) == labels
        for label in labels:
            carriers = [v for v in nodes if g.signatures[v][i] == label]
            assert buckets[label] == carriers
            assert masks[label] == sum(2**v for v in carriers)
    zeros, ones = g.colour_masks
    assert zeros == sum(2**v for v in nodes if g.colours[v] == 0)
    assert ones == sum(2**v for v in nodes if g.colours[v] == 1)


class TestLabelIndexes:
    @given(problems(max_strings=12))
    def test_observation_graphs(self, p):
        _assert_label_indexes(build_observation_graph(p))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", BUILTIN_RULES)
    def test_decision_graphs(self, name, n):
        _assert_label_indexes(build_decision_graph(builtin_rule(name, n)))

    def test_a_graph_without_nodes_has_no_index_per_agent(self):
        g = build_decision_graph(FusionRule(10**5, ("0", "1"), (), ()))
        assert g.columns == g.label_buckets == g.label_masks == ()


def _any_node_map(p: ObservationProblem, data) -> Morphism:
    """Any node map from the observation graph of p into a builtin rule's
    decision graph or into another problem's observation graph, both of
    p's agent count."""
    if data.draw(st.booleans()):
        rule = builtin_rule(data.draw(st.sampled_from(BUILTIN_RULES)), p.n)
        target = build_decision_graph(rule)
    else:
        target = build_observation_graph(data.draw(problems(n=p.n)))
    g = build_observation_graph(p)
    assume(len(target) or not len(g))
    mapping = data.draw(
        st.lists(st.integers(0, max(len(target) - 1, 0)), min_size=len(g), max_size=len(g))
    )
    return Morphism(g, target, tuple(mapping))


def _assert_tables(m: Morphism) -> None:
    """Tables and their key order, or the message naming the first clash."""
    expected = rowwise_tables(m)
    if isinstance(expected, str):
        with pytest.raises(InconsistentMorphism, match=f"^{re.escape(expected)}$"):
            extract_solution(m)
    else:
        assert _items(extract_solution(m)) == _items(expected)


class TestExtractSolution:
    @given(problems(), st.data())
    def test_any_node_map(self, p, data):
        _assert_tables(_any_node_map(p, data))

    @given(problems(), st.sampled_from(BUILTIN_RULES))
    def test_found_morphism(self, p, name):
        rule = builtin_rule(name, p.n)
        g = build_observation_graph(p)
        found = find_morphism(g, build_decision_graph(rule))
        assume(found is not None)
        assert _items(extract_solution(found)) == _items(rowwise_tables(found))

    def test_generic_graphs(self):
        """The same on random node maps between ``random_colored_graph``
        graphs of one agent count: generic keys, repeated signatures."""
        rng = random.Random(5)
        for _ in range(300):
            src = random_colored_graph(rng, max_agents=2)
            dst = random_colored_graph(rng, max_agents=2)
            while dst.n != src.n:
                dst = random_colored_graph(rng, max_agents=2)
            m = Morphism(src, dst, tuple(rng.randrange(len(dst)) for _ in range(len(src))))
            _assert_tables(m)


class TestVerifyMorphism:
    @given(problems(), st.data())
    def test_any_node_map(self, p, data):
        """Any node map into a decision or observation graph is a morphism
        exactly when it has no edge violation and keeps every colour."""
        m = _any_node_map(p, data)
        colours_kept = all(
            m.source.colours[v] == m.target.colours[t] for v, t in enumerate(m.mapping)
        )
        assert verify_morphism(m) is (not rowwise_edge_violations(m) and colours_kept)


class TestVerifySolution:
    @given(problems(), st.sampled_from(BUILTIN_RULES), st.data())
    def test_any_tables(self, p, name, data):
        rule = builtin_rule(name, p.n)
        signatures, _ = rowwise_observation_graph(p)
        agents = data.draw(st.integers(max(p.n - 1, 0), p.n + 1))
        tables = []
        for i in range(agents):
            labels = dict.fromkeys(sig[i] for sig in signatures) if i < p.n else {"x": None}
            tables.append(
                {
                    label: data.draw(st.sampled_from(rule.decisions))
                    for label in labels
                    if data.draw(st.integers(0, 9))  # about one label in ten left out
                }
            )
        sol = tuple(tables)
        assert verify_solution(p, sol, rule) == rowwise_verify_solution(p, sol, rule)

    @given(problems(), st.sampled_from(BUILTIN_RULES), st.booleans())
    def test_wrong_agent_count(self, p, name, extra):
        solved = _solved(p, name)
        assume(solved is not None)
        rule, sol = solved
        tables = sol + ({},) if extra else sol[:-1]
        assert verify_solution(p, sol, rule)
        assert not verify_solution(p, tables, rule)
        assert not rowwise_verify_solution(p, tables, rule)

    @given(problems(), st.sampled_from(BUILTIN_RULES), st.data())
    def test_missing_table_entry(self, p, name, data):
        solved = _solved(p, name)
        assume(solved is not None and p.L)
        rule, sol = solved
        i = data.draw(st.integers(0, p.n - 1))
        label = data.draw(st.sampled_from(list(sol[i])))
        tables = list(sol)
        tables[i] = {k: d for k, d in tables[i].items() if k != label}
        assert not verify_solution(p, tuple(tables), rule)
        assert not rowwise_verify_solution(p, tuple(tables), rule)

    @pytest.mark.parametrize(
        "defect, names",
        [
            ("outside the domain", ("cpda", "conjunctive_cd", "const0", "const1")),
            ("wrong fused colour", ("conjunctive", "disjunctive", "cpda", "conjunctive_cd")),
        ],
        ids=["outside-domain", "wrong-colour"],
    )
    @given(p=problems(), data=st.data())
    def test_one_changed_decision(self, p, data, defect, names):
        """One table entry changed so that some string's combination leaves
        the rule's domain (only rules that disallow some combination), or so
        that every combination stays allowed but some string fuses to the
        wrong colour."""
        solved = _solved(p, data.draw(st.sampled_from(names)))
        assume(solved is not None)
        rule, sol = solved
        signatures, colours = rowwise_observation_graph(p)
        fused = dict(zip(rule.domain, rule.outputs))

        def changed(i, label, decision):
            tables = list(sol)
            tables[i] = {**tables[i], label: decision}
            return tables

        def combos(tables):
            return [tuple(t[l] for t, l in zip(tables, sig)) for sig in signatures]

        candidates = []
        for i, table in enumerate(sol):
            for label, old in table.items():
                for decision in rule.decisions:
                    if decision == old:
                        continue
                    after = combos(changed(i, label, decision))
                    outside = any(c not in fused for c in after)
                    wrong = not outside and any(
                        fused[c] != colour for c, colour in zip(after, colours)
                    )
                    if (outside, wrong) == (defect == "outside the domain", defect != "outside the domain"):
                        candidates.append((i, label, decision))
        assume(candidates)
        broken = tuple(changed(*data.draw(st.sampled_from(candidates))))
        assert not verify_solution(p, broken, rule)
        assert not rowwise_verify_solution(p, broken, rule)
