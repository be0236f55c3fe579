"""The problem path against its row-wise restatement in helpers.py.

The library builds observation graphs, quotients, decision tables, morphism
checks and solution checks one agent column at a time; these tests compare each result
with a reference that walks one string, node or table entry at a time, over
random problems that mix projections and observation tables.
"""

import re

import pytest
from hypothesis import assume, given, strategies as st

from decobs import (
    BUILTIN_RULES,
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
    rowwise_edge_violations,
    rowwise_observation_graph,
    rowwise_quotient,
    rowwise_tables,
    rowwise_verify_solution,
)

TOKENS = ("a", "b", "c")
LABELS = ("x", "y", "z")


@st.composite
def problems(draw, max_strings: int = 8) -> ObservationProblem:
    """A valid problem over TOKENS: each agent observes by a projection or
    by a table total on L."""
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
    return None if found is None else (rule, extract_solution(found, p, rule))


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


class TestExtractSolution:
    @given(problems(), st.sampled_from(BUILTIN_RULES), st.data())
    def test_any_node_map(self, p, name, data):
        """Tables and their key order, or the message naming the first clash."""
        rule = builtin_rule(name, p.n)
        g, target = build_observation_graph(p), build_decision_graph(rule)
        mapping = data.draw(
            st.lists(st.integers(0, len(target) - 1), min_size=len(g), max_size=len(g))
        )
        m = Morphism(g, target, tuple(mapping))
        expected = rowwise_tables(m)
        if isinstance(expected, str):
            with pytest.raises(InconsistentMorphism, match=f"^{re.escape(expected)}$"):
                extract_solution(m, p, rule)
        else:
            assert _items(extract_solution(m, p, rule)) == _items(expected)

    @given(problems(), st.sampled_from(BUILTIN_RULES))
    def test_found_morphism(self, p, name):
        rule = builtin_rule(name, p.n)
        g = build_observation_graph(p)
        found = find_morphism(g, build_decision_graph(rule))
        assume(found is not None)
        assert _items(extract_solution(found, p, rule)) == _items(rowwise_tables(found))


class TestVerifyMorphism:
    @given(problems(), st.sampled_from(BUILTIN_RULES), st.data())
    def test_any_node_map(self, p, name, data):
        """The exact edge violations of any node map into a decision graph."""
        target = build_decision_graph(builtin_rule(name, p.n))
        g = build_observation_graph(p)
        mapping = data.draw(
            st.lists(st.integers(0, len(target) - 1), min_size=len(g), max_size=len(g))
        )
        m = Morphism(g, target, tuple(mapping))
        assert verify_morphism(m).edge_violations == rowwise_edge_violations(m)


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
