import itertools
import random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from decobs import (
    ArityMismatch,
    FusionRule,
    BUILTIN_RULES,
    SearchLimitExceeded,
    build_decision_graph,
    build_observation_graph,
    builtin_rule,
    compare,
    compose,
    decision_graph_to_observation,
    extract_solution,
    find_morphism,
    relation_matrix,
    solvable_by_enumeration,
    verify_morphism,
)
from decobs import files
from decobs.cli import main
from decobs.morphism import _search
from helpers import pairwise_poset, random_rule

_MIRROR = {
    "equivalent": "equivalent",
    "incomparable": "incomparable",
    "first_strictly_less": "first_strictly_more",
    "first_strictly_more": "first_strictly_less",
}

# The relation each pair (forward witness found, backward witness found) names.
_NAMED = {
    (True, True): "equivalent",
    (True, False): "first_strictly_less",
    (False, True): "first_strictly_more",
    (False, False): "incomparable",
}


class TestCompare:
    def test_conjunctive_vs_disjunctive_incomparable(self):
        verdict = compare(builtin_rule("conjunctive", 2), builtin_rule("disjunctive", 2))
        assert verdict.relation == "incomparable"
        assert verdict.witness_fwd is None and verdict.witness_bwd is None

    def test_cpda_strictly_below_conjunctive(self):
        verdict = compare(builtin_rule("cpda", 2), builtin_rule("conjunctive", 2))
        assert verdict.relation == "first_strictly_less"
        assert verify_morphism(verdict.witness_fwd)
        assert verdict.witness_bwd is None

    def test_conditional_variant_equivalent_to_conjunctive(self):
        verdict = compare(builtin_rule("conjunctive_cd", 2), builtin_rule("conjunctive", 2))
        assert verdict.relation == "equivalent"
        assert verify_morphism(verdict.witness_fwd)
        assert verify_morphism(verdict.witness_bwd)

    @pytest.mark.parametrize("name", BUILTIN_RULES)
    def test_reflexive(self, name):
        verdict = compare(builtin_rule(name, 2), builtin_rule(name, 2))
        assert verdict.relation == "equivalent"

    def test_mirror_consistency_over_builtins(self):
        rules = {name: builtin_rule(name, 2) for name in BUILTIN_RULES}
        for a, b in itertools.product(BUILTIN_RULES, repeat=2):
            fwd = compare(rules[a], rules[b]).relation
            bwd = compare(rules[b], rules[a]).relation
            assert fwd == _MIRROR[bwd]

    def test_transitivity_via_composition(self):
        cpda = builtin_rule("cpda", 2)
        conj = builtin_rule("conjunctive", 2)
        cd = builtin_rule("conjunctive_cd", 2)
        first = compare(cpda, conj).witness_fwd
        second = compare(conj, cd).witness_fwd
        assert first is not None and second is not None
        assert verify_morphism(compose(first, second))
        assert compare(cpda, cd).witness_fwd is not None

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            compare(builtin_rule("conjunctive", 2), builtin_rule("conjunctive", 3))


class TestCompareIsOneMatrixEntry:
    @pytest.mark.parametrize(
        "names", list(itertools.product(BUILTIN_RULES, repeat=2)), ids="-".join
    )
    def test_forward_then_backward_search(self, names):
        """Same witnesses, and the same budget outcome, as the two searches
        run one after the other."""
        first, second = (builtin_rule(name, 2) for name in names)
        g1, g2 = build_decision_graph(first), build_decision_graph(second)
        verdict = compare(first, second)
        assert verdict.witness_fwd == find_morphism(g1, g2)
        assert verdict.witness_bwd == find_morphism(g2, g1)
        for budget in range(12):  # every search here finishes within 9 expansions
            try:
                find_morphism(g1, g2, budget=budget)
                find_morphism(g2, g1, budget=budget)
                expected = None
            except SearchLimitExceeded as e:
                expected = str(e)
            try:
                compare(first, second, budget=budget)
                got = None
            except SearchLimitExceeded as e:
                got = str(e)
            assert got == expected, budget

    @pytest.mark.parametrize("n", range(2, 7))
    def test_witnesses_are_those_of_the_search_alone(self, n):
        """Every positive is read off the arc-consistency fixpoint, and its
        witness is the mapping the search finds, except const1 into
        disjunctive: there the min join fails and the max join maps the
        all-1 node to the last target, where the search picks the first
        target of colour 1."""
        rules = [builtin_rule(name, n) for name in BUILTIN_RULES]
        graphs = [build_decision_graph(r) for r in rules]
        verdicts = relation_matrix(rules).verdicts
        differ = []
        for i, j in itertools.permutations(range(len(rules)), 2):
            image = _search(graphs[i], graphs[j], None)
            witness = verdicts[i][j].witness_fwd
            if image is None:
                assert witness is None
            elif witness.mapping != tuple(image):
                assert verify_morphism(witness)
                differ.append((BUILTIN_RULES[i], BUILTIN_RULES[j]))
        assert differ == [("const1", "disjunctive")]

    @pytest.mark.parametrize("name", BUILTIN_RULES)
    def test_diagonal_is_the_identity_without_a_search(self, name):
        rule = builtin_rule(name, 3)
        verdict = relation_matrix([rule], budget=0).verdicts[0][0]
        assert verdict.witness_fwd.mapping == tuple(range(len(build_decision_graph(rule))))
        assert verify_morphism(verdict.witness_bwd)

    def test_arity_mismatch_names_both_counts(self):
        with pytest.raises(ArityMismatch, match="rule 1 has 2 agents, rule 2 has 3"):
            compare(builtin_rule("conjunctive", 2), builtin_rule("cpda", 3))


class TestConversionRecipes:
    """The per-agent tables of a forward witness convert each decision of the
    first rule into one of the second's."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_positive_builtin_pair(self, n):
        rules = {name: builtin_rule(name, n) for name in BUILTIN_RULES}
        positives = 0
        for (a, first), (b, second) in itertools.permutations(rules.items(), 2):
            witness = compare(first, second).witness_fwd
            if witness is None:
                continue
            positives += 1
            recipe = extract_solution(witness)
            allowed = dict(zip(second.domain, second.outputs))
            for combination, output in zip(first.domain, first.outputs):
                converted = tuple(map(dict.__getitem__, recipe, combination))
                assert allowed.get(converted) == output, (a, b, combination)
        assert positives == 13

    def test_cpda_into_conjunctive(self):
        verdict = compare(builtin_rule("cpda", 3), builtin_rule("conjunctive", 3))
        recipe = extract_solution(verdict.witness_fwd)
        assert [list(table.items()) for table in recipe] == [
            [("0", "0"), ("1", "1"), ("dk", "1")],
            [("0", "0"), ("dk", "1"), ("1", "1")],
            [("0", "0"), ("dk", "1"), ("1", "1")],
        ]


def _separating(tmp_path, first: str, second: str) -> dict:
    """Run ``compare FIRST SECOND --separating`` and load the problems it
    wrote, keyed by tag."""
    prefix = tmp_path / "sep"
    result = CliRunner().invoke(main, ["compare", first, second, "--separating", str(prefix)])
    assert result.exit_code == 0, result.output
    written = {}
    for tag in ("first_not_second", "second_not_first"):
        path = tmp_path / f"sep_{tag}.json"
        if path.exists():
            written[tag] = files.parse_problem(files.read_json(path))
    return written


class TestSeparatingProblem:
    def test_conjunctive_not_disjunctive(self, tmp_path):
        conj = builtin_rule("conjunctive", 2)
        disj = builtin_rule("disjunctive", 2)
        problem = _separating(tmp_path, "conjunctive:2", "disjunctive:2")["first_not_second"]
        assert problem == decision_graph_to_observation(conj)
        graph = build_observation_graph(problem)
        # Solvable with the first rule, refuted for the second, via both the
        # search and the exhaustive table oracle.
        assert find_morphism(graph, build_decision_graph(conj)) is not None
        assert find_morphism(graph, build_decision_graph(disj)) is None
        assert solvable_by_enumeration(problem, conj) is True
        assert solvable_by_enumeration(problem, disj) is False

    def test_mirrored_pair(self, tmp_path):
        conj = builtin_rule("conjunctive", 2)
        disj = builtin_rule("disjunctive", 2)
        written = _separating(tmp_path, "conjunctive:2", "disjunctive:2")
        problem = written["second_not_first"]
        assert problem == decision_graph_to_observation(disj)
        assert solvable_by_enumeration(problem, disj) is True
        assert solvable_by_enumeration(problem, conj) is False

    def test_none_when_second_rule_subsumes(self, tmp_path):
        written = _separating(tmp_path, "cpda:2", "conjunctive:2")
        assert "first_not_second" not in written
        problem = written["second_not_first"]
        assert solvable_by_enumeration(problem, builtin_rule("conjunctive", 2)) is True
        assert solvable_by_enumeration(problem, builtin_rule("cpda", 2)) is False

    def test_tagged_encoding_also_separates(self):
        conj = builtin_rule("conjunctive", 2)
        disj = builtin_rule("disjunctive", 2)
        problem = decision_graph_to_observation(conj, "tagged")
        assert solvable_by_enumeration(problem, conj) is True
        assert solvable_by_enumeration(problem, disj) is False

    @pytest.mark.parametrize("first, second", itertools.permutations(BUILTIN_RULES, 2))
    def test_written_exactly_when_a_witness_is_missing(self, tmp_path, first, second):
        rules = {"first": builtin_rule(first, 2), "second": builtin_rule(second, 2)}
        verdict = compare(rules["first"], rules["second"])
        written = _separating(tmp_path, f"{first}:2", f"{second}:2")
        expected = {
            "first_not_second": verdict.witness_fwd is None,
            "second_not_first": verdict.witness_bwd is None,
        }
        assert {tag: tag in written for tag in expected} == expected
        for tag, problem in written.items():
            donor, other = tag.split("_not_")
            assert solvable_by_enumeration(problem, rules[donor]) is True
            assert solvable_by_enumeration(problem, rules[other]) is False


class TestRelationMatrix:
    def test_three_rule_poset(self):
        rules = [
            builtin_rule("conjunctive", 2),
            builtin_rule("disjunctive", 2),
            builtin_rule("cpda", 2),
        ]
        matrix = relation_matrix(rules)
        relations = [[v.relation for v in row] for row in matrix.verdicts]
        assert relations[0][0] == relations[1][1] == relations[2][2] == "equivalent"
        assert relations[0][1] == "incomparable"
        assert relations[2][0] == "first_strictly_less"
        assert relations[2][1] == "first_strictly_less"
        for i in range(3):
            for j in range(3):
                assert relations[i][j] == _MIRROR[relations[j][i]]
        assert matrix.classes == ((0,), (1,), (2,))
        assert set(matrix.hasse) == {(2, 0), (2, 1)}

    def test_singleton(self):
        matrix = relation_matrix([builtin_rule("cpda", 2)])
        assert matrix.verdicts[0][0].relation == "equivalent"
        assert matrix.classes == ((0,),) and matrix.hasse == ()

    def test_equivalent_rules_share_a_class(self):
        matrix = relation_matrix(
            [builtin_rule("conjunctive", 2), builtin_rule("conjunctive_cd", 2)]
        )
        assert matrix.classes == ((0, 1),)
        assert matrix.hasse == ()

    def test_hasse_skips_transitive_edges(self):
        rules = [
            builtin_rule("const1", 2),
            builtin_rule("cpda", 2),
            builtin_rule("conjunctive", 2),
        ]
        matrix = relation_matrix(rules)
        # const1 < cpda < conjunctive, so the const1 < conjunctive edge is implied.
        assert set(matrix.hasse) == {(0, 1), (1, 2)}

    def test_requires_rules(self):
        with pytest.raises(ValueError):
            relation_matrix([])

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            relation_matrix([builtin_rule("cpda", 2), builtin_rule("cpda", 3)])


def _shuffled_with_repeats(rng, rules):
    """The rules in a random order, with one to three of them repeated."""
    chosen = list(rules) + [rng.choice(rules) for _ in range(rng.randint(1, 3))]
    rng.shuffle(chosen)
    return chosen


class TestOrderAgainstPairwiseReference:
    """Classes and covers read off the rows of the matrix, against the
    pair-by-pair class scan and cover filter of ``helpers.pairwise_poset``;
    each verdict's relation against the witnesses it holds."""

    @staticmethod
    def _check(rules):
        matrix = relation_matrix(rules)
        at_most = [[v.witness_fwd is not None for v in row] for row in matrix.verdicts]
        assert (matrix.classes, matrix.hasse) == pairwise_poset(at_most)
        for i, row in enumerate(matrix.verdicts):
            for j, verdict in enumerate(row):
                found = (verdict.witness_fwd is not None, verdict.witness_bwd is not None)
                assert verdict.relation == _NAMED[found]
                assert verdict.relation == _MIRROR[matrix.verdicts[j][i].relation]
        return matrix

    @pytest.mark.parametrize("n", range(1, 7))
    def test_builtins_in_shuffled_orders_with_repeats(self, n):
        rules = [builtin_rule(name, n) for name in BUILTIN_RULES]
        self._check(rules)
        rng = random.Random(n)
        for _ in range(3):
            self._check(_shuffled_with_repeats(rng, rules))

    def test_random_rules(self):
        rng = random.Random(21)
        merged = covers = 0
        for _ in range(40):
            rules = [random_rule(rng, 2, rng.randint(2, 3)) for _ in range(rng.randint(3, 6))]
            matrix = self._check(rules)
            merged += len(matrix.classes) < len(rules)
            covers += len(matrix.hasse)
        assert merged > 0 and covers > 0


@st.composite
def small_rules(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    decisions = tuple(draw(st.sampled_from([("0", "1"), ("0", "1", "x")])))
    combos = list(itertools.product(decisions, repeat=n))
    chosen = draw(
        st.lists(st.sampled_from(combos), min_size=0, max_size=len(combos), unique=True)
    )
    outputs = tuple(draw(st.integers(min_value=0, max_value=1)) for _ in chosen)
    return FusionRule(n, decisions, tuple(chosen), outputs)


@settings(max_examples=40, deadline=None)
@given(small_rules(), small_rules())
def test_random_rules_mirror_and_reflexivity(first, second):
    assert compare(first, first).relation == "equivalent"
    if first.n == second.n:
        fwd = compare(first, second).relation
        bwd = compare(second, first).relation
        assert fwd == _MIRROR[bwd]


@settings(max_examples=40, deadline=None)
@given(small_rules())
def test_every_rule_is_at_least_as_permissive_as_an_empty_domain_rule(rule):
    none = FusionRule(rule.n, ("0", "1"), (), ())
    verdict = compare(none, rule)
    assert verdict.witness_fwd is not None and verify_morphism(verdict.witness_fwd)
    assert verdict.relation == ("equivalent" if not rule.domain else "first_strictly_less")
