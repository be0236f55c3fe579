import signal

import pytest
from hypothesis import given, strategies as st

from decobs import (
    BUILTIN_RULES,
    ControllabilityViolation,
    ControlProblem,
    FusionRule,
    ObservationProblem,
    ObservationTable,
    Projection,
    UnknownRuleName,
    UnknownString,
    build_observation_graph,
    builtin_rule,
    controllability_witness,
    reduce_control,
    validate_problem,
)
from decobs.model import _clashes
from helpers import restated_builtin, rowwise_clashes


class TestObserve:
    def test_projection_keeps_observable_tokens(self):
        assert Projection(frozenset({"a"})).observe(("a", "b")) == ("a",)

    def test_projection_can_be_identity_on_a_string(self):
        assert Projection(frozenset({"b"})).observe(("b", "b")) == ("b", "b")

    def test_projection_of_empty_string(self):
        assert Projection(frozenset({"a"})).observe(()) == ()

    def test_table_lookup(self):
        table = ObservationTable(tuple({("a",): "x", (): "y"}.items()))
        assert table.observe(("a",)) == "x"
        assert table.observe(()) == "y"

    def test_table_unknown_string(self):
        table = ObservationTable(tuple({("a",): "x"}.items()))
        with pytest.raises(UnknownString):
            table.observe(("b",))

    @pytest.mark.parametrize(
        "s, message", [(("b",), "b"), (["a", "b"], "a b"), ((), "ε")], ids=["one", "list", "empty"]
    )
    def test_table_unknown_string_message(self, s, message):
        table = ObservationTable(tuple({("a",): "x"}.items()))
        with pytest.raises(UnknownString, match=f"^no observation recorded for {message}$"):
            table.observe(s)

    @given(
        st.lists(st.sampled_from("abcd"), max_size=6),
        st.frozensets(st.sampled_from("abcd")),
    )
    def test_projection_idempotent_and_contracting(self, tokens, observable):
        fn = Projection(observable)
        once = fn.observe(tuple(tokens))
        assert len(once) <= len(tokens)
        assert fn.observe(once) == once


class TestClashes:
    @pytest.mark.parametrize("changed", [False, True], ids=["function", "changed"])
    @given(keys=st.lists(st.sampled_from("abc"), max_size=8).map(tuple), data=st.data())
    def test_matches_a_loop(self, keys, data, changed):
        """Values drawn per key, so that keys repeat with equal values, then
        (when ``changed``) some of them redrawn, so that some may not."""
        of = data.draw(st.fixed_dictionaries({k: st.integers(0, 2) for k in "abc"}))
        redrawn = st.booleans() if changed else st.just(False)
        values = tuple(
            data.draw(st.integers(0, 2)) if data.draw(redrawn) else of[k] for k in keys
        )
        clashes = _clashes(keys, values)
        assert clashes == rowwise_clashes(keys, values)
        assert changed or clashes == []


def observation_tuple(p: ObservationProblem, s) -> tuple:
    """The signature of string s in the observation graph of p."""
    g = build_observation_graph(p)
    return g.signatures[g.keys.index(s)]


class TestObservationTuple:
    def test_example_values(self, ex1):
        assert observation_tuple(ex1, ("a", "b")) == (("a",), ("b",))
        assert observation_tuple(ex1, ("b",)) == ((), ("b",))

    def test_single_fully_observing_agent(self):
        p = ObservationProblem(
            n=1,
            alphabet=("a", "b"),
            L=(("a", "b"),),
            K=(("a", "b"),),
            P=(Projection(frozenset({"a", "b"})),),
        )
        assert observation_tuple(p, ("a", "b")) == (("a", "b"),)


class TestValidate:
    def test_example_problem_is_valid(self, ex1):
        assert validate_problem(ex1) == ()

    def test_k_not_subset_of_l(self):
        p = ObservationProblem(
            n=1,
            alphabet=("a", "c"),
            L=(("a",),),
            K=(("c",),),
            P=(Projection(frozenset({"a"})),),
        )
        violations = validate_problem(p)
        assert len(violations) == 1
        assert "K is not a subset of L" in violations[0]

    def test_partial_table_is_reported(self, ex1):
        table = ObservationTable(tuple({("a",): "1", ("b",): "2", ("a", "b"): "3"}.items()))
        p = ObservationProblem(n=2, alphabet=ex1.alphabet, L=ex1.L, K=ex1.K, P=(table, ex1.P[1]))
        violations = validate_problem(p)
        assert len(violations) == 1
        assert "P_1 table is partial on L" in violations[0]
        assert "b b" in violations[0]

    @pytest.mark.parametrize("reverse", [False, True], ids=["a-x-first", "a-y-first"])
    def test_table_mapping_one_string_to_two_labels_is_reported(self, reverse):
        # Neither order of the entries makes the table a function.
        entries = ((("a",), "x"), (("b",), "y"), (("a",), "y"))
        table = ObservationTable(entries[::-1] if reverse else entries)
        p = ObservationProblem(
            n=2,
            alphabet=("a", "b"),
            L=(("a",), ("b",)),
            K=(("a",),),
            P=(table, Projection(frozenset())),
        )
        assert validate_problem(p) == ("P_1 table maps a to two labels",)

    def test_each_string_with_two_labels_is_reported_once(self):
        table = ObservationTable(
            ((("a",), "x"), (("a",), "y"), (("a",), "z"), ((), "x"), ((), "y"))
        )
        p = ObservationProblem(
            n=1, alphabet=("a",), L=(("a",), ()), K=(), P=(table,)
        )
        assert validate_problem(p) == (
            "P_1 table maps a to two labels",
            "P_1 table maps ε to two labels",
        )

    def test_repeated_identical_table_entries_are_accepted(self):
        table = ObservationTable(((("a",), "x"), (("b",), "y"), (("a",), "x")))
        p = ObservationProblem(
            n=1, alphabet=("a", "b"), L=(("a",), ("b",)), K=(("a",),), P=(table,)
        )
        assert validate_problem(p) == ()

    def test_out_of_alphabet_tokens(self, ex1):
        p = ObservationProblem(n=2, alphabet=("a",), L=ex1.L, K=ex1.K, P=ex1.P)
        violations = validate_problem(p)
        assert any("outside the alphabet" in v for v in violations)

    def test_empty_token_and_wrong_agent_count(self):
        p = ObservationProblem(n=2, alphabet=("a", ""), L=(), K=(), P=(Projection(frozenset()),))
        violations = validate_problem(p)
        assert any("empty token" in v for v in violations)
        assert any("observation functions" in v for v in violations)

    def test_control_specific_checks(self, gamma_control):
        assert validate_problem(gamma_control) == ()
        bad = ControlProblem(
            n=2,
            alphabet=gamma_control.alphabet,
            controllable=(frozenset({"z"}),),
            L=gamma_control.L,
            K=gamma_control.K,
            P=gamma_control.P,
        )
        violations = validate_problem(bad)
        assert any("controllable alphabets" in v for v in violations)
        assert any("outside the alphabet" in v for v in violations)

    def test_every_defect_at_once_in_order(self):
        """Each whole-language check, once failed, still words every
        violation, in the order of the checks and then of the strings."""
        p = ControlProblem(
            n=0,
            alphabet=("a", "", "b", ""),
            controllable=(frozenset({"b", "z"}), frozenset({"y", "x"})),
            L=(("a",), ("a", "q"), ("b",), ("p", "q", "a")),
            K=(("b", "r"), ("c",), ("a",)),
            P=(
                ObservationTable(((("a",), "x"), (("b",), "y"))),
                ObservationTable(
                    (
                        (("a",), "x"), (("a", "q"), "u"), (("b",), "y"), (("p", "q", "a"), "w"),
                        (("b",), "z"), (("a",), "x"), (("a",), "v"),
                    )
                ),
                Projection(frozenset({"a"})),
            ),
        )
        assert validate_problem(p) == (
            "agent count must be at least 1, got 0",
            "expected 0 observation functions, got 3",
            "alphabet contains an empty token",
            "L string a q uses tokens outside the alphabet: q",
            "L string p q a uses tokens outside the alphabet: p, q",
            "K string b r uses tokens outside the alphabet: r",
            "K string c uses tokens outside the alphabet: c",
            "K is not a subset of L: b r, c",
            "P_1 table is partial on L: missing a q, p q a",
            "P_2 table maps b to two labels",
            "P_2 table maps a to two labels",
            "expected 0 controllable alphabets, got 2",
            "controllable alphabet of agent 1 contains tokens outside the alphabet: z",
            "controllable alphabet of agent 2 contains tokens outside the alphabet: x, y",
        )


def _controllable_by_definition(c: ControlProblem) -> bool:
    # Independent evaluation of the defining condition over all (s, u) pairs.
    sigma_u = set(c.alphabet) - set().union(*c.controllable) if c.controllable else set(c.alphabet)
    return all(
        s + (u,) in c.K_set
        for s in c.K
        for u in sigma_u
        if s + (u,) in c.L_set
    )


class TestControllability:
    def test_gamma_problem_is_controllable(self, gamma_control):
        assert _controllable_by_definition(gamma_control) is True
        assert controllability_witness(gamma_control) is None

    def test_uncontrollable_continuation_detected(self):
        c = ControlProblem(
            n=1,
            alphabet=("u",),
            controllable=(frozenset(),),
            L=((), ("u",)),
            K=((),),
            P=(Projection(frozenset()),),
        )
        s, u = controllability_witness(c)
        assert s + (u,) in c.L_set and s + (u,) not in c.K_set
        assert s in c.K_set

    def test_empty_uncontrollable_alphabet(self):
        c = ControlProblem(
            n=1,
            alphabet=("a",),
            controllable=(frozenset({"a"}),),
            L=((), ("a",)),
            K=((),),
            P=(Projection(frozenset({"a"})),),
        )
        assert c.sigma_u == ()
        assert controllability_witness(c) is None


class TestReduce:
    def test_gamma_reduction(self, gamma_control):
        family = reduce_control(gamma_control)
        assert [rp.event for rp in family] == ["γ"]
        reduced = family[0]
        assert reduced.agents == (0, 1)
        # Independent evaluation of the defining comprehensions.
        expected_l = tuple(
            s for s in gamma_control.K if s + ("γ",) in gamma_control.L_set
        )
        expected_k = tuple(
            s for s in gamma_control.K if s + ("γ",) in gamma_control.K_set
        )
        assert expected_l == (("a",), ("b",))
        assert expected_k == (("a",),)
        assert reduced.problem.L == expected_l
        assert reduced.problem.K == expected_k
        assert reduced.problem.n == 2

    def test_no_controllable_events(self, gamma_control):
        c = ControlProblem(
            n=2,
            alphabet=("a", "b"),
            controllable=(frozenset(), frozenset()),
            L=((), ("a",)),
            K=((), ("a",)),
            P=gamma_control.P,
        )
        assert len(reduce_control(c)) == 0

    def test_k_equal_l_forces_equal_languages(self, gamma_control):
        c = ControlProblem(
            n=2,
            alphabet=gamma_control.alphabet,
            controllable=gamma_control.controllable,
            L=gamma_control.K,
            K=gamma_control.K,
            P=gamma_control.P,
        )
        for reduced in reduce_control(c):
            assert reduced.problem.L == reduced.problem.K

    def test_languages_nest_inside_k(self, gamma_control):
        for reduced in reduce_control(gamma_control):
            k_sigma = set(reduced.problem.K)
            l_sigma = set(reduced.problem.L)
            assert k_sigma <= l_sigma <= gamma_control.K_set

    def test_violation_raises_unless_allowed(self):
        c = ControlProblem(
            n=1,
            alphabet=("u", "c"),
            controllable=(frozenset({"c"}),),
            L=((), ("u",), ("c",)),
            K=((), ("c",)),
            P=(Projection(frozenset({"c"})),),
        )
        with pytest.raises(ControllabilityViolation) as info:
            reduce_control(c)
        assert info.value.event == "u"
        family = reduce_control(c, allow_uncontrollable=True)
        assert [rp.event for rp in family] == ["c"]
        assert family[0].problem.L == ((),)
        assert family[0].problem.K == ((),)


class TestBuiltinRules:
    def test_names_in_order(self):
        assert BUILTIN_RULES == (
            "conjunctive", "disjunctive", "cpda", "conjunctive_cd", "const0", "const1"
        )

    @pytest.mark.parametrize("name", BUILTIN_RULES)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_its_definition_in_order(self, name, n):
        rule = builtin_rule(name, n)
        assert (rule.decisions, rule.domain, rule.outputs) == restated_builtin(name, n)

    @pytest.mark.parametrize("name", ["const0", "const1"])
    def test_constant_rules_do_not_enumerate_every_combination(self, name):
        def too_slow(signum, frame):
            raise TimeoutError(f"{name}:40 did not build within 5 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(5)
        try:
            rule = builtin_rule(name, 40)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert (rule.decisions, rule.domain, rule.outputs) == restated_builtin(name, 40)

    def test_conjunctive_outputs(self):
        rule = builtin_rule("conjunctive", 2)
        assert dict(zip(rule.domain, rule.outputs)) == {
            ("0", "0"): 0,
            ("0", "1"): 0,
            ("1", "0"): 0,
            ("1", "1"): 1,
        }

    def test_disjunctive_outputs(self):
        rule = builtin_rule("disjunctive", 2)
        assert [rule.output(c) for c in (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))] == [0, 1, 1, 1]

    def test_cpda_domain_and_outputs(self):
        rule = builtin_rule("cpda", 2)
        assert dict(zip(rule.domain, rule.outputs)) == {
            ("0", "0"): 0,
            ("0", "dk"): 0,
            ("dk", "0"): 0,
            ("1", "1"): 1,
            ("1", "dk"): 1,
            ("dk", "1"): 1,
        }

    def test_conjunctive_cd_allows_all_cd(self):
        rule = builtin_rule("conjunctive_cd", 2)
        assert len(rule.domain) == 7
        assert rule.output(("cd", "cd")) == 1
        assert rule.output(("1", "cd")) == 1
        assert rule.output(("0", "cd")) == 0
        assert ("0", "1") not in rule.domain
        with pytest.raises(KeyError):
            rule.output(("0", "1"))

    def test_constant_rules(self):
        zero = builtin_rule("const0", 2)
        one = builtin_rule("const1", 3)
        assert zero.domain == (("0", "0"),) and zero.outputs == (0,)
        assert one.domain == (("1", "1", "1"),) and one.outputs == (1,)

    def test_unknown_name(self):
        with pytest.raises(UnknownRuleName):
            builtin_rule("majority", 2)

    @pytest.mark.parametrize("name", BUILTIN_RULES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rules_are_total_and_distinct(self, name, n):
        rule = builtin_rule(name, n)
        assert rule.n == n
        assert len(set(rule.domain)) == len(rule.domain)
        assert len(rule.outputs) == len(rule.domain)
        for combo in rule.domain:
            assert len(combo) == n
            assert all(d in rule.decisions for d in combo)
            assert rule.output(combo) in (0, 1)


class TestFusionRuleValidation:
    def test_duplicate_domain_tuples(self):
        with pytest.raises(ValueError, match="duplicate"):
            FusionRule(1, ("0",), (("0",), ("0",)), (0, 0))

    def test_wrong_arity_tuple(self):
        with pytest.raises(ValueError, match="arity"):
            FusionRule(2, ("0",), (("0",),), (0,))

    def test_unparallel_outputs(self):
        with pytest.raises(ValueError, match="outputs"):
            FusionRule(1, ("0",), (("0",),), ())

    def test_unknown_decision_in_domain(self):
        with pytest.raises(ValueError, match="unknown decision"):
            FusionRule(1, ("0",), (("1",),), (0,))

    def test_output_values(self):
        with pytest.raises(ValueError, match="0 or 1"):
            FusionRule(1, ("0",), (("0",),), (2,))

    def test_output_outside_domain(self):
        rule = builtin_rule("cpda", 2)
        with pytest.raises(KeyError):
            rule.output(("0", "1"))


def test_languages_deduplicate_preserving_order():
    p = ObservationProblem(
        n=1,
        alphabet=("a", "b", "a"),
        L=(("a",), ("b",), ("a",)),
        K=(("a",),),
        P=(Projection(frozenset({"a"})),),
    )
    assert p.L == (("a",), ("b",))
    assert p.alphabet == ("a", "b")


def test_reduce_iterates_sigma_c_in_alphabet_order():
    p = ControlProblem(
        n=2,
        alphabet=("x", "y", "z"),
        controllable=(frozenset({"z"}), frozenset({"x", "z"})),
        L=((), ("x",), ("z",)),
        K=((), ("x",), ("z",)),
        P=(Projection(frozenset({"x"})), Projection(frozenset({"z"}))),
    )
    family = reduce_control(p)
    assert [rp.event for rp in family] == ["x", "z"]
    assert family[0].agents == (1,)
    assert family[1].agents == (0, 1)
    assert family[0].problem.n == 1
