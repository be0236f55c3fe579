import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decobs import (
    ColoredGraph,
    ControlProblem,
    FileFormatError,
    Morphism,
    ObservationProblem,
    ObservationTable,
    Projection,
    build_decision_graph,
    build_observation_graph,
    builtin_rule,
    decision_graph_to_observation,
    extract_solution,
    find_morphism,
)
from decobs import files


class TestProblemFiles:
    def test_observation_round_trip(self, ex1, tmp_path):
        path = tmp_path / "p.json"
        files.dump_json(files.problem_to_obj(ex1), path)
        assert files.parse_problem(files.read_json(path)) == ex1

    def test_table_round_trip(self, tmp_path):
        p = ObservationProblem(
            n=1,
            alphabet=("a",),
            L=((), ("a",)),
            K=(("a",),),
            P=(ObservationTable(tuple({(): "quiet", ("a",): "loud"}.items())),),
        )
        path = tmp_path / "p.json"
        files.dump_json(files.problem_to_obj(p), path)
        assert files.parse_problem(files.read_json(path)) == p

    def test_control_round_trip(self, gamma_control, tmp_path):
        path = tmp_path / "c.json"
        files.dump_json(files.problem_to_obj(gamma_control), path)
        loaded = files.parse_problem(files.read_json(path))
        assert isinstance(loaded, ControlProblem)
        assert loaded == gamma_control

    def test_epsilon_serializes_as_empty_array(self, gamma_control):
        obj = files.problem_to_obj(gamma_control)
        assert [] in obj["L"]

    def test_rejects_unknown_type(self):
        with pytest.raises(FileFormatError, match="type"):
            files.parse_problem({"type": "mystery"})

    def test_rejects_non_array_language(self):
        with pytest.raises(FileFormatError):
            files.parse_problem(
                {
                    "type": "observation",
                    "agents": 1,
                    "alphabet": ["a"],
                    "L": "abba",
                    "K": [],
                    "observations": [],
                }
            )

    def test_rejects_bad_observation_kind(self):
        with pytest.raises(FileFormatError, match="kind"):
            files.parse_problem(
                {
                    "type": "observation",
                    "agents": 1,
                    "alphabet": ["a"],
                    "L": [],
                    "K": [],
                    "observations": [{"kind": "psychic"}],
                }
            )

    @pytest.mark.parametrize(
        "language, message",
        [
            ([["a"], "b"], "L: a string must be an array of token texts, got 'b'"),
            ([["a"], ["a", 1], [2]], "L: a string must be an array of token texts, got ['a', 1]"),
            ([["a"], {"a": 1}], "L: a string must be an array of token texts, got {'a': 1}"),
        ],
    )
    def test_bad_string_is_named_in_order(self, language, message):
        obj = {"type": "observation", "agents": 1, "alphabet": ["a"], "L": language}
        with pytest.raises(FileFormatError) as raised:
            files.parse_problem(obj)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([[["a"], "x"], "oops"], "table entries must be [string, label] pairs"),
            ([[["a"], "x"], [["a"], "x", "y"]], "table entries must be [string, label] pairs"),
            ([[["a", 1], "x"], [["a"], 2]], "a string must be an array of token texts, got ['a', 1]"),
            ([[["a"], 2], [["a", 1], "x"]], "table labels must be text"),
            ([[["a"], "x"], ["a", "y"]], "a string must be an array of token texts, got 'a'"),
        ],
    )
    def test_first_bad_table_entry_decides_the_message(self, entries, message):
        obj = {
            "type": "observation",
            "agents": 1,
            "alphabet": ["a"],
            "L": [["a"]],
            "K": [],
            "observations": [{"kind": "table", "map": entries}],
        }
        with pytest.raises(FileFormatError) as raised:
            files.parse_problem(obj)
        assert str(raised.value) == f"observations[0]: {message}"

    @pytest.mark.parametrize(
        "controllable, message",
        [
            ("γ", "controllable: expected an array of strings"),
            ([["γ"], "γ", [1]], "controllable: a string must be an array of token texts, got 'γ'"),
        ],
    )
    def test_first_bad_controllable_entry_decides_the_message(
        self, gamma_control, controllable, message
    ):
        obj = dict(files.problem_to_obj(gamma_control), controllable=controllable)
        with pytest.raises(FileFormatError) as raised:
            files.parse_problem(obj)
        assert str(raised.value) == message

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all {")
        with pytest.raises(FileFormatError, match="not valid JSON"):
            files.parse_problem(files.read_json(path))

    @pytest.mark.parametrize(
        "data",
        [
            '{"type": "observation", "alphabet": ["é"]}'.encode("latin-1"),
            b"[" * 200_000 + b"]" * 200_000,
        ],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_unreadable_json(self, tmp_path, data):
        path = tmp_path / "p.json"
        path.write_bytes(data)
        with pytest.raises(FileFormatError, match="not valid JSON"):
            files.parse_problem(files.read_json(path))


class TestRuleFiles:
    def test_round_trip(self, tmp_path):
        rule = builtin_rule("cpda", 2)
        path = tmp_path / "r.json"
        files.dump_json(files.rule_to_obj(rule), path)
        assert files.parse_rule(files.read_json(path)) == rule

    def test_fields_are_exact(self):
        obj = files.rule_to_obj(builtin_rule("conjunctive", 2))
        assert set(obj) == {"type", "agents", "decisions", "domain", "output"}
        extra = dict(obj, comment="hello")
        with pytest.raises(FileFormatError, match="exactly"):
            files.parse_rule(extra)
        missing = {k: v for k, v in obj.items() if k != "output"}
        with pytest.raises(FileFormatError, match="exactly"):
            files.parse_rule(missing)

    def test_semantic_errors_become_format_errors(self):
        obj = files.rule_to_obj(builtin_rule("conjunctive", 2))
        obj["domain"] = obj["domain"] + [obj["domain"][0]]
        obj["output"] = obj["output"] + [0]
        with pytest.raises(FileFormatError, match="duplicate"):
            files.parse_rule(obj)

    @pytest.mark.parametrize(
        "domain, message",
        [
            ({"0": 1}, "domain: expected an array of strings"),
            ([["0"], ["1", 0], "1"], "domain: a string must be an array of token texts, got ['1', 0]"),
        ],
    )
    def test_first_bad_domain_entry_decides_the_message(self, domain, message):
        obj = dict(files.rule_to_obj(builtin_rule("conjunctive", 1)), domain=domain)
        with pytest.raises(FileFormatError) as raised:
            files.parse_rule(obj)
        assert str(raised.value) == message

    def test_output_must_be_binary(self):
        obj = files.rule_to_obj(builtin_rule("conjunctive", 2))
        obj["output"] = [2] * len(obj["output"])
        with pytest.raises(FileFormatError):
            files.parse_rule(obj)

    def test_output_rejects_booleans(self):
        obj = files.rule_to_obj(builtin_rule("conjunctive", 1))
        obj["output"] = [False, True]
        with pytest.raises(FileFormatError, match="'output'"):
            files.parse_rule(obj)


class TestMorphismFiles:
    def test_round_trip(self, ex1, tmp_path):
        source = build_observation_graph(ex1)
        target = build_decision_graph(builtin_rule("conjunctive", 2))
        m = find_morphism(source, target)
        path = tmp_path / "m.json"
        files.dump_json(files.morphism_to_obj(m), path)
        loaded = files.load_morphism(path, source, target)
        assert loaded.mapping == m.mapping

    def test_string_keys_are_joined_text(self, ex1):
        source = build_observation_graph(ex1)
        target = build_decision_graph(builtin_rule("conjunctive", 2))
        m = find_morphism(source, target)
        obj = files.morphism_to_obj(m)
        assert ["ab", ["0", "1"]] in obj

    def test_pairs_must_cover_every_node(self, ex1):
        source = build_observation_graph(ex1)
        target = build_decision_graph(builtin_rule("conjunctive", 2))
        obj = [["a", ["0", "0"]]]
        with pytest.raises(FileFormatError, match="cover"):
            files.parse_morphism(obj, source, target)

    def test_unknown_keys_are_rejected(self, ex1):
        source = build_observation_graph(ex1)
        target = build_decision_graph(builtin_rule("conjunctive", 2))
        obj = [["zz", ["0", "0"]]]
        with pytest.raises(FileFormatError, match="unknown source node"):
            files.parse_morphism(obj, source, target)

    def test_ambiguous_joined_keys_are_rejected(self):
        p = ObservationProblem(
            n=1,
            alphabet=("a", "b", "ab"),
            L=(("a", "b"), ("ab",)),
            K=(),
            P=(Projection(frozenset({"a"})),),
        )
        g = build_observation_graph(p)
        m = Morphism(g, g, (0, 1))
        with pytest.raises(FileFormatError, match="ambiguous"):
            files.morphism_to_obj(m)

    @pytest.mark.parametrize("source_kind", ["generic", "ambiguous"])
    def test_ambiguous_target_keys_are_rejected(self, source_kind):
        """``a b`` and ``ab`` both read "ab" (``b a`` and ``ba`` "ba"): a
        target is vetted like a source, and the source is named first."""

        def ambiguous_graph(left, right):
            return build_observation_graph(
                ObservationProblem(
                    n=1,
                    alphabet=(left, right, left + right),
                    L=((left, right), (left + right,)),
                    K=(),
                    P=(Projection(frozenset()),),
                )
            )

        target = ambiguous_graph("a", "b")
        if source_kind == "generic":
            source, named = ColoredGraph(n=1, keys=("x",), signatures=(((),),), colours=(0,)), "ab"
        else:
            source, named = ambiguous_graph("b", "a"), "ba"
        m = Morphism(source, target, (1,) * len(source))
        message = f"^node keys are ambiguous: '{named}' names two different nodes$"
        with pytest.raises(FileFormatError, match=message):
            files.morphism_to_obj(m)

    def test_generic_graphs_use_raw_keys(self):
        g = ColoredGraph(n=1, keys=(0, 1), signatures=(("x",), ("y",)), colours=(0, 0))
        m = Morphism(g, g, (0, 1))
        obj = files.morphism_to_obj(m)
        assert obj == [[0, 0], [1, 1]]
        assert files.parse_morphism(obj, g, g).mapping == (0, 1)


class TestSolutionFiles:
    def test_round_trip_with_mixed_labels(self, tmp_path):
        sol = ({("a",): "0", (): "1"}, {"loud": "1"})
        path = tmp_path / "s.json"
        files.dump_json(files.solution_to_obj(sol), path)
        assert files.parse_solution(files.read_json(path)) == sol

    def test_rejects_non_text_decisions(self):
        obj = [[[["a"], 7]]]
        with pytest.raises(FileFormatError, match="text"):
            files.parse_solution(obj)

    @pytest.mark.parametrize(
        "label",
        [{"x": 1}, [["a"]], ["a", 1], 7, None],
        ids=["object", "nested-array", "mixed-array", "number", "null"],
    )
    def test_rejects_labels_that_are_not_text_or_token_arrays(self, label):
        with pytest.raises(FileFormatError, match="tables\\[0\\] label"):
            files.parse_solution([[[label, "0"]]])

    @pytest.mark.parametrize("label", ["x", ["a", "b"]], ids=["text", "string"])
    def test_rejects_a_label_with_two_decisions(self, label):
        with pytest.raises(FileFormatError, match="tables\\[1\\]: label .* has two decisions"):
            files.parse_solution([[], [[label, "0"], [label, "1"]]])

    def test_repeated_identical_pairs_are_accepted(self):
        sol = files.parse_solution([[["x", "0"], [["a"], "1"], ["x", "0"]]])
        assert sol == ({"x": "0", ("a",): "1"},)


class TestBijectionFiles:
    def test_bijection_entries_pair_tuples_with_strings(self):
        rule = builtin_rule("conjunctive", 2)
        obj = files.bijection_to_obj(rule, decision_graph_to_observation(rule, "unary"))
        assert len(obj) == 4
        assert [["1", "1"], ["0_1", "1_1", "0_2", "1_2"]] in obj


class TestHelpers:
    def test_sanitize_token(self):
        assert files.sanitize_token("a") == "a"
        assert files.sanitize_token("γ") == "u03b3"
        assert files.sanitize_token("a.b") == "au002eb"
        assert files.sanitize_token("x_1-y") == "x_1-y"

    def test_dump_is_deterministic(self, ex1, tmp_path):
        one, two = tmp_path / "1.json", tmp_path / "2.json"
        files.dump_json(files.problem_to_obj(ex1), one)
        files.dump_json(files.problem_to_obj(ex1), two)
        assert one.read_bytes() == two.read_bytes()

    def test_json_text_ends_with_newline(self, ex1):
        assert files.to_json(files.problem_to_obj(ex1)).endswith("\n")


def _reference(value) -> str:
    """The text every output file must match: json.dumps's own indented
    layout, kept here as the renderer's reference."""
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


_TEXTS = st.one_of(
    st.text(),
    # Escapes, non-ASCII, and braces that a format template must never read.
    st.text(st.sampled_from('a γ"\\\n\t\x00\x1f\x7f{}😀é'), max_size=6),
    st.sampled_from(["", "{}", "{0}", "}{", "{x}"]),
)
_SCALARS = st.one_of(_TEXTS, st.integers(), st.floats(), st.booleans(), st.none())


@st.composite
def _rows(draw, children):
    """An array of equal-length rows, some of them one shared list object,
    optionally paired with a key as witness rows are."""
    width = draw(st.integers(0, 3))
    row = st.lists(children, min_size=width, max_size=width)
    shared = draw(row)
    rows = draw(st.lists(st.one_of(st.just(shared), row), min_size=1, max_size=6))
    if draw(st.booleans()):
        rows = [[draw(children), r] for r in rows]
    return draw(st.sampled_from([rows, [tuple(r) for r in rows]]))


_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_TEXTS, children, max_size=4),
        _rows(children),
    ),
    max_leaves=30,
)


class TestRenderer:
    @settings(max_examples=200, deadline=None)
    @given(_VALUES)
    def test_matches_json_dumps(self, value):
        assert files.to_json(value) == _reference(value)

    @pytest.mark.parametrize(
        "shape",
        [
            "observation-witness",
            "decision-witness",
            "generic-witness",
            "solution",
            "poset",
            "verdict",
            "problem",
            "table-problem",
            "control-problem",
            "bijection",
            "manifest",
        ],
    )
    def test_matches_json_dumps_on_every_written_shape(self, ex1, gamma_control, shape):
        value = _written_shape(shape, ex1, gamma_control)
        assert files.to_json(value) == _reference(value)

    def test_keys_that_are_not_text_raise(self):
        # Every object decobs writes has text keys, so no other key is converted.
        for key in (1, -2.5, True, None):
            with pytest.raises(TypeError):
                files.to_json({"k": [{key: 0}]})

    def test_unserialisable_values_raise_as_json_dumps_does(self):
        for value in ({"k": {1, 2}}, {(1,): 0}, [object()]):
            with pytest.raises(TypeError):
                _reference(value)
            with pytest.raises(TypeError):
                files.to_json(value)


def _written_shape(shape: str, ex1, gamma_control):
    conj2 = build_decision_graph(builtin_rule("conjunctive", 2))
    if shape == "observation-witness":
        # Into conjunctive:3, so many rows share one target key list.
        p = decision_graph_to_observation(builtin_rule("cpda", 3))
        target = build_decision_graph(builtin_rule("conjunctive", 3))
        return files.morphism_to_obj(find_morphism(build_observation_graph(p), target))
    if shape == "decision-witness":
        cpda2 = build_decision_graph(builtin_rule("cpda", 2))
        return files.morphism_to_obj(find_morphism(cpda2, conj2))
    if shape == "generic-witness":
        g = ColoredGraph(n=1, keys=(0, 1, 2), signatures=(("x",), ("y",), ("x",)), colours=(0, 0, 0))
        return files.morphism_to_obj(Morphism(g, g, (0, 1, 0)))
    if shape == "solution":
        m = find_morphism(build_observation_graph(ex1), conj2)
        projected = extract_solution(m, ex1, builtin_rule("conjunctive", 2))
        assert () in projected[0]  # the empty label, written as []
        tables = ({("a",): "0", (): "1"}, {"loud": "1", "quiet": "0"})
        return files.solution_to_obj(projected) + files.solution_to_obj(tables)
    if shape == "poset":
        return {
            "type": "poset",
            "rules": ["conjunctive:2", "disjunctive:2", "cpda:2"],
            "matrix": [
                ["equivalent", "incomparable", "first strictly more permissive"],
                ["incomparable", "equivalent", "first strictly more permissive"],
                ["second strictly more permissive", "second strictly more permissive", "equivalent"],
            ],
            "classes": [["conjunctive:2"], ["disjunctive:2"], ["cpda:2"]],
            "hasse": [[2, 0], [2, 1]],
        }
    if shape == "verdict":
        cpda2 = build_decision_graph(builtin_rule("cpda", 2))
        return {
            "type": "verdict",
            "relation": "second strictly more permissive",
            "witness_fwd": files.morphism_to_obj(find_morphism(cpda2, conj2)),
            "witness_bwd": None,
        }
    if shape == "problem":
        return files.problem_to_obj(ex1)
    if shape == "table-problem":
        table = ObservationTable(tuple({(): "quiet", ("a",): "loud", ("a", "a"): "{}"}.items()))
        return files.problem_to_obj(
            ObservationProblem(n=1, alphabet=("a",), L=((), ("a",), ("a", "a")), K=(("a",),), P=(table,))
        )
    if shape == "control-problem":
        return files.problem_to_obj(gamma_control)
    if shape == "bijection":
        rule = builtin_rule("conjunctive", 2)
        return files.bijection_to_obj(rule, decision_graph_to_observation(rule, "unary"))
    assert shape == "manifest"
    return {"type": "manifest", "files": {"obs_u03b3.json": "γ", "obs_a.json": "a"}}
