import dataclasses
import gc
import hashlib
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from decobs import (
    BUILTIN_RULES,
    ControlProblem,
    Projection,
    build_decision_graph,
    build_observation_graph,
    builtin_rule,
    decision_graph_to_observation,
    extract_solution,
    find_morphism,
    verify_morphism,
)
from decobs import files
from decobs.cli import main
from helpers import dump_json, process_env


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def ex1_file(ex1, tmp_path):
    path = tmp_path / "ex1.json"
    dump_json(files.problem_to_obj(ex1), path)
    return path


@pytest.fixture
def control_file(gamma_control, tmp_path):
    path = tmp_path / "control.json"
    dump_json(files.problem_to_obj(gamma_control), path)
    return path


class TestValidate:
    def test_valid_problem(self, runner, ex1_file):
        result = runner.invoke(main, ["validate", str(ex1_file)])
        assert result.exit_code == 0
        assert "valid" in result.output

    def test_invalid_problem(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        obj = {
            "type": "observation",
            "agents": 1,
            "alphabet": ["a"],
            "L": [["a"]],
            "K": [["c"]],
            "observations": [{"kind": "projection", "observable": ["a"]}],
        }
        dump_json(obj, path)
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2
        assert "K is not a subset of L" in result.output

    @pytest.mark.parametrize("reverse", [False, True], ids=["a-x-first", "a-y-first"])
    def test_table_with_two_labels_for_one_string_exits_2(self, runner, tmp_path, reverse):
        entries = [[["a"], "x"], [["b"], "y"], [["a"], "y"]]
        path = tmp_path / "two.json"
        obj = {
            "type": "observation",
            "agents": 2,
            "alphabet": ["a", "b"],
            "L": [["a"], ["b"]],
            "K": [["a"]],
            "observations": [
                {"kind": "table", "map": entries[::-1] if reverse else entries},
                {"kind": "projection", "observable": []},
            ],
        }
        dump_json(obj, path)
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2
        assert result.output == "P_1 table maps a to two labels\n"
        result = runner.invoke(main, ["check", str(path), "--rule", "conjunctive:2"])
        assert result.exit_code == 2
        assert "invalid: P_1 table maps a to two labels" in result.output

    def test_projection_observing_tokens_outside_the_alphabet_exits_2(self, runner, tmp_path):
        path = tmp_path / "stray.json"
        obj = {
            "type": "observation",
            "agents": 1,
            "alphabet": ["a"],
            "L": [["a"]],
            "K": [["a"]],
            "observations": [{"kind": "projection", "observable": ["a", "z"]}],
        }
        dump_json(obj, path)
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2
        assert result.output == "P_1 observes tokens outside the alphabet: z\n"
        result = runner.invoke(main, ["check", str(path), "--rule", "conjunctive:1"])
        assert result.exit_code == 2
        assert "invalid: P_1 observes tokens outside the alphabet: z" in result.output

    def test_malformed_file(self, runner, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{{{{")
        assert runner.invoke(main, ["validate", str(path)]).exit_code == 2

    def test_missing_file(self, runner, tmp_path):
        assert runner.invoke(main, ["validate", str(tmp_path / "nope.json")]).exit_code == 2


class TestReduce:
    def test_writes_per_event_files_and_manifest(self, runner, control_file, tmp_path):
        outdir = tmp_path / "out"
        result = runner.invoke(main, ["reduce", str(control_file), "-o", str(outdir)])
        assert result.exit_code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["files"] == {"obs_u03b3.json": "γ"}
        reduced = files.parse_problem(files.read_json(outdir / "obs_u03b3.json"))
        assert reduced.L == (("a",), ("b",))
        assert reduced.K == (("a",),)
        assert reduced.n == 2

    def test_no_controllable_events(self, runner, gamma_control, tmp_path):
        import dataclasses

        # K = L keeps the problem controllable once γ becomes uncontrollable.
        quiet = dataclasses.replace(
            gamma_control, controllable=(frozenset(), frozenset()), K=gamma_control.L
        )
        path = tmp_path / "c.json"
        dump_json(files.problem_to_obj(quiet), path)
        outdir = tmp_path / "out"
        result = runner.invoke(main, ["reduce", str(path), "-o", str(outdir)])
        assert result.exit_code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["files"] == {}

    def test_uncontrollable_exits_1_without_flag(self, runner, gamma_control, tmp_path):
        import dataclasses

        # Dropping b from K leaves ε ∈ K with the uncontrollable b ∈ L − K.
        broken = dataclasses.replace(
            gamma_control,
            K=((), ("a",), ("a", "γ")),
        )
        path = tmp_path / "c.json"
        dump_json(files.problem_to_obj(broken), path)
        outdir = tmp_path / "out"
        result = runner.invoke(main, ["reduce", str(path), "-o", str(outdir)])
        assert result.exit_code == 1
        result = runner.invoke(
            main,
            ["reduce", str(path), "-o", str(outdir), "--allow-uncontrollable"],
        )
        assert result.exit_code == 0

    def test_observation_file_is_rejected(self, runner, ex1_file, tmp_path):
        result = runner.invoke(main, ["reduce", str(ex1_file), "-o", str(tmp_path / "x")])
        assert result.exit_code == 2

    def test_events_with_one_file_name_get_numbered(self, runner, tmp_path):
        # é is spelled u00e9 in a file name, which is also the other event's name.
        control = ControlProblem(
            n=1,
            alphabet=("é", "u00e9"),
            controllable=(frozenset({"é", "u00e9"}),),
            L=((), ("é",), ("u00e9",)),
            K=((), ("é",), ("u00e9",)),
            P=(Projection(frozenset({"é", "u00e9"})),),
        )
        path = tmp_path / "c.json"
        dump_json(files.problem_to_obj(control), path)
        outdir = tmp_path / "out"
        result = runner.invoke(main, ["reduce", str(path), "-o", str(outdir)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["files"] == {"obs_u00e9.json": "é", "obs_u00e9_2.json": "u00e9"}
        assert sorted(p.name for p in outdir.iterdir()) == [
            "manifest.json",
            "obs_u00e9.json",
            "obs_u00e9_2.json",
        ]

    def test_output_that_is_a_regular_file_is_named_in_decobs_words(
        self, runner, control_file, tmp_path
    ):
        out = tmp_path / "out"
        out.write_text("kept", encoding="utf-8")
        result = runner.invoke(main, ["reduce", str(control_file), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {str(out)!r} is not a directory\n"
        assert out.read_text(encoding="utf-8") == "kept"


# Two strings no agent tells apart, one in K: one signature in two colours.
_CONFLICT = {
    "type": "observation",
    "agents": 2,
    "alphabet": ["a", "b"],
    "L": [["a"], ["b"]],
    "K": [["a"]],
    "observations": [
        {"kind": "projection", "observable": []},
        {"kind": "projection", "observable": []},
    ],
}

_XNOR = {
    "type": "fusion_rule",
    "agents": 2,
    "decisions": ["0", "1"],
    "domain": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
    "output": [1, 0, 0, 1],
}


class TestCheckAndSolve:
    def test_solvable_with_witness(self, runner, ex1, ex1_file, tmp_path):
        witness = tmp_path / "w.json"
        result = runner.invoke(
            main,
            ["check", str(ex1_file), "--rule", "conjunctive:2", "--witness", str(witness)],
        )
        assert result.exit_code == 0
        assert "SOLVABLE" in result.output
        source = build_observation_graph(ex1)
        target = build_decision_graph(builtin_rule("conjunctive", 2))
        loaded = files.load_morphism(witness, source, target)
        assert verify_morphism(loaded)

    def test_control_problem_exits_2(self, runner, control_file):
        result = runner.invoke(main, ["check", str(control_file), "--rule", "conjunctive:2"])
        assert result.exit_code == 2
        assert "expected an observation problem" in result.output

    def test_unsolvable(self, runner, ex1_file):
        result = runner.invoke(main, ["check", str(ex1_file), "--rule", "const0:2"])
        assert result.exit_code == 1
        assert "UNSOLVABLE" in result.output

    @pytest.mark.parametrize("name", BUILTIN_RULES)
    def test_conflicting_empty_class_unsolvable(self, runner, tmp_path, name):
        # The arc-consistency pass refutes it under every builtin rule, so no
        # budget is needed.
        path = tmp_path / "conflict.json"
        dump_json(_CONFLICT, path)
        result = runner.invoke(main, ["check", str(path), "--rule", f"{name}:2", "--budget", "0"])
        assert result.exit_code == 1
        assert result.output == "UNSOLVABLE\n"

    @pytest.mark.parametrize("budget", ["0", None])
    def test_conflicting_empty_class_under_xnor_unsolvable(self, runner, tmp_path, budget):
        # XNOR's two colours use the same coordinates, so no label alone
        # refutes it; the whole-signature check does, before the search.
        path, rule = tmp_path / "conflict.json", tmp_path / "xnor.json"
        dump_json(_CONFLICT, path)
        dump_json(_XNOR, rule)
        args = ["check", str(path), "--rule", str(rule)]
        result = runner.invoke(main, args + (["--budget", budget] if budget else []))
        assert result.exit_code == 1, result.output
        assert result.output == "UNSOLVABLE\n"

    def test_budget_exit_code(self, runner, ex1_file, tmp_path):
        # A builtin target is answered off the arc-consistency fixpoint with
        # no search at all, so only a rule file such as XNOR can exceed a
        # budget; ex1 under XNOR is solvable and needs 4 expansions.
        rule = tmp_path / "xnor.json"
        dump_json(_XNOR, rule)
        args = ["check", str(ex1_file), "--rule", str(rule)]
        assert runner.invoke(main, args + ["--budget", "1"]).exit_code == 3
        assert runner.invoke(main, args + ["--budget", "4"]).exit_code == 0
        builtin = ["check", str(ex1_file), "--rule", "conjunctive:2", "--budget", "0"]
        assert runner.invoke(main, builtin).exit_code == 0

    def test_arity_mismatch(self, runner, ex1_file):
        result = runner.invoke(main, ["check", str(ex1_file), "--rule", "conjunctive:3"])
        assert result.exit_code == 2

    def test_bad_rule_selector(self, runner, ex1_file):
        result = runner.invoke(main, ["check", str(ex1_file), "--rule", "magic:2"])
        assert result.exit_code == 2

    def test_rule_file_selector(self, runner, ex1_file, tmp_path):
        rule_path = tmp_path / "conj.json"
        dump_json(files.rule_to_obj(builtin_rule("conjunctive", 2)), rule_path)
        result = runner.invoke(main, ["check", str(ex1_file), "--rule", str(rule_path)])
        assert result.exit_code == 0

    def test_solve_and_verify_round_trip(self, runner, ex1_file, tmp_path):
        solution = tmp_path / "sol.json"
        result = runner.invoke(
            main,
            ["solve", str(ex1_file), "--rule", "conjunctive:2", "-o", str(solution)],
        )
        assert result.exit_code == 0
        verify = runner.invoke(
            main,
            ["verify-solution", str(ex1_file), str(solution), "--rule", "conjunctive:2"],
        )
        assert verify.exit_code == 0
        assert "verified" in verify.output

    def test_solve_on_an_empty_language_writes_one_empty_table_per_agent(
        self, runner, tmp_path
    ):
        problem, solution, witness = (tmp_path / name for name in ("p.json", "s.json", "w.json"))
        dump_json(
            {
                "type": "observation",
                "agents": 2,
                "alphabet": ["a"],
                "L": [],
                "K": [],
                "observations": [{"kind": "projection", "observable": ["a"]}] * 2,
            },
            problem,
        )
        result = runner.invoke(
            main,
            ["solve", str(problem), "--rule", "conjunctive:2",
             "-o", str(solution), "--witness", str(witness)],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(solution.read_text()) == [[], []]
        assert json.loads(witness.read_text()) == []
        verify = runner.invoke(
            main, ["verify-solution", str(problem), str(solution), "--rule", "conjunctive:2"]
        )
        assert (verify.exit_code, verify.output) == (0, "verified\n")

    def test_one_path_for_witness_and_solution_ends_holding_the_solution(
        self, runner, ex1_file, tmp_path
    ):
        both = tmp_path / "both.json"
        result = runner.invoke(
            main,
            ["solve", str(ex1_file), "--rule", "conjunctive:2",
             "-o", str(both), "--witness", str(both)],
        )
        assert result.exit_code == 0, result.output
        assert result.output == f"wrote {both}\nwrote {both}\nSOLVABLE\n"
        verify = runner.invoke(
            main, ["verify-solution", str(ex1_file), str(both), "--rule", "conjunctive:2"]
        )
        assert verify.exit_code == 0, verify.output

    def test_verify_rejects_tampered_solution(self, runner, ex1_file, tmp_path):
        solution = tmp_path / "sol.json"
        runner.invoke(
            main, ["solve", str(ex1_file), "--rule", "conjunctive:2", "-o", str(solution)]
        )
        obj = json.loads(solution.read_text())
        obj[0][0][1] = "1" if obj[0][0][1] == "0" else "0"
        solution.write_text(json.dumps(obj))
        result = runner.invoke(
            main,
            ["verify-solution", str(ex1_file), str(solution), "--rule", "conjunctive:2"],
        )
        assert result.exit_code == 1

    def test_solve_unsolvable(self, runner, ex1_file, tmp_path):
        result = runner.invoke(
            main,
            ["solve", str(ex1_file), "--rule", "const0:2", "-o", str(tmp_path / "s.json")],
        )
        assert result.exit_code == 1
        assert not (tmp_path / "s.json").exists()


    def test_solve_past_the_old_recursion_depth(self, runner, tmp_path):
        # 1,250 quotient classes: each agent sees its own two tokens, and a
        # string is legal when every agent's view passes a local test, so the
        # problem is solvable under the conjunctive rule.
        tokens = (("a", "b"), ("c", "d"), ("e", "f"))
        views = [
            [tuple(w) for k in range(4) for w in itertools.product(pair, repeat=k)]
            for pair in tokens
        ]
        tuples = random.Random(0).sample(list(itertools.product(*views)), 1250)
        strings = [[t for view in views_of for t in view] for views_of in tuples]
        legal = [all((len(v) + i) % 3 for i, v in enumerate(views_of)) for views_of in tuples]
        obj = {
            "type": "observation",
            "agents": 3,
            "alphabet": [t for pair in tokens for t in pair],
            "L": strings,
            "K": [s for s, ok in zip(strings, legal) if ok],
            "observations": [{"kind": "projection", "observable": list(p)} for p in tokens],
        }
        problem = tmp_path / "deep.json"
        dump_json(obj, problem)
        assert len(set(map(tuple, strings))) == 1250
        solution = tmp_path / "deep.sol.json"
        result = runner.invoke(
            main, ["solve", str(problem), "--rule", "conjunctive:3", "-o", str(solution)]
        )
        assert result.exit_code == 0, result.output
        verify = runner.invoke(
            main, ["verify-solution", str(problem), str(solution), "--rule", "conjunctive:3"]
        )
        assert verify.exit_code == 0
        assert "verified" in verify.output


class TestCompareCommand:
    def test_incomparable(self, runner):
        result = runner.invoke(main, ["compare", "conjunctive:2", "disjunctive:2"])
        assert result.exit_code == 0
        assert "incomparable" in result.output

    def test_refuted_negatives_answer_under_budget_0(self, runner):
        # Both directions are refuted before the search tries a candidate,
        # and --budget counts only the search's node expansions.
        result = runner.invoke(
            main, ["compare", "conjunctive:3", "disjunctive:3", "--budget", "0"]
        )
        assert result.exit_code == 0
        assert result.output == "incomparable\n"

    def test_second_strictly_more_permissive(self, runner):
        result = runner.invoke(main, ["compare", "cpda:2", "conjunctive:2"])
        assert result.exit_code == 0
        assert "second strictly more permissive" in result.output

    def test_equivalent_with_witnesses(self, runner, tmp_path):
        prefix = tmp_path / "w"
        result = runner.invoke(
            main,
            [
                "compare",
                "conjunctive_cd:2",
                "conjunctive:2",
                "--witness",
                str(prefix),
                "-o",
                str(tmp_path / "verdict.json"),
            ],
        )
        assert result.exit_code == 0
        assert "equivalent" in result.output
        cd_graph = build_decision_graph(builtin_rule("conjunctive_cd", 2))
        conj_graph = build_decision_graph(builtin_rule("conjunctive", 2))
        fwd = files.load_morphism(f"{prefix}_fwd.json", cd_graph, conj_graph)
        bwd = files.load_morphism(f"{prefix}_bwd.json", conj_graph, cd_graph)
        assert verify_morphism(fwd) and verify_morphism(bwd)
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["relation"] == "equivalent"
        assert verdict["witness_fwd"] is not None

    def test_each_witness_is_serialised_once(self, runner, tmp_path, monkeypatch):
        calls = []
        serialise = files.morphism_to_obj

        def counted(m):
            calls.append(m)
            return serialise(m)

        monkeypatch.setattr(files, "morphism_to_obj", counted)
        prefix, verdict_path = tmp_path / "w", tmp_path / "v.json"
        result = runner.invoke(
            main,
            [
                "compare",
                "conjunctive:2",
                "conjunctive_cd:2",
                "--witness",
                str(prefix),
                "-o",
                str(verdict_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert len(calls) == 2
        verdict = json.loads(verdict_path.read_text())
        for tag in ("fwd", "bwd"):
            witness = json.loads(Path(f"{prefix}_{tag}.json").read_text())
            assert verdict[f"witness_{tag}"] == witness

    def test_separating_files(self, runner, tmp_path):
        prefix = tmp_path / "sep"
        result = runner.invoke(
            main,
            ["compare", "conjunctive:2", "disjunctive:2", "--separating", str(prefix)],
        )
        assert result.exit_code == 0
        first = files.parse_problem(files.read_json(f"{prefix}_first_not_second.json"))
        expected = decision_graph_to_observation(builtin_rule("conjunctive", 2))
        assert first == expected
        check = runner.invoke(
            main, ["check", f"{prefix}_first_not_second.json", "--rule", "disjunctive:2"]
        )
        assert check.exit_code == 1

    def test_arity_mismatch(self, runner):
        result = runner.invoke(main, ["compare", "conjunctive:2", "conjunctive:3"])
        assert result.exit_code == 2

    def test_builtin_rule_with_no_agents_exits_2(self, runner):
        result = runner.invoke(main, ["compare", "conjunctive:0", "conjunctive:2"])
        assert result.exit_code == 2
        assert "error: agent count must be at least 1, got 0" in result.output

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"agents": 0, "domain": [], "output": []}, "agent count must be at least 1"),
            ({"decisions": [], "domain": [], "output": []}, "decision set must be nonempty"),
            ({"decisions": ["0", "1", "0"]}, "decision set contains duplicates"),
        ],
        ids=["no-agents", "no-decisions", "duplicate-decisions"],
    )
    def test_malformed_rule_file_exits_2(self, runner, tmp_path, fields, message):
        path = tmp_path / "rule.json"
        dump_json({**files.rule_to_obj(builtin_rule("conjunctive", 2)), **fields}, path)
        result = runner.invoke(main, ["compare", str(path), "conjunctive:2"])
        assert result.exit_code == 2
        assert f"error: {message}" in result.output


class TestPoset:
    def test_text_and_json_output(self, runner, tmp_path):
        out = tmp_path / "poset.json"
        result = runner.invoke(
            main,
            ["poset", "conjunctive:2", "disjunctive:2", "cpda:2", "-o", str(out)],
        )
        assert result.exit_code == 0
        assert "conjunctive:2 vs disjunctive:2: incomparable" in result.output
        assert "{cpda:2} < {conjunctive:2}" in result.output
        obj = json.loads(out.read_text())
        assert obj["classes"] == [["conjunctive:2"], ["disjunctive:2"], ["cpda:2"]]
        assert sorted(map(tuple, obj["hasse"])) == [(2, 0), (2, 1)]

    def test_rule_files_are_named_as_given(self, runner, tmp_path, monkeypatch):
        # Two files that share a stem in different directories stay apart.
        monkeypatch.chdir(tmp_path)
        for folder in ("x", "y"):
            (tmp_path / folder).mkdir()
            dump_json(files.rule_to_obj(builtin_rule("conjunctive", 1)), tmp_path / folder / "r.json")
        result = runner.invoke(
            main, ["poset", "x/r.json", "y/r.json", "conjunctive:1", "-o", "p.json"]
        )
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[:2] == [
            "x/r.json vs y/r.json: equivalent",
            "x/r.json vs conjunctive:1: equivalent",
        ]
        obj = json.loads((tmp_path / "p.json").read_text())
        assert obj["rules"] == ["x/r.json", "y/r.json", "conjunctive:1"]
        assert obj["classes"] == [["x/r.json", "y/r.json", "conjunctive:1"]]


class TestArityBeforeBuild:
    """A builtin rule whose agent count mismatches is refused before it is
    built, so ``conjunctive:40`` exits 2 instead of building 2^40 combinations."""

    @pytest.fixture(autouse=True)
    def refuse_forty(self, monkeypatch):
        real = builtin_rule

        def guarded(name, n):
            if n == 40:
                raise AssertionError(f"built {name}:{n}")
            return real(name, n)

        monkeypatch.setattr("decobs.cli.builtin_rule", guarded)

    @pytest.mark.parametrize("command", ["check", "solve", "verify-solution"])
    def test_problem_commands(self, runner, ex1_file, tmp_path, command):
        solution = tmp_path / "s.json"
        solved = runner.invoke(
            main, ["solve", str(ex1_file), "--rule", "conjunctive:2", "-o", str(solution)]
        )
        assert solved.exit_code == 0, solved.output
        args = {
            "check": ["check", str(ex1_file)],
            "solve": ["solve", str(ex1_file), "-o", str(tmp_path / "out.json")],
            "verify-solution": ["verify-solution", str(ex1_file), str(solution)],
        }[command]
        result = runner.invoke(main, [*args, "--rule", "conjunctive:40"])
        assert result.exit_code == 2, result.output
        assert result.output == "error: problem has 2 agents, rule has 40\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["compare", "conjunctive:2", "conjunctive:40"], "rule 1 has 2 agents, rule 2 has 40"),
            (["compare", "conjunctive:40", "conjunctive:2"], "rule 1 has 40 agents, rule 2 has 2"),
            (
                ["poset", "cpda:2", "{rule}", "disjunctive:40", "conjunctive:40"],
                "rule 1 has 2 agents, rule 3 has 40",
            ),
        ],
        ids=["compare-second", "compare-first", "poset"],
    )
    def test_rule_commands(self, runner, tmp_path, args, message):
        rule = tmp_path / "conj.json"
        dump_json(files.rule_to_obj(builtin_rule("conjunctive", 2)), rule)
        result = runner.invoke(main, [a.format(rule=rule) for a in args])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: all rules must share one agent count: {message}\n"

    @pytest.mark.parametrize(
        "specs, message",
        [
            (["conjunctive:40", "missing.json"], "'missing.json' is neither a builtin rule"),
            (["conjunctive:40", "cpda:0"], "agent count must be at least 1, got 0"),
        ],
        ids=["missing-file", "no-agents"],
    )
    def test_loading_errors_come_before_the_mismatch(self, runner, specs, message):
        result = runner.invoke(main, ["poset", "conjunctive:2", *specs])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "args",
        [["compare", "conjunctive:{n}", "missing.json"], ["poset", "conjunctive:{n}", "conjunctive:2"]],
        ids=["compare-before-a-missing-file", "poset-before-the-mismatch"],
    )
    def test_a_count_past_maxsize_is_the_first_error(self, runner, args):
        n = 99999999999999999999
        result = runner.invoke(main, [a.format(n=n) for a in args])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: agent count must be at most {sys.maxsize}, got {n}\n"


class TestD2O:
    def test_writes_problem_and_bijection(self, runner, tmp_path):
        prefix = tmp_path / "conj"
        result = runner.invoke(
            main, ["d2o", "conjunctive:2", "--encoding", "unary", "-o", str(prefix)]
        )
        assert result.exit_code == 0
        problem = files.parse_problem(files.read_json(f"{prefix}.problem.json"))
        expected = decision_graph_to_observation(builtin_rule("conjunctive", 2), "unary")
        assert problem == expected
        bij = json.loads((tmp_path / "conj.bijection.json").read_text())
        assert len(bij) == 4
        assert [["1", "1"], ["0_1", "1_1", "0_2", "1_2"]] in bij

    def test_tagged_cpda_has_six_strings(self, runner, tmp_path):
        prefix = tmp_path / "cpda"
        result = runner.invoke(
            main, ["d2o", "cpda:2", "--encoding", "tagged", "-o", str(prefix)]
        )
        assert result.exit_code == 0
        problem = files.parse_problem(files.read_json(f"{prefix}.problem.json"))
        assert len(problem.L) == 6


# A valid rule that allows no combination: its decision graph has no nodes.
_NONE = {"type": "fusion_rule", "agents": 1, "decisions": ["0", "1"], "domain": [], "output": []}
# A valid rule with too many agents for anything sized by the agent count.
_HUGE = dict(_NONE, agents=10**9)


class TestEmptyDomainRule:
    @pytest.fixture
    def none_file(self, tmp_path):
        path = tmp_path / "none.json"
        dump_json(_NONE, path)
        return path

    def _problem(self, tmp_path, strings) -> Path:
        path = tmp_path / "p.json"
        dump_json(
            {
                "type": "observation",
                "agents": 1,
                "alphabet": ["a"],
                "L": strings,
                "K": strings,
                "observations": [{"kind": "projection", "observable": ["a"]}],
            },
            path,
        )
        return path

    def test_compare_writes_only_the_forward_witness(self, runner, none_file, tmp_path):
        prefix = tmp_path / "p"
        result = runner.invoke(
            main, ["compare", str(none_file), "conjunctive:1", "--witness", str(prefix)]
        )
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[0] == "second strictly more permissive"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["none.json", "p_fwd.json"]
        assert json.loads((tmp_path / "p_fwd.json").read_text()) == []

    def test_poset_puts_it_below_const0(self, runner, none_file):
        result = runner.invoke(main, ["poset", str(none_file), "conjunctive:1", "const0:1"])
        assert result.exit_code == 0, result.output
        assert f"{{{none_file}}} < {{const0:1}}" in result.output.splitlines()

    def test_check_solves_only_the_empty_language(self, runner, none_file, tmp_path):
        witness = tmp_path / "w.json"
        empty = self._problem(tmp_path, [])
        result = runner.invoke(
            main, ["check", str(empty), "--rule", str(none_file), "--witness", str(witness)]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(witness.read_text()) == []
        one = self._problem(tmp_path, [["a"]])
        result = runner.invoke(main, ["check", str(one), "--rule", str(none_file)])
        assert result.exit_code == 1, result.output

    @pytest.fixture
    def huge_file(self, tmp_path):
        path = tmp_path / "huge.json"
        dump_json(_HUGE, path)
        return path

    def test_compare_answers_a_billion_agents_at_once(self, runner, huge_file):
        result = runner.invoke(main, ["compare", str(huge_file), str(huge_file)])
        assert result.exit_code == 0, result.output
        assert result.output == "equivalent\n"

    def test_poset_answers_a_billion_agents_at_once(self, runner, huge_file):
        result = runner.invoke(main, ["poset", str(huge_file), str(huge_file)])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[-1] == "no strict comparisons"

    def test_d2o_writes_a_valid_problem(self, runner, none_file, tmp_path):
        prefix = tmp_path / "dn"
        result = runner.invoke(main, ["d2o", str(none_file), "-o", str(prefix)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["validate", f"{prefix}.problem.json"])
        assert result.exit_code == 0, result.output
        assert result.output == "valid\n"


class TestGraphCommand:
    def test_dot_to_stdout(self, runner):
        result = runner.invoke(main, ["graph", "conjunctive:2"])
        assert result.exit_code == 0
        assert result.output.startswith('graph "G" {')
        assert result.output.count(" -- ") == 6

    def test_observation_graph_from_file(self, runner, ex1_file, tmp_path):
        dot = tmp_path / "g.dot"
        result = runner.invoke(main, ["graph", str(ex1_file), "--dot", str(dot)])
        assert result.exit_code == 0
        assert dot.read_text().count("doublecircle") == 1

    def test_control_file_is_rejected(self, runner, control_file):
        result = runner.invoke(main, ["graph", str(control_file)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "obj",
        [
            {
                "type": "observation",
                "agents": True,
                "alphabet": ["a"],
                "L": [["a"]],
                "K": [["a"]],
                "observations": [{"kind": "projection", "observable": ["a"]}],
            },
            {
                "type": "fusion_rule",
                "agents": True,
                "decisions": ["0", "1"],
                "domain": [["0"], ["1"]],
                "output": [0, 1],
            },
        ],
        ids=["problem", "rule"],
    )
    def test_boolean_agent_count_is_rejected(self, runner, tmp_path, obj):
        path = tmp_path / "bool.json"
        dump_json(obj, path)
        result = runner.invoke(main, ["graph", str(path)])
        assert result.exit_code == 2
        assert "'agents' must be an integer" in result.output


# Every command slot that takes a rule or a problem: its arguments, with "{}"
# for the slot, and the argument kinds it accepts.
_RULES = {"selector", "rule"}
_SLOTS = {
    "check problem": (["check", "{}", "--rule", "conjunctive:2"], {"observation"}),
    "check rule": (["check", "{observation}", "--rule", "{}"], _RULES),
    "solve problem": (["solve", "{}", "--rule", "conjunctive:2", "-o", "{dir}/s.json"], {"observation"}),
    "solve rule": (["solve", "{observation}", "--rule", "{}", "-o", "{dir}/s.json"], _RULES),
    "verify problem": (["verify-solution", "{}", "{sol}", "--rule", "conjunctive:2"], {"observation"}),
    "verify rule": (["verify-solution", "{observation}", "{sol}", "--rule", "{}"], _RULES),
    "compare first": (["compare", "{}", "conjunctive:2"], _RULES),
    "compare second": (["compare", "conjunctive:2", "{}"], _RULES),
    "poset": (["poset", "{}", "conjunctive:2"], _RULES),
    "d2o": (["d2o", "{}", "-o", "{dir}/x"], _RULES),
    "reduce": (["reduce", "{}", "-o", "{dir}/d"], {"control"}),
    "graph": (["graph", "{}"], _RULES | {"observation"}),
}
_READABLE = {"selector", "rule", "observation", "control"}  # a rule or a problem


@pytest.fixture
def arguments(ex1, gamma_control, tmp_path):
    """One argument of each kind, plus the files the slots' other arguments name."""
    rule = builtin_rule("conjunctive", 2)
    documents = {
        "rule": files.rule_to_obj(rule),
        "observation": files.problem_to_obj(ex1),
        "control": files.problem_to_obj(gamma_control),
        "array": [1, 2],
        "untyped": {"agents": 2},
        "sol": files.solution_to_obj(
            extract_solution(
                find_morphism(build_observation_graph(ex1), build_decision_graph(rule))
            )
        ),
    }
    paths = {"selector": "conjunctive:2", "missing": str(tmp_path / "missing.json"), "dir": str(tmp_path)}
    for kind, doc in documents.items():
        paths[kind] = str(tmp_path / f"{kind}.json")
        dump_json(doc, paths[kind])
    return paths


class TestArgumentKinds:
    @pytest.mark.parametrize("kind", ["selector", "rule", "observation", "control", "missing", "array", "untyped"])
    @pytest.mark.parametrize("slot", list(_SLOTS))
    def test_each_slot_reads_each_kind_of_argument(self, runner, arguments, slot, kind):
        template, accepted = _SLOTS[slot]
        args = [arguments[kind] if a == "{}" else a.format(**arguments) for a in template]
        result = runner.invoke(main, args)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.exit_code == (0 if kind in accepted else 2), result.output
        # A rule or problem of the wrong kind is named as such; a rule-only
        # slot reads every file as a rule and reports what the rule lacks.
        wrong_kind = accepted != _RULES and kind in _READABLE - accepted
        assert ("expected " in result.output) == wrong_kind, result.output

    def test_a_selector_in_a_problem_slot_is_the_wrong_kind(self, runner, tmp_path):
        result = runner.invoke(main, ["check", "conjunctive:2", "--rule", "conjunctive:2"])
        assert result.exit_code == 2
        assert "error: conjunctive:2: expected an observation problem, got a fusion rule" in result.output
        result = runner.invoke(main, ["reduce", "conjunctive:2", "-o", str(tmp_path / "d")])
        assert result.exit_code == 2
        assert "error: conjunctive:2: expected a control problem, got a fusion rule" in result.output
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "template, says",
        [
            (["validate", "{missing}"], "does not exist"),
            (["verify-solution", "{observation}", "{missing}", "--rule", "conjunctive:2"], "does not exist"),
            (["check", "{missing}", "--rule", "conjunctive:2"], "is neither a builtin rule (name:agents) nor a file"),
        ],
        ids=["validate", "verify-solution solution", "check problem"],
    )
    def test_a_missing_file_is_named_in_decobs_words(self, runner, arguments, template, says):
        result = runner.invoke(main, [a.format(**arguments) for a in template])
        assert result.exit_code == 2
        assert result.output == f"error: {arguments['missing']!r} {says}\n"

    @pytest.mark.parametrize(
        "template",
        [
            ["validate", "{dir}"],
            ["check", "{dir}", "--rule", "conjunctive:2"],
            ["check", "{observation}", "--rule", "{dir}"],
            ["verify-solution", "{observation}", "{dir}", "--rule", "conjunctive:2"],
        ],
        ids=["validate", "check problem", "check rule", "verify-solution solution"],
    )
    def test_a_directory_is_named_in_decobs_words(self, runner, arguments, template):
        result = runner.invoke(main, [a.format(**arguments) for a in template])
        assert result.exit_code == 2
        assert result.output == f"error: {arguments['dir']!r} is a directory\n"

    @pytest.mark.parametrize(
        "template, spec",
        [
            (["check", "{observation}", "--rule", "{}"], "conjunctive:2\n"),
            (["compare", "{}", "conjunctive:2"], "conjunctive:\u0662"),
            (["poset", "{}", "disjunctive:2"], "conjunctive:2\n"),
        ],
        ids=["check-newline", "compare-arabic-digit", "poset-newline"],
    )
    def test_a_selector_is_the_whole_argument_in_ascii_digits(
        self, runner, arguments, template, spec
    ):
        """Anything but ``name:`` and ASCII digits, start to end, is a file name."""
        result = runner.invoke(main, [spec if a == "{}" else a.format(**arguments) for a in template])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {spec!r} is neither a builtin rule (name:agents) nor a file\n"


class TestDeterminism:
    def test_witness_and_solution_bytes_are_stable(self, runner, ex1_file, tmp_path):
        pairs = []
        for tag in ("one", "two"):
            witness = tmp_path / f"w_{tag}.json"
            solution = tmp_path / f"s_{tag}.json"
            result = runner.invoke(
                main,
                [
                    "solve",
                    str(ex1_file),
                    "--rule",
                    "conjunctive:2",
                    "-o",
                    str(solution),
                    "--witness",
                    str(witness),
                ],
            )
            assert result.exit_code == 0
            pairs.append((witness.read_bytes(), solution.read_bytes()))
        assert pairs[0] == pairs[1]

    # SHA-256 of every file each command writes, keyed by its path relative to
    # the output directory.  A change to how any output file is rendered,
    # down to one byte of whitespace, fails here; the DOT files included.
    GOLDEN = {
        "check": {
            "w.json": "e04c836e3e18e3af72eb8adc31cf81b1e7200b422a2363fa90d899f4aca913a8",
        },
        "solve": {
            "s.json": "ef21e08b5cd61e200483c1e6be9c612f62487ecd508d85c2412fd956774bd54e",
            "w.json": "e04c836e3e18e3af72eb8adc31cf81b1e7200b422a2363fa90d899f4aca913a8",
        },
        "compare": {
            "sep_second_not_first.json": "cd8730a60bf3b1569051706804ba85f7faad94f6f7fa926ddf2f557ddd41257d",
            "v.json": "8dbfc8adad3124723dc7c4de3ab5bd73a59ed5dac52998e3be13216bc998c55e",
            "w_fwd.json": "f157d3e5a27a18828c1c5a98bbef6c6d945e0fd07446a9761c0b5f1e5d2aec13",
        },
        "poset": {
            "p.json": "945f1e35cfa5b2bfe8837e5d0ce3e40037baac2341c052fe7d50c73b6f7439c0",
        },
        "d2o-unary": {
            "d.bijection.json": "eed372afb037a12a361912ba8a625a1ede36436fb6c9225903200dc0daa90a6e",
            "d.problem.json": "cd8730a60bf3b1569051706804ba85f7faad94f6f7fa926ddf2f557ddd41257d",
        },
        "d2o-tagged": {
            "d.bijection.json": "b6caf6c8eb5fe2ade01ef3dbcb987d81b573518a259a0c3b99547e773fdc17db",
            "d.problem.json": "a9f84497c60ac42e1b45c7cb01fdb41d1bcbbb282afba6287f03ba476aa390fe",
        },
        "graph-problem": {
            "g.dot": "bf5c3b89be8942719f4ca5c6f6148f9140cb336d14be506063ffcefeaadcd444",
        },
        "graph-rule": {
            "g.dot": "7cea5c1ce0b0c13461f689e37ac75464e57fe0e8c5b5b083e6d9ef57e1ff3af9",
        },
        "reduce": {
            "manifest.json": "63d8ae1845638dd7941b80acc578f64f1f82cae7dad92f90bbda813039021345",
            "obs_u03b3.json": "ed9d5563cd187bf15d60ff5de7b9aacbeeae1a8e032ea5e17279184f00eb276f",
        },
    }

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_output_file_bytes_are_pinned(self, runner, ex1_file, control_file, tmp_path, command):
        out = tmp_path / "out"
        args = {
            "check": ["check", str(ex1_file), "--rule", "conjunctive:2",
                      "--witness", str(out / "w.json")],
            "solve": ["solve", str(ex1_file), "--rule", "conjunctive:2",
                      "-o", str(out / "s.json"), "--witness", str(out / "w.json")],
            "compare": ["compare", "cpda:2", "conjunctive:2", "--witness", str(out / "w"),
                        "--separating", str(out / "sep"), "-o", str(out / "v.json")],
            "poset": ["poset", "conjunctive:2", "disjunctive:2", "cpda:2",
                      "-o", str(out / "p.json")],
            "d2o-unary": ["d2o", "conjunctive:2", "--encoding", "unary", "-o", str(out / "d")],
            "d2o-tagged": ["d2o", "cpda:2", "--encoding", "tagged", "-o", str(out / "d")],
            "graph-problem": ["graph", str(ex1_file), "--dot", str(out / "g.dot")],
            "graph-rule": ["graph", "cpda:2", "--dot", str(out / "g.dot")],
            "reduce": ["reduce", str(control_file), "-o", str(out)],
        }[command]
        out.mkdir()
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        written = {
            path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.rglob("*")
        }
        assert written == self.GOLDEN[command]

    # The arguments of each command of GOLDEN and the files its `wrote` lines
    # name, in order: the order the files are written in.
    WROTE = {
        "check": (["check", "{problem}", "--rule", "conjunctive:2", "--witness", "{out}/w.json"],
                  ["w.json"]),
        "solve": (["solve", "{problem}", "--rule", "conjunctive:2",
                   "-o", "{out}/s.json", "--witness", "{out}/w.json"],
                  ["w.json", "s.json"]),
        "compare": (["compare", "cpda:2", "conjunctive:2", "--witness", "{out}/w",
                     "--separating", "{out}/sep", "-o", "{out}/v.json"],
                    ["w_fwd.json", "sep_second_not_first.json", "v.json"]),
        "poset": (["poset", "conjunctive:2", "disjunctive:2", "cpda:2", "-o", "{out}/p.json"],
                  ["p.json"]),
        "d2o-unary": (["d2o", "conjunctive:2", "--encoding", "unary", "-o", "{out}/d"],
                      ["d.problem.json", "d.bijection.json"]),
        "d2o-tagged": (["d2o", "cpda:2", "--encoding", "tagged", "-o", "{out}/d"],
                       ["d.problem.json", "d.bijection.json"]),
        "graph-problem": (["graph", "{problem}", "--dot", "{out}/g.dot"], ["g.dot"]),
        "graph-rule": (["graph", "cpda:2", "--dot", "{out}/g.dot"], ["g.dot"]),
        "reduce": (["reduce", "{control}", "-o", "{out}"], ["obs_u03b3.json", "manifest.json"]),
    }

    @pytest.mark.parametrize("command", sorted(WROTE))
    def test_wrote_lines_are_pinned(self, runner, ex1_file, control_file, tmp_path, command):
        out = tmp_path / "out"
        args, names = self.WROTE[command]
        args = [a.format(problem=ex1_file, control=control_file, out=out) for a in args]
        out.mkdir()
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        wrote = [line for line in result.output.splitlines() if line.startswith("wrote ")]
        assert wrote == [f"wrote {out / name}" for name in names]
        assert sorted(names) == sorted(self.GOLDEN[command])

    def test_dot_bytes_are_stable(self, runner, ex1_file, tmp_path):
        outputs = []
        for tag in ("one", "two"):
            dot = tmp_path / f"{tag}.dot"
            runner.invoke(main, ["graph", str(ex1_file), "--dot", str(dot)])
            outputs.append(dot.read_bytes())
        assert outputs[0] == outputs[1]


def _ambiguous_problem() -> dict:
    """Solvable, but the strings `a b` and `ab` share the witness key "ab"."""
    return {
        "type": "observation",
        "agents": 1,
        "alphabet": ["a", "b", "ab"],
        "L": [["a", "b"], ["ab"]],
        "K": [["ab"]],
        "observations": [{"kind": "projection", "observable": ["a", "b", "ab"]}],
    }


class TestExitCodes:
    @pytest.mark.parametrize("command", [None, *main.commands])
    def test_help_exits_0(self, runner, command):
        result = runner.invoke(main, [command, "--help"] if command else ["--help"])
        assert result.exit_code == 0, result.output
        assert "Usage:" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "{problem}", "--rule", "conjunctive:2", "--witness", "{out}"],
            ["solve", "{problem}", "--rule", "conjunctive:2", "-o", "{out}"],
            ["compare", "cpda:2", "conjunctive:2", "-o", "{out}"],
            ["poset", "cpda:2", "conjunctive:2", "-o", "{out}"],
            ["d2o", "conjunctive:2", "-o", "{out}"],
        ],
        ids=lambda args: args[0],
    )
    def test_unwritable_output_exits_2(self, runner, ex1_file, tmp_path, args):
        out = tmp_path / "missing" / "out.json"
        args = [a.format(problem=ex1_file, out=out) for a in args]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        written = f"{out}.problem.json" if args[0] == "d2o" else str(out)
        assert result.output.endswith(f"error: a parent of {written!r} does not exist\n")

    def test_ambiguous_witness_keys_exit_2_and_write_nothing(self, runner, tmp_path):
        problem = tmp_path / "amb.json"
        dump_json(_ambiguous_problem(), problem)
        witness = tmp_path / "w.json"
        result = runner.invoke(
            main, ["check", str(problem), "--rule", "conjunctive:1", "--witness", str(witness)]
        )
        assert result.exit_code == 2, result.output
        assert "node keys are ambiguous" in result.output
        assert "SOLVABLE" not in result.output
        assert not witness.exists()

    def test_unwritable_solution_leaves_no_witness(self, runner, ex1_file, tmp_path):
        witness = tmp_path / "w.json"
        result = runner.invoke(
            main,
            [
                "solve", str(ex1_file), "--rule", "conjunctive:2",
                "--witness", str(witness), "-o", str(tmp_path / "missing" / "s.json"),
            ],
        )
        assert result.exit_code == 2, result.output
        assert not witness.exists()
        assert "wrote" not in result.output

    def test_unwritable_witness_leaves_no_solution(self, runner, ex1_file, tmp_path):
        solution = tmp_path / "s.json"
        result = runner.invoke(
            main,
            [
                "solve", str(ex1_file), "--rule", "conjunctive:2",
                "-o", str(solution), "--witness", str(tmp_path / "missing" / "w.json"),
            ],
        )
        assert result.exit_code == 2, result.output
        assert not solution.exists()
        assert "wrote" not in result.output

    def test_ambiguous_witness_keys_on_solve_write_no_solution(self, runner, tmp_path):
        problem = tmp_path / "amb.json"
        dump_json(_ambiguous_problem(), problem)
        solution, witness = tmp_path / "s.json", tmp_path / "w.json"
        result = runner.invoke(
            main,
            [
                "solve", str(problem), "--rule", "conjunctive:1",
                "--witness", str(witness), "-o", str(solution),
            ],
        )
        assert result.exit_code == 2, result.output
        assert "node keys are ambiguous" in result.output
        assert not solution.exists() and not witness.exists()

    def test_every_file_is_rendered_before_any_is_written(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(files, "bijection_to_obj", lambda rule, problem: {1: 2})
        result = runner.invoke(main, ["d2o", "conjunctive:2", "-o", str(tmp_path / "p")])
        assert result.exit_code == 4, result.output
        assert result.output.startswith("error: internal: TypeError: ")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_bijection_leaves_no_problem_file(self, runner, tmp_path):
        (tmp_path / "d.bijection.json").mkdir()
        result = runner.invoke(main, ["d2o", "conjunctive:2", "-o", str(tmp_path / "d")])
        assert result.exit_code == 2, result.output
        assert "wrote" not in result.output
        assert not (tmp_path / "d.problem.json").exists()

    @pytest.mark.parametrize(
        "args, directory",
        [
            (["d2o", "conjunctive:2", "-o", "{dir}/d"], "{dir}/d.bijection.json"),
            (["check", "{problem}", "--rule", "conjunctive:2", "--witness", "{dir}/w"], "{dir}/w"),
            (["poset", "cpda:2", "conjunctive:2", "-o", "{dir}/p"], "{dir}/p"),
            (["reduce", "{control}", "-o", "{dir}"], "{dir}/manifest.json"),
            (["graph", "conjunctive:2", "--dot", "{dir}/d.dot"], "{dir}/d.dot"),
        ],
        ids=["d2o", "check", "poset", "reduce", "graph"],
    )
    def test_an_output_directory_is_named_in_decobs_words(
        self, runner, ex1_file, control_file, tmp_path, args, directory
    ):
        out = tmp_path / "out"
        out.mkdir()
        names = {"dir": out, "problem": ex1_file, "control": control_file}
        directory = directory.format(**names)
        Path(directory).mkdir()
        result = runner.invoke(main, [a.format(**names) for a in args])
        assert result.exit_code == 2, result.output
        assert result.output.endswith(f"error: {directory!r} is a directory\n"), result.output
        assert "wrote" not in result.output and "Errno" not in result.output
        assert [path.name for path in out.iterdir()] == [Path(directory).name]

    @pytest.mark.parametrize(
        "args, path, message",
        [
            (["reduce", "{control}", "-o", "{file}/sub"], "{file}/sub", "{!r} is not a directory"),
            (
                ["d2o", "conjunctive:2", "-o", "{file}/x"],
                "{file}/x.problem.json",
                "a parent of {!r} is not a directory",
            ),
            (
                ["compare", "cpda:2", "conjunctive:2", "--separating", "{file}/s"],
                "{file}/s_second_not_first.json",
                "a parent of {!r} is not a directory",
            ),
        ],
        ids=["reduce", "d2o", "compare"],
    )
    def test_an_output_under_a_regular_file_is_named_in_decobs_words(
        self, runner, control_file, tmp_path, args, path, message
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / "f").write_text("kept")
        names = {"file": out / "f", "control": control_file}
        result = runner.invoke(main, [a.format(**names) for a in args])
        assert result.exit_code == 2, result.output
        expected = message.format(path.format(**names))
        assert result.output.endswith(f"error: {expected}\n"), result.output
        assert "wrote" not in result.output and "Errno" not in result.output
        assert [p.name for p in out.iterdir()] == ["f"]
        assert (out / "f").read_text() == "kept"

    @pytest.mark.parametrize(
        "rules", [("conjunctive:2", "disjunctive:2"), ("cpda:2", "conjunctive:2")]
    )
    def test_unwritable_verdict_leaves_no_witness_or_separating_file(
        self, runner, tmp_path, rules
    ):
        result = runner.invoke(
            main,
            [
                "compare", *rules, "--witness", str(tmp_path / "w"),
                "--separating", str(tmp_path / "s"), "-o", str(tmp_path / "missing" / "v.json"),
            ],
        )
        assert result.exit_code == 2, result.output
        assert "wrote" not in result.output
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_manifest_leaves_no_problem_files(self, runner, control_file, tmp_path):
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        result = runner.invoke(main, ["reduce", str(control_file), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert "wrote" not in result.output
        assert [path.name for path in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize(
        "args, patched, failing, message",
        [
            pytest.param(
                ["check", "{problem}", "--rule", "conjunctive:2", "--witness", "{out}"],
                "verify_morphism",
                lambda m: False,
                "found morphism failed verification",
                id="check",
            ),
            pytest.param(
                ["solve", "{problem}", "--rule", "conjunctive:2", "-o", "{out}"],
                "check_solution",
                lambda p, sol, r: False,
                "extracted solution failed verification",
                id="solve",
            ),
            pytest.param(
                ["d2o", "conjunctive:2", "-o", "{out}"],
                "verify_d2o",
                lambda p, r: False,
                "conversion failed its isomorphism check",
                id="d2o",
            ),
        ],
    )
    def test_internal_failure_exits_4(
        self, runner, ex1_file, tmp_path, monkeypatch, args, patched, failing, message
    ):
        monkeypatch.setattr(f"decobs.cli.{patched}", failing)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        args = [a.format(problem=ex1_file, out=out_dir / "o") for a in args]
        result = runner.invoke(main, args)
        assert result.exit_code == 4
        assert f"error: internal: RuntimeError: {message}" in result.output
        assert "SOLVABLE" not in result.output and "wrote" not in result.output
        assert list(out_dir.iterdir()) == []

    def test_an_odd_cycle_is_unsolvable_by_search_alone(self, runner, tmp_path):
        """XNOR over two agents, where only the search refutes the problem
        (see test_morphism)."""
        rule, problem = tmp_path / "xnor.json", tmp_path / "cycle.json"
        dump_json(
            {
                "type": "fusion_rule",
                "agents": 2,
                "decisions": ["0", "1"],
                "domain": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
                "output": [1, 0, 0, 1],
            },
            rule,
        )
        strings = [[f"s{k}"] for k in range(4)]
        dump_json(
            {
                "type": "observation",
                "agents": 2,
                "alphabet": [s for (s,) in strings],
                "L": strings,
                "K": [strings[0], strings[2], strings[3]],
                "observations": [
                    {"kind": "table", "map": [list(entry) for entry in zip(strings, labels)]}
                    for labels in ("baab", "aabb")
                ],
            },
            problem,
        )
        result = runner.invoke(main, ["check", str(problem), "--rule", str(rule)])
        assert result.exit_code == 1, result.output
        assert "UNSOLVABLE" in result.output
        result = runner.invoke(main, ["check", str(problem), "--rule", str(rule), "--budget", "5"])
        assert result.exit_code == 3, result.output

    def test_separating_problem_failing_its_check_exits_4(self, runner, tmp_path, monkeypatch):
        convert = decision_graph_to_observation
        monkeypatch.setattr(
            "decobs.cli.decision_graph_to_observation",
            lambda rule: dataclasses.replace(convert(rule), K=()),
        )
        result = runner.invoke(
            main, ["compare", "cpda:2", "conjunctive:2", "--separating", str(tmp_path / "s")]
        )
        assert result.exit_code == 4
        assert (
            "error: internal: RuntimeError: separating problem failed its isomorphism check"
            in result.output
        )
        assert "wrote" not in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "{problem}", "--rule", "conjunctive:2"],
            ["solve", "{problem}", "--rule", "conjunctive:2", "-o", "{out}"],
            ["compare", "cpda:2", "conjunctive:2"],
            ["poset", "cpda:2", "conjunctive:2"],
        ],
        ids=lambda args: args[0],
    )
    def test_negative_budget_exits_2(self, runner, ex1_file, tmp_path, args):
        args = [a.format(problem=ex1_file, out=tmp_path / "s.json") for a in args]
        result = runner.invoke(main, [*args, "--budget", "-1"])
        assert result.exit_code == 2, result.output
        assert "exceeded" not in result.output

    def test_solution_with_two_decisions_for_one_label_exits_2(self, runner, ex1_file, tmp_path):
        # Keeping the last decision for ["a"] would make this a solution of ex1.
        solution = tmp_path / "sol.json"
        tables = [
            [[["a"], "1"], [["a"], "0"], [[], "1"]],
            [[[], "0"], [["b"], "1"], [["b", "b"], "0"]],
        ]
        dump_json(tables, solution)
        result = runner.invoke(
            main, ["verify-solution", str(ex1_file), str(solution), "--rule", "conjunctive:2"]
        )
        assert result.exit_code == 2, result.output
        assert "has two decisions" in result.output

    @pytest.mark.parametrize("label", [{"x": 1}, [["b"]]], ids=["object", "nested-array"])
    def test_malformed_solution_label_exits_2(self, runner, ex1_file, tmp_path, label):
        solution = tmp_path / "sol.json"
        dump_json([[[label, "0"]], [[["b"], "1"]]], solution)
        result = runner.invoke(
            main, ["verify-solution", str(ex1_file), str(solution), "--rule", "conjunctive:2"]
        )
        assert result.exit_code == 2, result.output
        assert "error: tables[0] label" in result.output

    def test_boolean_rule_output_exits_2(self, runner, tmp_path):
        rule = files.rule_to_obj(builtin_rule("conjunctive", 1))
        rule["output"] = [False, True]
        path = tmp_path / "bool.json"
        dump_json(rule, path)
        result = runner.invoke(main, ["graph", str(path)])
        assert result.exit_code == 2
        assert "'output' must be an array of 0/1" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["graph", "conjunctive:{n}"],
            ["d2o", "const1:{n}", "-o", "{out}"],
            ["compare", "const0:{n}", "const1:{n}"],
        ],
        ids=lambda args: args[0],
    )
    def test_an_agent_count_too_large_to_index_exits_2(self, runner, tmp_path, args):
        n = sys.maxsize + 1
        result = runner.invoke(main, [a.format(n=n, out=tmp_path / "d") for a in args])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == f"error: agent count must be at most {sys.maxsize}, got {n}\n"
        assert list(tmp_path.iterdir()) == []

    def test_real_process_exits_2_without_traceback(self, tmp_path):
        out = tmp_path / "missing" / "v.json"
        proc = subprocess.run(
            [sys.executable, "-m", "decobs", "compare", "cpda:2", "conjunctive:2", "-o", str(out)],
            capture_output=True,
            text=True,
            env=process_env(),
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_a_problem_can_be_read_from_standard_input(self, ex1):
        proc = subprocess.run(
            [sys.executable, "-m", "decobs", "validate", "/dev/stdin"],
            input=files.to_json(files.problem_to_obj(ex1)),
            capture_output=True,
            text=True,
            env=process_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "valid\n"), proc.stderr


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


class TestInterrupt:
    """Ctrl-C exits 130, never 1, which means a negative answer."""

    def test_an_interrupted_search_exits_130(self, runner, monkeypatch):
        monkeypatch.setattr("decobs.cli.relation_matrix", _interrupt)
        result = runner.invoke(main, ["poset", "conjunctive:2", "disjunctive:2"])
        assert (result.exit_code, result.stdout, result.stderr) == (130, "", "error: interrupted\n")

    def test_an_interrupted_write_leaves_no_file(self, runner, tmp_path, monkeypatch):
        written = []
        write_text = Path.write_text

        def write_once(path, *args, **kwargs):
            if written:
                raise KeyboardInterrupt
            written.append(path)
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", write_once)
        result = runner.invoke(main, ["d2o", "conjunctive:2", "-o", str(tmp_path / "d")])
        assert (result.exit_code, result.stdout, result.stderr) == (130, "", "error: interrupted\n")
        assert written == [tmp_path / "d.problem.json"]
        assert list(tmp_path.iterdir()) == []


class TestCollectorPause:
    """Each command runs with the cyclic garbage collector paused and leaves
    it as the caller had it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize(
        "args, code",
        [
            pytest.param(["check", "{problem}", "--rule", "conjunctive:2"], 0, id="solvable"),
            pytest.param(["check", "{problem}", "--rule", "const0:2"], 1, id="unsolvable"),
            pytest.param(["check", "{problem}", "--rule", "conjunctive:3"], 2, id="arity"),
            pytest.param(["check", "{problem}", "--bogus"], 2, id="usage"),
            pytest.param(
                ["check", "{problem}", "--rule", "{xnor}", "--budget", "1"], 3, id="budget"
            ),
            pytest.param(["check", "{problem}", "--rule", "conjunctive:2"], 4, id="internal"),
            pytest.param(["check", "--help"], 0, id="help"),
            pytest.param(["poset", "conjunctive:2", "disjunctive:2"], 130, id="interrupt"),
        ],
    )
    def test_state_is_restored(
        self, runner, ex1_file, tmp_path, monkeypatch, args, code, enabled
    ):
        if code == 4:  # the witness fails its self-check
            monkeypatch.setattr("decobs.cli.verify_morphism", lambda m: False)
        if code == 130:
            monkeypatch.setattr("decobs.cli.relation_matrix", _interrupt)
        xnor = tmp_path / "xnor.json"  # a rule file keeps the search, and so --budget, in play
        dump_json(_XNOR, xnor)
        (gc.enable if enabled else gc.disable)()
        try:
            result = runner.invoke(main, [a.format(problem=ex1_file, xnor=xnor) for a in args])
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert result.exit_code == code, result.output

    def test_paused_while_loading_and_searching(self, runner, ex1_file, monkeypatch):
        seen = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                seen.append((name, gc.isenabled()))
                return fn(*args, **kwargs)

            monkeypatch.setattr(name, wrapped)

        spy("decobs.cli.find_morphism", find_morphism)
        spy("decobs.files.read_json", files.read_json)
        assert gc.isenabled()
        result = runner.invoke(main, ["check", str(ex1_file), "--rule", "conjunctive:2"])
        assert result.exit_code == 0, result.output
        assert seen == [("decobs.files.read_json", False), ("decobs.cli.find_morphism", False)]
        assert gc.isenabled()


def _json_values():
    scalars = st.none() | st.booleans() | st.integers(-2, 3) | st.text("ab 01", max_size=3)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["type", "agents", "kind", "map"]), inner, max_size=2),
        max_leaves=6,
    )


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def _mutated(draw, doc):
    """A copy of a JSON document with one to three edits, each of which
    replaces a value with a random one, drops a key or list element, or
    overwrites a value with a copy of another part of the document."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        action = draw(st.sampled_from(["replace", "drop", "copy"]))
        if action == "copy":
            value = json.loads(json.dumps(_at(doc, draw(st.sampled_from(paths)))))
        elif action == "replace":
            value = draw(_json_values())
        if not path:
            doc = doc if action == "drop" else value
        elif action == "drop":
            del _at(doc, path[:-1])[path[-1]]
        else:
            _at(doc, path[:-1])[path[-1]] = value
    return doc


def _base_documents() -> dict[str, object]:
    """A solvable problem with one projection and one table agent, a rule
    file for it, and its solution."""
    problem = {
        "type": "observation",
        "agents": 2,
        "alphabet": ["a", "b"],
        "L": [["a"], ["b"], ["a", "b"], ["b", "b"]],
        "K": [["b"]],
        "observations": [
            {"kind": "projection", "observable": ["a"]},
            {"kind": "table", "map": [[["a"], "x"], [["b"], "y"], [["a", "b"], "x"], [["b", "b"], "x"]]},
        ],
    }
    rule = files.rule_to_obj(builtin_rule("conjunctive", 2))
    solution = [[[[], "1"], [["a"], "0"]], [["x", "0"], ["y", "1"]]]
    return {"problem": problem, "rule": rule, "solution": solution}


class TestMutatedInputs:
    def test_base_documents_are_a_verified_solution(self, runner, tmp_path):
        paths = {}
        for name, doc in _base_documents().items():
            paths[name] = tmp_path / f"{name}.json"
            dump_json(doc, paths[name])
        result = runner.invoke(
            main,
            ["verify-solution", str(paths["problem"]), str(paths["solution"]), "--rule", str(paths["rule"])],
        )
        assert result.exit_code == 0 and "verified" in result.output

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_exit_0_1_or_2_without_a_crash(self, runner, tmp_path, data):
        paths = {}
        for name, doc in _base_documents().items():
            if data.draw(st.booleans(), label=f"mutate {name}"):
                doc = data.draw(_mutated(doc), label=name)
            paths[name] = tmp_path / f"{name}.json"
            dump_json(doc, paths[name])
        problem, rule, solution = (str(paths[k]) for k in ("problem", "rule", "solution"))
        for args in (
            ["validate", problem],
            ["check", problem, "--rule", rule],
            ["graph", problem],
            ["graph", rule],
            ["verify-solution", problem, solution, "--rule", rule],
            ["compare", rule, "conjunctive:2"],
            ["poset", rule, "conjunctive:2"],
            ["d2o", rule, "-o", str(tmp_path / "x")],
            ["graph", solution],
        ):
            result = runner.invoke(main, args)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                args,
                result.exception,
            )
            assert result.exit_code in (0, 1, 2), (args, result.output)
