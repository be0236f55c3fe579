import itertools
import json
import random

import pytest
from click.testing import CliRunner

from decobs import (
    build_decision_graph,
    build_observation_graph,
    builtin_rule,
    decision_graph_to_observation,
    verify_morphism,
)
from decobs import files
from decobs.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def ex1_file(ex1, tmp_path):
    path = tmp_path / "ex1.json"
    files.dump_json(files.problem_to_obj(ex1), path)
    return path


@pytest.fixture
def control_file(gamma_control, tmp_path):
    path = tmp_path / "control.json"
    files.dump_json(files.problem_to_obj(gamma_control), path)
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
        files.dump_json(obj, path)
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2
        assert "K is not a subset of L" in result.output

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
        reduced = files.load_problem(outdir / "obs_u03b3.json")
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
        files.dump_json(files.problem_to_obj(quiet), path)
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
        files.dump_json(files.problem_to_obj(broken), path)
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
        assert verify_morphism(loaded).ok

    def test_unsolvable(self, runner, ex1_file):
        result = runner.invoke(main, ["check", str(ex1_file), "--rule", "const0:2"])
        assert result.exit_code == 1
        assert "UNSOLVABLE" in result.output

    def test_conflicting_empty_class_unsolvable(self, runner, tmp_path):
        obj = {
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
        path = tmp_path / "conflict.json"
        files.dump_json(obj, path)
        result = runner.invoke(main, ["check", str(path), "--rule", "cpda:2"])
        assert result.exit_code == 1

    def test_budget_exit_code(self, runner, ex1_file):
        result = runner.invoke(
            main, ["check", str(ex1_file), "--rule", "conjunctive:2", "--budget", "1"]
        )
        assert result.exit_code == 3

    def test_arity_mismatch(self, runner, ex1_file):
        result = runner.invoke(main, ["check", str(ex1_file), "--rule", "conjunctive:3"])
        assert result.exit_code == 2

    def test_bad_rule_selector(self, runner, ex1_file):
        result = runner.invoke(main, ["check", str(ex1_file), "--rule", "magic:2"])
        assert result.exit_code == 2

    def test_rule_file_selector(self, runner, ex1_file, tmp_path):
        rule_path = tmp_path / "conj.json"
        files.dump_json(files.rule_to_obj(builtin_rule("conjunctive", 2)), rule_path)
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
        files.dump_json(obj, problem)
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
        assert verify_morphism(fwd).ok and verify_morphism(bwd).ok
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["relation"] == "equivalent"
        assert verdict["witness_fwd"] is not None

    def test_separating_files(self, runner, tmp_path):
        prefix = tmp_path / "sep"
        result = runner.invoke(
            main,
            ["compare", "conjunctive:2", "disjunctive:2", "--separating", str(prefix)],
        )
        assert result.exit_code == 0
        first = files.load_problem(f"{prefix}_first_not_second.json")
        expected = decision_graph_to_observation(builtin_rule("conjunctive", 2)).problem
        assert first == expected
        check = runner.invoke(
            main, ["check", f"{prefix}_first_not_second.json", "--rule", "disjunctive:2"]
        )
        assert check.exit_code == 1

    def test_arity_mismatch(self, runner):
        result = runner.invoke(main, ["compare", "conjunctive:2", "conjunctive:3"])
        assert result.exit_code == 2


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


class TestD2O:
    def test_writes_problem_and_bijection(self, runner, tmp_path):
        prefix = tmp_path / "conj"
        result = runner.invoke(
            main, ["d2o", "conjunctive:2", "--encoding", "unary", "-o", str(prefix)]
        )
        assert result.exit_code == 0
        problem = files.load_problem(f"{prefix}.problem.json")
        expected = decision_graph_to_observation(builtin_rule("conjunctive", 2), "unary")
        assert problem == expected.problem
        bij = json.loads((tmp_path / "conj.bijection.json").read_text())
        assert len(bij) == 4
        assert [["1", "1"], ["0_1", "1_1", "0_2", "1_2"]] in bij

    def test_tagged_cpda_has_six_strings(self, runner, tmp_path):
        prefix = tmp_path / "cpda"
        result = runner.invoke(
            main, ["d2o", "cpda:2", "--encoding", "tagged", "-o", str(prefix)]
        )
        assert result.exit_code == 0
        problem = files.load_problem(f"{prefix}.problem.json")
        assert len(problem.L) == 6


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
        files.dump_json(obj, path)
        result = runner.invoke(main, ["graph", str(path)])
        assert result.exit_code == 2
        assert "'agents' must be an integer" in result.output


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

    def test_dot_bytes_are_stable(self, runner, ex1_file, tmp_path):
        outputs = []
        for tag in ("one", "two"):
            dot = tmp_path / f"{tag}.dot"
            runner.invoke(main, ["graph", str(ex1_file), "--dot", str(dot)])
            outputs.append(dot.read_bytes())
        assert outputs[0] == outputs[1]
