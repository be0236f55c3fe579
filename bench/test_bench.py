"""Self-tests of the benchmark: deterministic generators, oracles that agree
with exhaustive enumeration, the rules relation table against brute force,
outcome classification, the span installer and the speed probe.

    python3 -m pytest bench/test_bench.py -q
"""

import itertools
import random
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from click.testing import CliRunner  # noqa: E402

import decobs  # noqa: E402
from decobs import builtin_rule, files, solvable_by_enumeration  # noqa: E402
from decobs.cli import main as cli  # noqa: E402


@pytest.mark.parametrize("workload", ["solve", "check", "rules", "tail", "rules7"])
def test_generators_are_deterministic(workload):
    first, again = workloads.build_ops(workload, 7), workloads.build_ops(workload, 7)
    assert [op.args for op in first] == [op.args for op in again]
    assert workloads.input_files(first) == workloads.input_files(again)
    other = workloads.build_ops(workload, 8)
    assert ([op.args for op in other], workloads.input_files(other)) != (
        [op.args for op in first],
        workloads.input_files(first),
    )


def test_solve_problems_are_solvable_by_construction():
    for op in workloads.build_ops("solve", 3):
        assert oracles.solvable(op.problem, "conjunctive")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_check_verdicts_do_not_depend_on_the_seed(seed):
    for op in workloads.build_ops("check", seed):
        k = int(op.problem.name[1:])
        assert oracles.solvable(op.problem, op.rule.split(":")[0]) == (k // 2 % 2 == 0)


def _small_problems():
    rng = random.Random(0)
    for k in range(40):
        rule = ("conjunctive", "disjunctive")[k % 2]
        yield workloads.check_problem(rng, f"t{k}", rng.randint(3, 9), rule, add_class=bool(k // 2 % 2))
    for k in range(20):
        yield workloads.solve_problem(rng, f"s{k}", rng.randint(2, 4))


def test_closed_form_oracles_agree_with_enumeration():
    seen = set()
    for p in _small_problems():
        problem = files.parse_problem(p.to_obj())
        for rule in ("conjunctive", "disjunctive"):
            expected = solvable_by_enumeration(problem, builtin_rule(rule, 3))
            assert oracles.solvable(p, rule) == expected, (p.name, rule)
            seen.add((rule, expected))
    assert len(seen) == 4  # both verdicts under both rules


def _pairwise_morphism(sources, colours, images, image_colours) -> bool:
    """The morphism definition itself: colours kept, and no image pair
    differs at a position where its source pair agrees."""
    if list(colours) != list(image_colours):
        return False
    for u, v in itertools.combinations(range(len(sources)), 2):
        for i in range(len(sources[u])):
            if sources[u][i] == sources[v][i] and images[u][i] != images[v][i]:
                return False
    return True


def test_factorisation_check_is_the_morphism_condition():
    rng = random.Random(1)
    outcomes = set()
    for p in _small_problems():
        colours = [int(s in p.K) for s in p.L]
        for rule in ("conjunctive", "disjunctive"):
            domain = oracles.domain(rule, 3)
            by_colour = {c: [t for t in domain if oracles.fused(rule, t) == c] for c in (0, 1)}
            for _ in range(20):
                images = [rng.choice(by_colour[c]) for c in colours]
                ok = oracles.factorises(3, p.labels, colours, images, rule) is None
                image_colours = [oracles.fused(rule, t) for t in images]
                assert ok == _pairwise_morphism(p.labels, colours, images, image_colours)
                outcomes.add(ok)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_restated_rules_match_decobs(n):
    for name in workloads.BUILTIN_RULES:
        rule = builtin_rule(name, n)
        assert set(oracles.domain(name, n)) == set(rule.domain)
        assert all(oracles.fused(name, c) == rule.output(c) for c in rule.domain)


def test_relation_table_matches_brute_force_at_n2():
    rules = {name: builtin_rule(name, 2) for name in workloads.BUILTIN_RULES}

    def maps_into(a, b) -> bool:
        # Every colour-preserving node map, checked pair by pair.
        candidates = [[t for t, tc in zip(b.domain, b.outputs) if tc == c] for c in a.outputs]
        return any(
            _pairwise_morphism(a.domain, a.outputs, images, a.outputs)
            for images in itertools.product(*candidates)
        )

    for x, y in itertools.product(rules, repeat=2):
        assert oracles.at_most(x, y) == maps_into(rules[x], rules[y]), (x, y)


def _run_smallest(workload, tmp_path):
    ops = [op for op in workloads.build_ops(workload, 1) if op.problem is not None]
    op = min(ops, key=lambda o: len(o.problem.L))
    for name, data in workloads.input_files([op]).items():
        (tmp_path / name).write_bytes(data)
    result = CliRunner().invoke(cli, [a.replace("{dir}", str(tmp_path)) for a in op.args])
    return op, result


def test_judge_accepts_checked_outputs_and_rejects_tampered_ones(tmp_path):
    op, result = _run_smallest("solve", tmp_path)
    assert run.judge(op, result, tmp_path, {}) == ("ok", None)
    solution = tmp_path / op.outputs[0]
    solution.write_text(solution.read_text().replace('"1"', '"0"'))
    status, reason = run.judge(op, result, tmp_path, {})
    assert status == "wrong" and "fuse" in reason


def test_judge_counts_an_unsolvable_verdict_against_its_oracle(tmp_path):
    op, result = _run_smallest("solve", tmp_path)
    said_unsolvable = SimpleNamespace(exception=SystemExit(1), exit_code=1, stdout="UNSOLVABLE\n", stderr="")
    assert run.judge(op, said_unsolvable, tmp_path, {})[0] == "wrong"


def test_exceptions_and_timeouts_are_failed_ops_not_verdicts(tmp_path):
    op, _ = _run_smallest("check", tmp_path)
    crashed = SimpleNamespace(exception=RecursionError("depth"), exit_code=1, stdout="", stderr="")
    assert run.judge(op, crashed, tmp_path, {})[0] == "failed"
    assert run.judge(op, None, tmp_path, {}) == ("failed", "timeout")
    usage = SimpleNamespace(exception=SystemExit(2), exit_code=2, stdout="", stderr="error: bad")
    assert run.judge(op, usage, tmp_path, {})[0] == "failed"


def test_spans_cover_every_namespace_and_uninstall_cleanly(tmp_path):
    cli_module, compare_module = sys.modules["decobs.cli"], sys.modules["decobs.compare"]
    originals = (cli_module.check_solution, cli_module.find_morphism, compare_module.find_morphism)
    op, _ = _run_smallest("solve", tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # One wrapper per function object, whatever name a module gives it.
        assert cli_module.check_solution is sys.modules["decobs.morphism"].verify_solution
        assert cli_module.find_morphism is compare_module.find_morphism
        assert decobs.compare is compare_module.compare
        root = tracer.span(tracing.ROOT, lambda args: CliRunner().invoke(cli, args))
        result = root([a.replace("{dir}", str(tmp_path)) for a in op.args])
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    assert (cli_module.check_solution, cli_module.find_morphism, compare_module.find_morphism) == originals
    assert tracer.calls["morphism.verify_solution"] == 1 and tracer.calls["morphism.find_morphism"] == 1
    assert sum(tracer.self_time.values()) == pytest.approx(tracer.inclusive[tracing.ROOT])


def test_speed_probe_samples_inside_an_interval_and_takes_its_own_time_off():
    # Importing run starts no timer; only the script's own set-up is probed.
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    probe = speed.SpeedProbe()
    t = time.perf_counter()
    with probe:
        end = time.process_time() + 0.3
        while time.process_time() < end:
            speed.reference_loop()
    elapsed = time.perf_counter() - t
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(probe.loops) >= 3
    assert 0 < probe.stolen < elapsed
    assert probe.scale() == pytest.approx(speed.REFERENCE_S / (sum(probe.loops) / len(probe.loops)))
