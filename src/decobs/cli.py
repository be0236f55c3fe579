"""Command line front end.

Exit codes: 0 for a positive analysis result, 1 for a negative one
(unsolvable, controllability violation, bad solution), 2 for invalid input
(files that cannot be read or written, text with no UTF-8 spelling, and
witnesses whose node keys are ambiguous), 3 when a search budget was
exhausted, 4 for an internal error, and 130 when interrupted (Ctrl-C).
Commands raise library exceptions; ``_Main.invoke`` is the one place that
turns them into exit codes, a controllability violation's exit 1 included.
``_read`` reads every file argument in one step and names a missing path or
a directory in one message; every argument that names a rule or a problem
goes through ``_load``, which also checks the result's kind.  Each command
hands every file it writes to ``_write`` in one call, as a JSON value or as
DOT text; ``_write`` encodes them all to UTF-8 before it opens any file, so
the command leaves all of its output files or none of those it wrote.  An
output path that is a directory, or lies under a regular file or a missing
directory, exits 2 naming the fault.

``_Main.invoke`` also pauses the cyclic garbage collector for the life of
each command and turns it back on afterwards, unless the caller had it off.
Loading, checking and searching make little cyclic garbage, yet they allocate
enough tuples to trigger collections that rescan the parsed JSON tree and
everything built from it again and again; skipping those rescans changes no
result, and what garbage there is waits for the next collection.  A rule
argument's agent count is compared with the problem's, or with the other
rules', before a builtin rule is built, so a mismatched ``conjunctive:40``
exits 2 without building 2^40 combinations.
"""

from __future__ import annotations

import gc
import re
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

import click

from . import files
from .compare import check_arities, compare as run_compare, relation_matrix
from .errors import (
    ArityMismatch,
    ControllabilityViolation,
    FileFormatError,
    SearchLimitExceeded,
)
from .graph import (
    ENCODINGS,
    build_decision_graph,
    build_observation_graph,
    decision_graph_to_observation,
    export_dot,
)
from .model import (
    BUILTIN_RULES,
    ControlProblem,
    FusionRule,
    ObservationProblem,
    builtin_rule,
    reduce_control,
    validate_problem,
)
from .morphism import Morphism, extract_solution, find_morphism, verify_d2o, verify_morphism
from .morphism import verify_solution as check_solution

_SELECTOR = re.compile(r"([a-z0-9_]+):([0-9]+)")  # matched whole
_BUDGET = click.IntRange(min=0)

# How a wrong-kind message names each kind of argument.
_KINDS = {
    FusionRule: "a fusion rule",
    ObservationProblem: "an observation problem",
    ControlProblem: "a control problem",
}

_PHRASES = {
    "equivalent": "equivalent",
    "first_strictly_less": "second strictly more permissive",
    "first_strictly_more": "first strictly more permissive",
    "incomparable": "incomparable",
}


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _write(outputs: list[tuple[str | Path, Any]]) -> None:
    """Write each (path, value) pair in order, then print one ``wrote``
    line per file.  Every value is encoded before any file is opened: text,
    such as DOT, as it is and anything else through ``files.to_json``, to
    UTF-8.  A write that fails removes the files this call already wrote,
    overwritten ones included, and re-raises; a path that is a directory, or
    has a regular file or nothing for a parent, exits 2 saying so."""
    blobs = [(p, (v if isinstance(v, str) else files.to_json(v)).encode()) for p, v in outputs]
    written: list[str | Path] = []
    try:
        for path, blob in blobs:
            try:
                Path(path).write_bytes(blob)
            except IsADirectoryError:
                _fail(2, f"{str(path)!r} is a directory")
            except NotADirectoryError:
                _fail(2, f"a parent of {str(path)!r} is not a directory")
            except FileNotFoundError:
                _fail(2, f"a parent of {str(path)!r} does not exist")
            written.append(path)
    except BaseException:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise
    for path, _ in outputs:
        click.echo(f"wrote {path}")


def _require_valid(problem: ObservationProblem) -> None:
    violations = validate_problem(problem)
    if violations:
        for violation in violations:
            click.echo(f"invalid: {violation}", err=True)
        sys.exit(2)


def _read(source: str, missing: str = "does not exist") -> Any:
    """The JSON value in the file an argument names, read in one step.  A
    missing path, or one under a regular file, exits 2 with the quoted
    argument followed by ``missing``, and a directory exits 2 saying so;
    other paths, such as ``/dev/stdin``, are read as they are."""
    try:
        return files.read_json(source)
    except (FileNotFoundError, NotADirectoryError):
        _fail(2, f"{source!r} {missing}")
    except IsADirectoryError:
        _fail(2, f"{source!r} is a directory")


def _selector(source: str) -> tuple[str, int] | None:
    """The name and agent count of a builtin ``name:agents`` selector, or
    None when ``source`` is not one."""
    match = _SELECTOR.fullmatch(source)
    if match and match.group(1) in BUILTIN_RULES:
        return match.group(1), int(match.group(2))
    return None


def _load(source: str, *expected: type) -> Any:
    """The rule or valid problem an argument names.

    A builtin ``name:agents`` selector comes first.  Anything else must be a
    file, read as a rule when only a rule is ``expected`` or its ``type`` is
    a rule's, as a problem otherwise.  Every result whose exact type is not
    ``expected`` exits 2 (a control problem is not read where only an
    observation problem is), and so does an invalid problem.
    """
    selector = _selector(source)
    if selector:
        try:
            loaded = builtin_rule(*selector)
        except ValueError as e:
            _fail(2, str(e))
    else:
        obj = _read(source, "is neither a builtin rule (name:agents) nor a file")
        as_rule = expected == (FusionRule,) or (
            isinstance(obj, dict) and obj.get("type") == files.RULE_TYPE
        )
        loaded = (files.parse_rule if as_rule else files.parse_problem)(obj)
    if type(loaded) not in expected:
        wanted = " or ".join(_KINDS[kind] for kind in expected)
        _fail(2, f"{source}: expected {wanted}, got {_KINDS[type(loaded)]}")
    if not isinstance(loaded, FusionRule):
        _require_valid(loaded)
    return loaded


def _rules(specs: Sequence[str], agree: Callable[[list[int]], None]) -> list[FusionRule]:
    """The rule each argument names, once ``agree`` has accepted the list of
    their agent counts.  A builtin selector's count is read from its text and
    its rule built only after ``agree``, which spares a mismatched builtin
    its 2^n combinations.  Every other argument, a file or a selector whose
    count ``builtin_rule`` refuses in its own words (below 1 or past
    ``sys.maxsize``), is loaded first and in order, so any error is the one
    that loading the arguments in turn would give."""
    selectors = [_selector(spec) for spec in specs]
    early = {
        k: _load(spec, FusionRule)
        for k, (spec, selector) in enumerate(zip(specs, selectors))
        if selector is None or not 1 <= selector[1] <= sys.maxsize
    }
    agree([early[k].n if k in early else selector[1] for k, selector in enumerate(selectors)])
    return [early.get(k) or _load(spec, FusionRule) for k, spec in enumerate(specs)]


def _problem_and_rule(problem_file: str, rule_spec: str) -> tuple[ObservationProblem, FusionRule]:
    problem = _load(problem_file, ObservationProblem)

    def agree(counts: list[int]) -> None:
        if counts[0] != problem.n:
            raise ArityMismatch(f"problem has {problem.n} agents, rule has {counts[0]}")

    [rule] = _rules([rule_spec], agree)
    return problem, rule


def _solve_or_exit(
    problem_file: str, rule_spec: str, budget: int | None
) -> tuple[ObservationProblem, FusionRule, Morphism]:
    """The morphism that solves the problem, or UNSOLVABLE and exit 1."""
    problem, rule = _problem_and_rule(problem_file, rule_spec)
    source = build_observation_graph(problem)
    target = build_decision_graph(rule)
    found = find_morphism(source, target, budget=budget)
    if found is None:
        click.echo("UNSOLVABLE")
        sys.exit(1)
    return problem, rule, found


class _Main(click.Group):
    """Maps the exceptions a command raises to the exit codes of the module
    docstring, with the garbage collector paused while the command runs.
    Negative results exit on their own through ``sys.exit``."""

    def invoke(self, ctx):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise  # click's own usage errors, --help and aborts
        except SearchLimitExceeded as e:
            _fail(3, str(e))
        except (ArityMismatch, FileFormatError, OSError, UnicodeEncodeError) as e:
            _fail(2, str(e))
        except ControllabilityViolation as e:
            _fail(1, str(e))
        except Exception as e:
            _fail(4, f"internal: {type(e).__name__}: {e}")
        except KeyboardInterrupt:
            _fail(130, "interrupted")
        finally:
            if enabled:
                gc.enable()


@click.group(cls=_Main)
def main():
    """Decide solvability of decentralized observation/control problems and
    compare fusion rules by searching for coloured-graph morphisms."""


@main.command()
@click.argument("problem_file")
def validate(problem_file):
    """Report every violated invariant of a problem file."""
    problem = files.parse_problem(_read(problem_file))
    violations = validate_problem(problem)
    if not violations:
        click.echo("valid")
        return
    for violation in violations:
        click.echo(violation)
    sys.exit(2)


@main.command()
@click.argument("control_file")
@click.option("-o", "--out", "outdir", required=True, type=click.Path())
@click.option("--allow-uncontrollable", is_flag=True, help="Reduce even if controllability fails.")
def reduce(control_file, outdir, allow_uncontrollable):
    """Split a control problem into per-event observation problem files."""
    problem = _load(control_file, ControlProblem)
    family = reduce_control(problem, allow_uncontrollable=allow_uncontrollable)
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        _fail(2, f"{outdir!r} is not a directory")
    manifest: dict[str, str] = {}
    outputs = []
    for reduced in family:
        base = files.sanitize_token(reduced.event)
        name = f"obs_{base}.json"
        suffix = 2
        while name in manifest:
            name = f"obs_{base}_{suffix}.json"
            suffix += 1
        manifest[name] = reduced.event
        outputs.append((out / name, files.problem_to_obj(reduced.problem)))
    outputs.append((out / "manifest.json", {"type": "manifest", "files": manifest}))
    _write(outputs)


@main.command()
@click.argument("problem_file")
@click.option("--rule", "rule_spec", required=True, help="Builtin name:agents or a rule file.")
@click.option("--witness", "witness_path", type=click.Path(), help="Write the morphism found.")
@click.option("--budget", type=_BUDGET, help="Node-expansion cap for the search.")
def check(problem_file, rule_spec, witness_path, budget):
    """Decide whether an observation problem is solvable under a rule."""
    _, _, found = _solve_or_exit(problem_file, rule_spec, budget)
    if not verify_morphism(found):
        raise RuntimeError("found morphism failed verification")
    _write([(witness_path, files.morphism_to_obj(found))] if witness_path else [])
    click.echo("SOLVABLE")


@main.command()
@click.argument("problem_file")
@click.option("--rule", "rule_spec", required=True, help="Builtin name:agents or a rule file.")
@click.option("-o", "--out", "solution_path", required=True, type=click.Path())
@click.option("--witness", "witness_path", type=click.Path(), help="Write the morphism found.")
@click.option("--budget", type=_BUDGET, help="Node-expansion cap for the search.")
def solve(problem_file, rule_spec, solution_path, witness_path, budget):
    """Construct and write per-agent decision tables, if any exist."""
    problem, rule, found = _solve_or_exit(problem_file, rule_spec, budget)
    solution = extract_solution(found)
    if not check_solution(problem, solution, rule):
        raise RuntimeError("extracted solution failed verification")
    outputs = [(witness_path, files.morphism_to_obj(found))] if witness_path else []
    outputs.append((solution_path, files.solution_to_obj(solution)))
    _write(outputs)
    click.echo("SOLVABLE")


@main.command("verify-solution")
@click.argument("problem_file")
@click.argument("solution_file")
@click.option("--rule", "rule_spec", required=True, help="Builtin name:agents or a rule file.")
def verify_solution_cmd(problem_file, solution_file, rule_spec):
    """Re-check a solution file against a problem and a rule."""
    problem, rule = _problem_and_rule(problem_file, rule_spec)
    solution = files.parse_solution(_read(solution_file))
    if check_solution(problem, solution, rule):
        click.echo("verified")
    else:
        click.echo("not a solution")
        sys.exit(1)


@main.command("compare")
@click.argument("rule_a")
@click.argument("rule_b")
@click.option("--witness", "witness_prefix", help="Write found morphisms as PREFIX_fwd/bwd.json.")
@click.option("--separating", "separating_prefix", help="Write separating problems when one exists.")
@click.option("--budget", type=_BUDGET, help="Node-expansion cap per search.")
@click.option("-o", "--out", "out_path", type=click.Path(), help="Write the verdict as JSON.")
def compare_cmd(rule_a, rule_b, witness_prefix, separating_prefix, budget, out_path):
    """Compare the permissiveness of two fusion rules."""
    first, second = _rules([rule_a, rule_b], check_arities)
    verdict = run_compare(first, second, budget=budget)
    click.echo(_PHRASES[verdict.relation])
    # Each witness's JSON value, built once for every file that holds it.
    witnesses = {
        tag: files.morphism_to_obj(witness)
        for tag, witness in (("fwd", verdict.witness_fwd), ("bwd", verdict.witness_bwd))
        if witness is not None and (witness_prefix or out_path)
    }
    outputs = (
        [(f"{witness_prefix}_{tag}.json", obj) for tag, obj in witnesses.items()]
        if witness_prefix
        else []
    )
    if separating_prefix:
        for tag, donor, witness in (
            ("first_not_second", first, verdict.witness_fwd),
            ("second_not_first", second, verdict.witness_bwd),
        ):
            if witness is None:
                problem = decision_graph_to_observation(donor)
                if not verify_d2o(problem, donor):
                    raise RuntimeError("separating problem failed its isomorphism check")
                outputs.append((f"{separating_prefix}_{tag}.json", files.problem_to_obj(problem)))
    if out_path:
        obj = {
            "type": "verdict",
            "relation": verdict.relation,
            "witness_fwd": witnesses.get("fwd"),
            "witness_bwd": witnesses.get("bwd"),
        }
        outputs.append((out_path, obj))
    _write(outputs)


@main.command()
@click.argument("rule_specs", nargs=-1, required=True)
@click.option("--budget", type=_BUDGET, help="Node-expansion cap per search.")
@click.option("-o", "--out", "out_path", type=click.Path(), help="Write the matrix as JSON.")
def poset(rule_specs, budget, out_path):
    """Pairwise permissiveness matrix and Hasse diagram for several rules."""
    rules = _rules(rule_specs, check_arities)
    labels = list(rule_specs)
    for spec in labels if out_path else ():
        if not files._is_texts([spec]):
            _fail(2, f"rule argument {spec!r} has no UTF-8 spelling to write to {out_path!r}")
    matrix = relation_matrix(rules, budget=budget)
    for i in range(len(rules)):
        for j in range(i + 1, len(rules)):
            click.echo(f"{labels[i]} vs {labels[j]}: {_PHRASES[matrix.verdicts[i][j].relation]}")

    def class_label(c: int) -> str:
        return "{" + ", ".join(labels[i] for i in matrix.classes[c]) + "}"

    click.echo("classes: " + "; ".join(class_label(c) for c in range(len(matrix.classes))))
    if matrix.hasse:
        for lower, upper in matrix.hasse:
            click.echo(f"{class_label(lower)} < {class_label(upper)}")
    else:
        click.echo("no strict comparisons")
    if out_path:
        obj = {
            "type": "poset",
            "rules": labels,
            "matrix": [[v.relation for v in row] for row in matrix.verdicts],
            "classes": [[labels[i] for i in cls] for cls in matrix.classes],
            "hasse": [list(edge) for edge in matrix.hasse],
        }
        _write([(out_path, obj)])


@main.command()
@click.argument("rule_spec")
@click.option(
    "--encoding",
    type=click.Choice(list(ENCODINGS)),
    default="unary",
    show_default=True,
)
@click.option("-o", "--out", "prefix", required=True, help="Output path prefix.")
def d2o(rule_spec, encoding, prefix):
    """Recast a rule's decision graph as an observation problem."""
    rule = _load(rule_spec, FusionRule)
    problem = decision_graph_to_observation(rule, encoding)
    if not verify_d2o(problem, rule):
        raise RuntimeError("conversion failed its isomorphism check")
    _write(
        [
            (f"{prefix}.problem.json", files.problem_to_obj(problem)),
            (f"{prefix}.bijection.json", files.bijection_to_obj(rule, problem)),
        ]
    )


@main.command("graph")
@click.argument("source")
@click.option("--dot", "dot_path", type=click.Path(), help="Write DOT here instead of stdout.")
def graph_cmd(source, dot_path):
    """Export the observation or decision graph of a problem file or rule."""
    loaded = _load(source, ObservationProblem, FusionRule)
    build = build_decision_graph if isinstance(loaded, FusionRule) else build_observation_graph
    text = export_dot(build(loaded))
    if dot_path:
        _write([(dot_path, text)])
    else:
        click.echo(text, nl=False)
