"""Benchmark of the decobs CLI: time to an oracle-checked verdict.

    python3 bench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all     # every workload, plain and traced,
                                   # written to bench/baseline.json

Workloads (built from --seed by workloads.py; the CLI only sees the files):

  solve  conjunctive-solvable projection problems, |L| 60..600: `solve`
  check  table-observation problems, |L| 100..1500, half of them with a
         class added to K that makes them unsolvable: `check` under
         conjunctive:3 / disjunctive:3
  rules  for n = 2..6, `poset` over the six builtin rules and `compare`
         for each of their 15 pairs

Two more are run by --all only, plain, and are not in BENCHMARK.json:

  tail   two solve problems of 1,100 quotient classes (at the seed every
         op fails with RecursionError)
  rules7 the rules ops for n = 7 (one batch takes about 27 s at the seed)

Ops go through the real CLI in-process via click's CliRunner, one after
another in a closed loop with one client and no threads.  The batch of ops is
repeated until the time budget is spent, and each op is timed by its median
pass (batch_s is the sum of those times); each op has a wall-time limit
enforced with SIGALRM.  A real user runs each command in a fresh process.  To
come close to that, the benchmark's own objects are frozen out of the garbage
collector's reach after set-up, and each op's leftovers are collected between
ops, outside the timed region, so that one op's garbage is not charged to the
next.

The end-to-end times are in seconds of a reference CPU, measured as
speed.py describes; the raw wall times are printed in the report lines.  The
per-layer self times of a traced run are wall seconds.

Set-up time runs from the top of this script, before decobs is imported, to
the first op.  It is also taken in a few --setup-only processes started for
the purpose: a dependency that decobs imports only costs time in a fresh
interpreter.  The median of all samples is reported.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  A verdict that contradicts its
oracle makes correct false.  Exits non-zero without a result when the
program cannot be run.
"""

from __future__ import annotations

import time

from speed import SpeedProbe

SET_UP = SpeedProbe(inside=__name__ == "__main__")  # no timer when imported
T0 = time.monotonic()
SET_UP.__enter__()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("solve", "check", "rules", "tail", "rules7")
TRACED = ("solve", "check", "rules")
SETUP_PROBES = 6  # --setup-only processes per plain run, besides the run's own set-up
OP_LIMIT_S = 60.0  # one op over this is a failed op
RUN_LIMIT_S = 150.0  # from the top of this script; ops still running then fail


class BenchError(Exception):
    pass


class OpTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so the CLI cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def judge(op: workloads.Op, result, workdir: Path, expected: dict) -> tuple[str, str | None]:
    """("ok", None), ("failed", reason) for an op without a checked verdict,
    or ("wrong", reason) for a verdict or output that contradicts an oracle."""
    if result is None:
        return "failed", "timeout"
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        return "failed", f"{type(result.exception).__name__}: {result.exception}"
    lines = result.stdout.strip().splitlines()
    if op.kind in ("poset", "compare"):
        if result.exit_code != 0:
            return "failed", f"exit {result.exit_code}"
        if op.kind == "poset":
            reason = oracles.check_poset(op, workdir)
        else:
            reason = oracles.check_compare(op, result.stdout, workdir)
        return ("wrong", reason) if reason else ("ok", None)
    verdict = {(0, "SOLVABLE"): True, (1, "UNSOLVABLE"): False}.get(
        (result.exit_code, lines[-1] if lines else "")
    )
    if verdict is None:
        return "failed", f"exit {result.exit_code}: {lines[-1:] or result.stderr.strip()[-200:]}"
    p, rule = op.problem, op.rule.split(":")[0]
    if p.name not in expected:
        expected[p.name] = oracles.solvable(p, rule)
    if verdict != expected[p.name]:
        return "wrong", f"{op.kind} {p.name} {op.rule}: CLI says {verdict}, oracle says {expected[p.name]}"
    if verdict:
        reason = oracles.check_problem_witness(p, rule, workdir / op.outputs[-1])
        if reason is None and op.kind == "solve":
            reason = oracles.check_solution(p, rule, workdir / op.outputs[0])
        if reason:
            return "wrong", f"{op.kind} {p.name}: {reason}"
    return "ok", None


class Phase:
    """Repeated passes over the batch, with every op's times and outcomes."""

    def __init__(self, ops: int):
        self.passes = 0
        self.wall: list[list[float]] = [[] for _ in range(ops)]  # seconds
        self.samples: list[list[float]] = [[] for _ in range(ops)]  # reference seconds
        self.attempted = 0
        self.failed: Counter[str] = Counter()
        self.wrong: list[str] = []

    def per_op(self) -> list[float]:
        """Each op's median time over the passes, in reference seconds."""
        return [statistics.median(times) for times in self.samples]

    def wall_batch_s(self) -> float:
        """The batch's wall time, each op at its median pass."""
        return sum(statistics.median(times) for times in self.wall)


def run_phase(ops, workdir: Path, invoke, budget_s: float, deadline: float,
              probe_inside: bool = True) -> Phase:
    """Passes over the batch, as many as fit in the budget, at least one.
    With ``probe_inside`` false, the speed probe stays out of the ops, whose
    spans it would join."""
    phase = Phase(len(ops))
    expected: dict = {}
    start = pass_start = now = time.monotonic()
    last_pass = 0.0
    while not phase.passes or (now + last_pass - start <= budget_s and now + last_pass < deadline):
        for k, op in enumerate(ops):
            for name in op.outputs:
                (workdir / name).unlink(missing_ok=True)
            args = [a.replace("{dir}", str(workdir)) for a in op.args]
            limit = max(min(OP_LIMIT_S, deadline - time.monotonic()), 0.001)
            probe = SpeedProbe(probe_inside)
            t = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, limit)
                try:
                    with probe:
                        result = invoke(args)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                result = None
            elapsed = time.perf_counter() - t - probe.stolen
            phase.wall[k].append(elapsed)
            scale = probe.scale()
            phase.samples[k].append(elapsed * scale)
            phase.attempted += 1
            status, reason = judge(op, result, workdir, expected)
            if status == "failed":
                phase.failed[reason] += 1
            elif status == "wrong":
                phase.wrong.append(reason)
            del result  # its traceback holds the op's frames
            gc.collect()
        phase.passes += 1
        now = time.monotonic()
        last_pass, pass_start = now - pass_start, now
    return phase


def set_up(args: argparse.Namespace, workdir: Path):
    """Import decobs from the checkout, build the ops and write their input
    files.  Returns a function that runs the CLI on a list of arguments,
    the ops and a hash of the inputs."""
    if not (ROOT / "src" / "decobs" / "__init__.py").is_file():
        raise BenchError(f"no decobs sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import decobs
    from click.testing import CliRunner
    from decobs.cli import main as cli

    if Path(decobs.__file__).resolve().parent != (ROOT / "src" / "decobs").resolve():
        raise BenchError(f"decobs imported from {decobs.__file__}, not from the checkout")
    ops = workloads.build_ops(args.workload, args.seed)
    workdir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for op in ops:
        digest.update(json.dumps(op.args).encode())
    for name, data in sorted(workloads.input_files(ops).items()):
        (workdir / name).write_bytes(data)
        digest.update(name.encode() + data)
    runner = CliRunner()
    return (lambda cli_args: runner.invoke(cli, cli_args)), ops, digest.hexdigest()


def _setup_probe(args: argparse.Namespace) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        raise BenchError("a set-up probe did not finish within 60 s") from None
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run(args: argparse.Namespace) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the report lines."""
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        try:
            invoke, ops, input_sha256 = set_up(args, workdir)
        finally:
            SET_UP.__exit__()
        wall_setup = time.monotonic() - T0 - SET_UP.stolen
        setups = [wall_setup * SET_UP.scale()]
        if args.setup_only:
            return {"setup_s": setups[0]}, []
        if not args.trace:
            setups += [_setup_probe(args) for _ in range(SETUP_PROBES)]
        gc.collect()
        gc.freeze()
        signal.signal(signal.SIGALRM, _alarm)
        deadline = T0 + RUN_LIMIT_S
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = run_phase(ops, workdir, invoke, budget, deadline)
        phases = [plain]
        batch_s = sum(plain.per_op())
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_phase(ops, workdir, tracer.span(tracing.ROOT, invoke), budget, deadline, False)
            finally:
                tracer.uninstall()
            phases.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reasons = sum((p.failed for p in phases), Counter())
    wrong = [w for p in phases for w in p.wrong]
    attempted = sum(p.attempted for p in phases)
    failed = sum(reasons.values()) + len(wrong)
    lines = [
        f"workload {args.workload}  seed {args.seed}  inputs sha256 {input_sha256}",
        f"ops per batch {len(ops)}  passes {plain.passes}"
        f"  attempted {attempted}  failed {failed}  fail_frac {failed / attempted:.4f}",
    ]
    lines += [f"failed op: {reason} (x{count})" for reason, count in reasons.items()]
    lines += [f"WRONG: {reason}" for reason in wrong[:20]]
    if args.trace:
        metrics = tracing.per_layer_metrics(tracer, traced.passes, batch_s, sum(traced.per_op()))
        lines += tracing.table(tracer, traced.passes)
    else:
        # Percentiles over the ops of the batch, each op counted once.
        per_op = plain.per_op()
        metrics = {
            "batch_s": {"value": batch_s, "unit": "s"},
            "verdict_p50_ms": {"value": 1000 * statistics.median(per_op), "unit": "ms"},
            "verdict_p90_ms": {"value": 1000 * statistics.quantiles(per_op, n=10)[-1], "unit": "ms"},
            "verdict_ok_frac": {"value": 1 - failed / attempted, "unit": "frac"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        lines.append("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        lines.append(f"wall time: batch {plain.wall_batch_s():.4f} s  set-up {wall_setup:.4f} s")
    lines += [f"{name:32s} {m['value']:14.6g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def run_all(args: argparse.Namespace) -> int:
    """Every workload plain, and those of BENCHMARK.json traced too, each in
    its own run.py process; writes bench/baseline.json."""
    baseline = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    ok = True
    for workload in WORKLOADS:
        entry = baseline["workloads"][workload] = {}
        for trace in (0, 1) if workload in TRACED else (0,):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                ok = False
                continue
            *report, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            ok &= result["correct"]
            entry["traced" if trace else "plain"] = {**result, "report": report}
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {BENCH / 'baseline.json'}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload and write bench/baseline.json")
    ap.add_argument("--setup-only", action="store_true", help="time the set-up alone and print it as JSON")
    args = ap.parse_args()
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    try:
        result, lines = run(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if lines:
        print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
