"""graf benchmark: fixed CLI workloads timed end to end, plus a traced pass.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, untraced

``--trace 0`` times whole program executions, each in a fresh
interpreter, for about ``--seconds`` seconds and reports the end-to-end
metrics as medians over executions.  ``--trace 1`` runs untraced
``--workers 1`` (and, for the pool workload, ``--workers 2``) executions
plus one traced in-process run, and reports the per-layer metrics.  Every
output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Spans, layer_metrics
from workloads import (
    NEARMAX_EPS,
    NEARMAX_N,
    NEARMAX_REPS,
    WORKLOADS,
    Workload,
    check_output,
    csv_records,
    prepare_input,
    sha256_file,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "units_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.parse_ms": "ms",
    "cli.read_s": "s",
    "cli.self_s": "s",
    "field.sample_us": "us",
    "field.perm_count": "count",
    "field.perm_s": "s",
    "field.self_s": "s",
    "solvers.max_us": "us",
    "solvers.min_us": "us",
    "solvers.greedy_us": "us",
    "solvers.calls": "count",
    "solvers.self_s": "s",
    "montecarlo.seed_us": "us",
    "montecarlo.rep_self_us": "us",
    "montecarlo.accum_us": "us",
    "montecarlo.merge_ms": "ms",
    "montecarlo.blocks": "count",
    "montecarlo.reps": "count",
    "montecarlo.useful_solve_frac": "fraction",
    "montecarlo.pool_speedup": "ratio",
    "montecarlo.self_s": "s",
    "enumerator.perm_table_ms": "ms",
    "enumerator.raw_sum_ms_per_matrix": "ms",
    "enumerator.count_self_ms_per_matrix": "ms",
    "enumerator.mpass_s": "s",
    "enumerator.assignments": "count",
    "enumerator.useful_frac": "fraction",
    "enumerator.enumerate_field_s": "s",
    "enumerator.self_s": "s",
    "bounds.mu_ms": "ms",
    "bounds.quad_calls": "count",
    "bounds.self_s": "s",
    "serialize.format_s": "s",
    "serialize.write_s": "s",
    "serialize.bytes": "bytes",
    "serialize.self_s": "s",
    "trace.compute_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_frac": "fraction",
}

#: Set-up-only executions per timed run, added to the executions' own
#: set-up samples so the set-up median rests on enough of them.
SETUP_PROBES = 2
#: Hard limit for one program execution, 4x the slowest seen, so that a
#: hung program still ends a trace run (three executions) within 180 s.
EXEC_TIMEOUT_S = 50.0


@dataclass
class Execution:
    status: int
    wall_s: float
    setup_s: float
    cpu_s: float
    rss_mb: float
    output: Path | None

    @property
    def compute_s(self) -> float:
        return self.wall_s - self.setup_s


def _spawn(cmd: list[str], timeout: float):
    """Run ``cmd`` in its own session; return (exit code, start, end, rusage).

    ``os.wait4`` reports the user+sys time and the peak RSS of the child
    together with the descendants it reaped, such as pool workers.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, start_new_session=True, cwd=ROOT
    )

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill_group)
    timer.start()
    try:
        _, wait_status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill_group()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    ended = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(wait_status)
    if code != 0:
        kill_group()  # leave no pool worker behind
    return code, started, ended, usage


def execute(argv: list[str], out: Path | None, probe: bool = False) -> Execution:
    """One fresh-interpreter run of ``graf`` with ``argv`` (plus ``--out``)."""
    stamp = WORKDIR / "parsed_at"
    stamp.unlink(missing_ok=True)
    full = argv + (["--out", str(out)] if out is not None else [])
    cmd = [sys.executable, str(HERE / "launch.py"), str(stamp), "probe" if probe else "run", *full]
    code, started, ended, usage = _spawn(cmd, EXEC_TIMEOUT_S)
    parsed_at = float(stamp.read_text()) if stamp.exists() else math.nan
    return Execution(
        status=code,
        wall_s=ended - started,
        setup_s=parsed_at - started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        output=out,
    )


class Checker:
    """Checks every output against the workload's invariants once and
    requires byte-identical output from every execution of one input."""

    def __init__(self, workload: Workload, seed: int, input_path: Path | None):
        self.workload, self.seed, self.input_path = workload, seed, input_path
        self.digest: str | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, status: int, output: Path | None, problems=()) -> bool:
        """Count one execution, with any ``problems`` found outside the
        output checks; delete its output once checked."""
        self.attempted += 1
        problems = list(problems)
        if status != 0:
            problems.append(f"{self.workload.name}: exit status {status}")
        elif output is None or not output.exists():
            problems.append(f"{self.workload.name}: no output written")
        else:
            digest = sha256_file(output)
            if self.digest is None:
                self.digest = digest
                problems += check_output(self.workload, output, self.seed, self.input_path)
            elif digest != self.digest:
                problems.append(f"{self.workload.name}: output differs between executions")
        if output is not None:
            output.unlink(missing_ok=True)
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems


def _median(values: list[float]) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def run_timed(
    workload: Workload, seed: int, seconds: float, input_path: Path | None
) -> tuple[dict, Checker]:
    checker = Checker(workload, seed, input_path)
    argv = workload.args(seed, input_path, workload.pool_workers)
    probes = [execute(argv, None, probe=True) for _ in range(SETUP_PROBES)]
    # Program time fills the budget; the benchmark's own checks do not count.
    spent = sum(p.wall_s for p in probes)
    runs: list[Execution] = []
    while True:
        run = execute(argv, WORKDIR / f"out{workload.suffix}")
        spent += run.wall_s
        if checker.record(run.status, run.output):
            runs.append(run)
        if not runs or spent + run.wall_s > seconds:
            break
    if not runs:
        raise RuntimeError("; ".join(checker.problems))
    setups = [r.setup_s for r in probes + runs]
    metrics = {
        "wall_s": _median([r.wall_s for r in runs]),
        "setup_s": _median(setups),
        "units_per_s": _median([workload.units / r.compute_s for r in runs]),
        "cpu_s": _median([r.cpu_s for r in runs]),
        "peak_rss_mb": _median([r.rss_mb for r in runs]),
    }
    return metrics, checker


def _nearmax_recount(output: Path, seed: int, traced_walk: int) -> tuple[float, list[str]]:
    """Recount the largest near-max set of every matrix with
    ``near_maximal_set``; return (useful fraction, problems).

    The counted sets nest, so the largest eps holds every assignment any
    row counted.  The recount must reproduce the output's dimension and
    walk as many assignments as the traced run did.
    """
    from graf.enumerator import near_maximal_set
    from graf.field import sample_cost_matrix
    from graf.montecarlo import derive_seed

    rows = csv_records(output)
    eps = max(NEARMAX_EPS)
    inside = walked = 0
    problems = []
    for n in NEARMAX_N:
        row = next(r for r in rows if int(r["n"]) == n and float(r["eps"]) == eps)
        m_used = float(row["m_used"])
        log_sizes = []
        for k in range(NEARMAX_REPS):
            size = near_maximal_set(
                sample_cost_matrix(n, derive_seed(seed, n, 1, k)), eps, m_used
            ).set_size
            inside += size
            walked += math.factorial(n)
            log_sizes.append(math.log(size) if size else 0.0)
        dimension = math.fsum(log_sizes) / NEARMAX_REPS / math.lgamma(n + 1)
        if abs(dimension - float(row["dimension"])) > 1e-12:
            problems.append(f"nearmax n={n}: recounted dimension {dimension} != {row['dimension']}")
    if walked != traced_walk:
        problems.append(f"nearmax: traced run walked {traced_walk} assignments, not {walked}")
    return inside / walked, problems


def run_traced(workload: Workload, seed: int, input_path: Path | None) -> tuple[dict, Checker]:
    checker = Checker(workload, seed, input_path)
    serial = workload.args(seed, input_path, 1 if workload.pool_workers else None)
    w1 = execute(serial, WORKDIR / f"w1{workload.suffix}")
    checker.record(w1.status, w1.output)
    speedup = 0.0
    if workload.name == "estimate-small":
        w2 = execute(workload.args(seed, input_path, 2), WORKDIR / f"w2{workload.suffix}")
        checker.record(w2.status, w2.output)
        speedup = w1.compute_s / w2.compute_s
    out = WORKDIR / f"traced{workload.suffix}"
    spans_path = WORKDIR / "spans.npz"
    code, *_ = _spawn(
        [sys.executable, str(HERE / "tracing.py"), str(spans_path), *serial, "--out", str(out)],
        EXEC_TIMEOUT_S,
    )
    if code != 0 or not out.exists() or not spans_path.exists():
        checker.record(code, None)
        raise RuntimeError("; ".join(checker.problems))
    metrics = layer_metrics(Spans.load(spans_path))
    metrics["montecarlo.pool_speedup"] = speedup
    metrics["serialize.bytes"] = out.stat().st_size
    metrics["trace.overhead_s"] = metrics["trace.compute_s"] - w1.compute_s
    walked = metrics["enumerator.assignments"]
    problems = []
    if workload.name == "nearmax-enum":
        metrics["enumerator.useful_frac"], problems = _nearmax_recount(out, seed, walked)
    else:
        # enumerate writes every assignment it walks; nothing else walks.
        metrics["enumerator.useful_frac"] = workload.units / walked if walked else 0.0
    checker.record(code, out, problems)
    return metrics, checker


def _result(metrics: dict, units: dict, checker: Checker) -> dict:
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    return {
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    input_path = prepare_input(workload, seed, WORKDIR)
    if trace:
        metrics, checker = run_traced(workload, seed, input_path)
        result = _result(metrics, PER_LAYER, checker)
    else:
        metrics, checker = run_timed(workload, seed, seconds, input_path)
        result = _result(metrics, END_TO_END, checker)
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graf" / "cli.py").is_file():
        print(f"perfbench: no graf sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    WORKDIR.mkdir(exist_ok=True)
    try:
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        frac = result["failed"] / result["attempted"]
        print(f"{name:16s} {'failed_frac':12s} {frac:.6g} fraction")
        for metric, entry in result["metrics"].items():
            print(f"{name:16s} {metric:12s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
