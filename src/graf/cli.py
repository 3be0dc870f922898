"""Command-line entry point: one binary, one subcommand per study.

Every command writes a single CSV or JSON document, atomically when an
output path is given.  All randomness flows from ``--seed``; repeating a
command with identical flags reproduces the output byte for byte, for any
``--workers`` value.  A run manifest (version, flags, wall time) is echoed
to stdout after file output; ``GRAF_LOG`` selects the log level.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from graf import __version__
from graf.bounds import (
    bounds_row,
    greedy_lower_bound,
    nearmax_theorem_bound,
    upper_bound_expected_max,
    variance_lower_bound,
)
from graf.combinatorics import (
    EXACT_N_MAX,
    RencontresTable,
    ball_size,
    ball_size_upper_bound,
)
from graf.enumerator import (
    ENUM_N_MAX,
    HISTOGRAM_N_MAX,
    correlation_histogram_exact,
    enumerate_field,
    enumerated_field_mean,
    mean_correlation_exhaustive,
    nearmax_table,
    verify_ball_size,
)
from graf.field import SEED_MAX, permutation_texts, read_matrix_csv, sample_cost_matrix
from graf.montecarlo import STAT_KEYS, EstimateReport, derive_seed, estimate, ratio_table
from graf.serialize import atomic_write_text, fmt, to_csv_text, to_json_text
from graf.solvers import (
    greedy_assignment,
    solve_max_bruteforce,
    solve_max_exact,
    solve_min_exact,
)

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

_USAGE_EXIT = 2
_FAILURE_EXIT = 1


def _checked(kind: type, ok, rule: str):
    """Converter that parses ``text`` with ``kind`` (int or float) and
    requires ``ok(value)``; ``rule`` formats the range error from ``value``
    and ``text``.  argparse prefixes each error with the flag's name."""
    noun = "an integer" if kind is int else "a number"

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(rule.format(value=value, text=text))
        return value

    return convert


def _comma_list(convert):
    return lambda text: [convert(part) for part in text.split(",")]


_positive_int = _checked(int, lambda v: v >= 1, "must be positive, got {value}")
# Moment estimates need a variance, so replication counts start at 2.
_replications = _checked(int, lambda v: v >= 2, "must be at least 2, got {value}")
_seed_value = _checked(
    int, lambda v: 0 <= v <= SEED_MAX, "seed must fit in an unsigned 64-bit integer"
)
_positive_float = _checked(float, lambda v: v > 0.0, "must be positive, got {text}")
_unit_list = _comma_list(
    _checked(float, lambda v: 0.0 < v < 1.0, "must lie strictly between 0 and 1, got {text}")
)


def _int_list(minimum: int, maximum: int | None = None):
    bound = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
    return _comma_list(
        _checked(
            int,
            lambda v: v >= minimum and (maximum is None or v <= maximum),
            f"each value must be {bound}, got {{value}}",
        )
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graf",
        description="Gaussian random assignment field studies",
    )
    parser.add_argument("--version", action="version", version=f"graf {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # Flags are spelled in full, as config-file keys are.
        return subs.add_parser(name, help=summary, allow_abbrev=False)

    solve = command("solve", "solve one cost matrix")
    solve.add_argument("--input", required=True, help="cost matrix CSV")
    solve.add_argument(
        "--method", choices=("brute", "exact", "greedy", "min"), default="exact"
    )

    bounds = command("bounds", "closed-form bound table")
    bounds.add_argument("--n-list", type=_int_list(1), required=True)
    bounds.add_argument("--eps", type=_unit_list, default=[])
    bounds.add_argument("--delta", type=_unit_list, default=[])
    bounds.add_argument("--c-small", type=_positive_float, default=1.0)
    bounds.add_argument("--c-large", type=_positive_float, default=1.0)

    est = command("estimate", "replicated moment estimates")
    est.add_argument("--n", type=_positive_int, required=True)
    est.add_argument("--reps", type=_replications, required=True)
    est.add_argument("--seed", type=_seed_value, required=True)
    est.add_argument("--format", choices=("json", "csv"), default="json")

    ratio = command("ratio-table", "ratio convergence table")
    ratio.add_argument("--n-list", type=_int_list(2), required=True)
    ratio.add_argument("--reps", type=_replications, required=True)
    ratio.add_argument("--seed", type=_seed_value, required=True)

    nearmax = command("nearmax", "near-maximal set dimension study")
    nearmax.add_argument("--n", type=_int_list(2, ENUM_N_MAX), required=True)
    nearmax.add_argument("--eps", type=_unit_list, required=True)
    nearmax.add_argument("--reps", type=_replications, required=True)
    nearmax.add_argument("--seed", type=_seed_value, required=True)
    nearmax.add_argument("--m-reps", type=_replications, default=100_000)
    nearmax.add_argument("--c-small", type=_positive_float, default=1.0)
    nearmax.add_argument("--c-large", type=_positive_float, default=1.0)
    nearmax.add_argument("--sensitivity", action="store_true")

    enum = command("enumerate", "list every assignment's field value")
    enum.add_argument("--input", required=True, help="cost matrix CSV")

    verify = command("verify", "enumeration-vs-formula checks")
    verify.add_argument("--n", type=_int_list(2, HISTOGRAM_N_MAX), required=True)
    verify.add_argument("--delta", type=_unit_list, required=True)
    verify.add_argument("--seed", type=_seed_value, default=0)

    for name, sub in subs.choices.items():
        sub.add_argument("--config", default=None, help="key=value file; flags win")
        sub.add_argument("--out", default=None, help="output path (stdout if omitted)")
        if name in ("estimate", "ratio-table", "nearmax"):
            sub.add_argument(
                "--workers",
                type=_positive_int,
                default=os.cpu_count() or 1,
                help="replication worker count (results do not depend on it)",
            )
    return parser


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Map each subcommand name to its parser."""
    (subs,) = parser._subparsers._group_actions
    return subs.choices


class UsageError(Exception):
    pass


def _config_tokens(path: str, sub: argparse.ArgumentParser) -> list[str]:
    """Turn a flat key=value file into CLI tokens for ``sub``: key ``k`` is
    valid when ``sub`` has the option ``--k``, and takes true/false when
    that option takes no value."""
    tokens: list[str] = []
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("ascii").strip()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}:{lineno}: non-ASCII byte at column {exc.start + 1}")
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        action = sub._option_string_actions.get(f"--{key}")
        if key in ("config", "help") or action is None:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if action.nargs == 0:
            if value.lower() not in ("true", "false"):
                raise UsageError(f"{path}:{lineno}: flag {key!r} must be true or false")
            if value.lower() == "true":
                tokens.append(f"--{key}")
        else:
            tokens.extend([f"--{key}", value])
    return tokens


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse command-line arguments.  A ``--config`` file's tokens are
    spliced in right after the subcommand, so explicit flags, which come
    later, win."""
    parser = build_parser()
    argv = list(argv)
    at = next((i for i, token in enumerate(argv) if not token.startswith("-")), len(argv))
    sub = _subcommands(parser).get(argv[at]) if at < len(argv) else None
    path = None
    for i in range(at + 1, len(argv)):
        if argv[i] == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif argv[i].startswith("--config="):
            path = argv[i].split("=", 1)[1]
    if sub is not None and path is not None:
        argv[at + 1 : at + 1] = _config_tokens(path, sub)
    return parser.parse_args(argv)


def _write_output(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(out, text)


def _report_to_json(report: EstimateReport) -> dict:
    return {
        "n": report.n,
        "replications": report.replications,
        "master_seed": report.master_seed,
        "statistics": {key: asdict(getattr(report, key)) for key in STAT_KEYS},
        "ratio": report.ratio,
        "ratio_std_error": report.ratio_std_error,
        "cov_field_mean_residual": report.cov_field_mean_residual,
        "greedy_violations": report.greedy_violations,
    }


_RATIO_COLUMNS = [
    "n",
    "reps",
    "mean_M",
    "se_M",
    "var_M",
    "se_var_M",
    "mean_W",
    "mean_greedy",
    "mean_gbar",
    "var_gbar",
    "cov_gbar_L",
    "ratio",
    "upper_E",
    "greedy_lower_E",
    "var_lower",
]


def _ratio_rows(reports: list[EstimateReport]) -> list[list[object]]:
    rows = []
    for r in reports:
        rows.append(
            [
                r.n,
                r.replications,
                r.max_value.mean,
                r.max_value.mean_std_error,
                r.max_value.variance,
                r.max_value.variance_std_error,
                r.min_value.mean,
                r.greedy_value.mean,
                r.field_mean.mean,
                r.field_mean.variance,
                r.cov_field_mean_residual,
                r.ratio,
                upper_bound_expected_max(r.n),
                greedy_lower_bound(r.n),
                variance_lower_bound(r.n),
            ]
        )
    return rows


def _cmd_solve(config: argparse.Namespace) -> int:
    matrix = read_matrix_csv(config.input)
    solver = {
        "brute": solve_max_bruteforce,
        "exact": solve_max_exact,
        "greedy": greedy_assignment,
        "min": solve_min_exact,
    }[config.method]
    result = solver(matrix)
    document = {
        "n": matrix.n,
        "method": config.method,
        "assignment": list(result.assignment.mapping),
        "raw_sum": result.raw_sum,
        "field_value": result.field_value,
    }
    _write_output(config.out, to_json_text(document))
    return 0


def _cmd_bounds(config: argparse.Namespace) -> int:
    header = ["n", "upper_E", "trivial_upper_E", "greedy_lower_E", "var_lower"]
    for eps in config.eps:
        header.append(f"nearmax_eps_{format(eps, 'g')}")
    for delta in config.delta:
        header.append(f"V_delta_{format(delta, 'g')}")
        header.append(f"Vbound_delta_{format(delta, 'g')}")
    rows: list[list[object]] = []
    for n in config.n_list:
        row_bounds = bounds_row(n)
        row: list[object] = [
            n,
            row_bounds.upper_E,
            row_bounds.trivial_upper_E,
            row_bounds.greedy_lower_E,
            row_bounds.var_lower,
        ]
        for eps in config.eps:
            if n >= 2:
                bound = nearmax_theorem_bound(
                    n, eps, c_small=config.c_small, c_large=config.c_large
                )
                row.append(bound.bound_value)
            else:
                row.append("")
        for delta in config.delta:
            # Exact counts stay decimal strings so big integers survive CSV.
            row.append(str(ball_size(n, delta)) if n <= EXACT_N_MAX else "")
            row.append(ball_size_upper_bound(n, delta))
        rows.append(row)
    _write_output(config.out, to_csv_text(header, rows))
    return 0


def _cmd_estimate(config: argparse.Namespace) -> int:
    report = estimate(config.n, config.reps, config.seed, workers=config.workers)
    if config.format == "json":
        text = to_json_text(_report_to_json(report))
    else:
        text = to_csv_text(_RATIO_COLUMNS, _ratio_rows([report]))
    _write_output(config.out, text)
    return 0


def _cmd_ratio_table(config: argparse.Namespace) -> int:
    reports = ratio_table(config.n_list, config.reps, config.seed, workers=config.workers)
    _write_output(config.out, to_csv_text(_RATIO_COLUMNS, _ratio_rows(reports)))
    return 0


# CSV column -> DimensionSummary field, in column order.
_NEARMAX_COLUMNS = {
    "n": "n",
    "eps": "epsilon",
    "m_used": "m_used",
    "m_se": "m_std_error",
    "reps": "replications",
    "empty_frac": "empty_fraction",
    "mean_log_size_nonempty": "mean_log_size_nonempty",
    "se": "se_log_size",
    "dimension": "dimension",
    "bound_small": "bound_small",
    "bound_large": "bound_large",
}


def _cmd_nearmax(config: argparse.Namespace) -> int:
    rows = nearmax_table(
        config.n,
        config.eps,
        config.reps,
        config.seed,
        m_reps=config.m_reps,
        c_small=config.c_small,
        c_large=config.c_large,
        sensitivity=config.sensitivity,
        workers=config.workers,
    )
    table = [[getattr(row, field) for field in _NEARMAX_COLUMNS.values()] for row in rows]
    _write_output(config.out, to_csv_text(list(_NEARMAX_COLUMNS), table))
    return 0


def _cmd_enumerate(config: argparse.Namespace) -> int:
    perms, values = enumerate_field(read_matrix_csv(config.input))
    rows = [[text, value] for text, value in zip(permutation_texts(perms), values.tolist())]
    _write_output(config.out, to_csv_text(["permutation", "field_value"], rows))
    return 0


def _cmd_verify(config: argparse.Namespace) -> int:
    lines: list[str] = []
    failed = False

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failed
        status = "ok" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        lines.append(f"{status}: {label}{suffix}")
        failed = failed or not ok

    for n in config.n:
        for delta in config.delta:
            ball = verify_ball_size(n, delta, seed=config.seed)
            check(
                f"ball size n={n} delta={format(delta, 'g')}",
                ball.passed,
                f"counts={ball.counts} closed_form={ball.expected} "
                f"bound={fmt(ball.upper_bound)}",
            )
        table = correlation_histogram_exact(n)
        check(
            f"agreement histogram n={n}",
            table.counts == RencontresTable.for_size(n).counts,
            f"counts={table.counts}",
        )
        matrix = sample_cost_matrix(n, derive_seed(config.seed, n, 2))
        closed = float(matrix.entries.sum()) / (n * math.sqrt(n))
        enumerated = enumerated_field_mean(matrix)
        check(
            f"field mean identity n={n}",
            abs(enumerated - closed) <= 1e-10 * max(1.0, abs(closed)),
            f"enumerated={fmt(enumerated)} closed={fmt(closed)}",
        )
        brute = solve_max_bruteforce(matrix)
        exact = solve_max_exact(matrix)
        check(
            f"solver agreement n={n}",
            abs(brute.raw_sum - exact.raw_sum) <= 1e-9,
            f"brute={fmt(brute.raw_sum)} exact={fmt(exact.raw_sum)}",
        )
        if n <= 7:
            check(
                f"mean correlation n={n}",
                mean_correlation_exhaustive(n) == Fraction(1, n),
            )
    text = "\n".join(lines) + "\n"
    _write_output(config.out, text)
    if config.out is not None:
        sys.stdout.write(text)
    return _FAILURE_EXIT if failed else 0


_COMMANDS = {
    "solve": _cmd_solve,
    "bounds": _cmd_bounds,
    "estimate": _cmd_estimate,
    "ratio-table": _cmd_ratio_table,
    "nearmax": _cmd_nearmax,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
}


def run(config: argparse.Namespace) -> int:
    """Dispatch parsed arguments to their subcommand."""
    return _COMMANDS[config.subcommand](config)


def _configure_logging() -> None:
    raw = os.environ.get("GRAF_LOG", "warn").lower()
    if raw not in _LOG_LEVELS:
        raise UsageError(
            f"GRAF_LOG must be one of {sorted(_LOG_LEVELS)}, got {raw!r}"
        )
    logging.basicConfig(
        level=_LOG_LEVELS[raw],
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    started = time.monotonic()
    try:
        _configure_logging()
        config = parse_args(list(argv))
        status = run(config)
    except UsageError as exc:
        print(f"graf: error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else _USAGE_EXIT
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"graf: error: {exc}", file=sys.stderr)
        return _FAILURE_EXIT
    if status == 0 and config.out is not None:
        manifest = {
            "tool": "graf",
            "version": __version__,
            "subcommand": config.subcommand,
            "config": {
                key: value
                for key, value in sorted(vars(config).items())
                if key not in ("config", "subcommand")
            },
            "elapsed_seconds": time.monotonic() - started,
        }
        sys.stdout.write(to_json_text(manifest))
    return status


if __name__ == "__main__":
    sys.exit(main())
