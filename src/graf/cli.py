"""Command-line entry point: one binary, one subcommand per study.

Every command writes a single CSV or JSON document, atomically when an
output path is given.  All randomness flows from ``--seed``; repeating a
command with identical flags reproduces the output byte for byte, for any
``--workers`` value.  A run manifest (version, flags, wall time) is echoed
to stdout after file output; ``GRAF_LOG`` selects the log level.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import logging
import math
import os
import sys
import time
from concurrent.futures import BrokenExecutor
from dataclasses import asdict
from fractions import Fraction
from inspect import signature
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

import graf
from graf import __version__, _scipy
from graf.combinatorics import EXACT_N_MAX, ball_size, ball_size_upper_bound, rencontres_count
from graf.enumerator import (
    ENUM_N_MAX,
    HISTOGRAM_N_MAX,
    _MEAN_CORRELATION_N_MAX,
    _count_variants,
    ball_counts_exact,
    correlation_histogram_exact,
    enumerate_field,
    enumerated_field_mean,
    mean_correlation_exhaustive,
    nearmax_table,
)
from graf.field import (
    SAMPLE_N_MAX,
    SEED_MAX,
    _permutation_codes,
    read_matrix_csv,
    sample_cost_matrix,
)
from graf.montecarlo import STAT_KEYS, EstimateReport, derive_seed, estimate, ratio_table
from graf.serialize import atomic_write_text, fmt, fmt_codes, to_csv_text, to_json_text
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

logger = logging.getLogger(__name__)


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


def _comma_list(convert, name=None):
    """Converter of a comma-separated list of distinct values.  With
    ``name``, values must also differ in ``name(value)``, a column name."""

    def convert_all(text: str) -> list:
        parts = text.split(",")
        values = [convert(part) for part in parts]
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
        if name is not None:
            named: dict[str, str] = {}
            for part, value in zip(parts, values):
                first = named.setdefault(name(value), part)
                if first != part:
                    raise argparse.ArgumentTypeError(
                        f"{first!r} and {part!r} give one column name ({name(value)})"
                    )
        return values

    return convert_all


_positive_int = _checked(int, lambda v: v >= 1, "must be positive, got {value}")
_sample_size = _checked(
    int, lambda v: 1 <= v <= SAMPLE_N_MAX, f"must lie in 1..{SAMPLE_N_MAX}, got {{value}}"
)
# Moment estimates need a variance, so replication counts start at 2.
_replications = _checked(int, lambda v: v >= 2, "must be at least 2, got {value}")
_seed_value = _checked(
    int, lambda v: 0 <= v <= SEED_MAX, "seed must fit in an unsigned 64-bit integer"
)
_positive_float = _checked(
    float, lambda v: 0.0 < v < math.inf, "must be positive and finite, got {text}"
)
_unit_value = _checked(
    float, lambda v: 0.0 < v < 1.0, "must lie strictly between 0 and 1, got {text}"
)
_unit_list = _comma_list(_unit_value)


def _column_suffix(value: float) -> str:
    """How a ``bounds`` column name spells a per-value parameter."""
    return f"{value:g}"


# `bounds` names one column per value, so the names must differ too.
_column_list = _comma_list(_unit_value, name=_column_suffix)


def _int_list(minimum: int, maximum: int):
    return _comma_list(
        _checked(
            int,
            lambda v: minimum <= v <= maximum,
            f"each value must be in {minimum}..{maximum}, got {{value}}",
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
    bounds.add_argument("--n-list", type=_int_list(1, SAMPLE_N_MAX), required=True)
    bounds.add_argument("--eps", type=_column_list, default=[])
    bounds.add_argument("--delta", type=_column_list, default=[])
    bounds.add_argument("--c-small", type=_positive_float, default=1.0)
    bounds.add_argument("--c-large", type=_positive_float, default=1.0)

    est = command("estimate", "replicated moment estimates")
    est.add_argument("--n", type=_sample_size, required=True)
    est.add_argument("--reps", type=_replications, required=True)
    est.add_argument("--seed", type=_seed_value, required=True)
    est.add_argument("--format", choices=("json", "csv"), default="json")

    ratio = command("ratio-table", "ratio convergence table")
    ratio.add_argument("--n-list", type=_int_list(2, SAMPLE_N_MAX), required=True)
    ratio.add_argument("--reps", type=_replications, required=True)
    ratio.add_argument("--seed", type=_seed_value, required=True)

    nearmax = command("nearmax", "near-maximal set dimension study")
    nearmax.add_argument("--n", type=_int_list(2, ENUM_N_MAX), required=True)
    nearmax.add_argument("--eps", type=_unit_list, required=True)
    nearmax.add_argument("--reps", type=_replications, required=True)
    nearmax.add_argument("--seed", type=_seed_value, required=True)
    m_reps = signature(nearmax_table).parameters["m_reps"].default
    nearmax.add_argument("--m-reps", type=_replications, default=m_reps)
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
        if _POOL in _COMMANDS[name][1]:
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


def _modules(*names: str):
    """A set-up step that imports the modules ``names``."""
    return lambda: [importlib.import_module(name) for name in names]


# graf.bounds' quadrature imports scipy._lib._ccallback on first use.
_BOUNDS = _modules("graf.bounds", "scipy._lib._ccallback")
_POOL = _modules("concurrent.futures.process")


def _sampler() -> None:
    """Load what the sampler calls: scipy's compiled ``ndtri``, and
    ``numpy.random``, which numpy imports at the first ``np.random``."""
    _scipy.ndtri()
    importlib.import_module("numpy.random")


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse command-line arguments.  A ``--config`` file's tokens are
    spliced in right after the subcommand, so explicit flags, which come
    later, win.

    The command's set-up steps from :data:`_COMMANDS` then run here, so
    that what they load counts as set-up, not as the command's work, and a
    worker pool forked later inherits it.  `estimate`'s CSV row holds
    bound columns, so that format also loads graf.bounds."""
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
    config = parser.parse_args(argv)
    _, setup = _COMMANDS[config.subcommand]
    if getattr(config, "format", None) == "csv":
        setup += (_BOUNDS,)
    for load in setup:
        load()
    return config


def _write_output(out: str | None, chunks: Iterable[str]) -> None:
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        atomic_write_text(out, chunks)


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


def _table(columns, items) -> str:
    """CSV text with one row per item.  ``columns`` holds ``(name, cell)``
    pairs in column order; ``cell(item)`` is the value in that column."""
    rows = [[cell(item) for _, cell in columns] for item in items]
    return to_csv_text([name for name, _ in columns], rows)


# CSV column -> value for one EstimateReport, in column order.
_RATIO_COLUMNS = {
    "n": attrgetter("n"),
    "reps": attrgetter("replications"),
    "mean_M": attrgetter("max_value.mean"),
    "se_M": attrgetter("max_value.mean_std_error"),
    "var_M": attrgetter("max_value.variance"),
    "se_var_M": attrgetter("max_value.variance_std_error"),
    "mean_W": attrgetter("min_value.mean"),
    "mean_greedy": attrgetter("greedy_value.mean"),
    "mean_gbar": attrgetter("field_mean.mean"),
    "var_gbar": attrgetter("field_mean.variance"),
    "cov_gbar_L": attrgetter("cov_field_mean_residual"),
    "ratio": attrgetter("ratio"),
    "upper_E": lambda r: graf.bounds.upper_bound_expected_max(r.n),
    "greedy_lower_E": lambda r: graf.bounds.greedy_lower_bound(r.n),
    "var_lower": lambda r: graf.bounds.variance_lower_bound(r.n),
}

# CSV column -> value for one size n, in column order; `bounds` appends
# its per-eps and per-delta columns after these.  The bound cells here and
# in _RATIO_COLUMNS read graf.bounds, which each command that writes them
# imports first.
_BOUNDS_COLUMNS = {
    "n": lambda n: n,
    "upper_E": lambda n: graf.bounds.upper_bound_expected_max(n),
    "trivial_upper_E": lambda n: graf.bounds.trivial_upper_bound_expected_max(n),
    "greedy_lower_E": lambda n: graf.bounds.greedy_lower_bound(n),
    "var_lower": lambda n: graf.bounds.variance_lower_bound(n),
}


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
        "assignment": (result.columns + 1).tolist(),
        "raw_sum": result.raw_sum,
        "field_value": result.field_value,
    }
    _write_output(config.out, [to_json_text(document)])
    return 0


def _cmd_bounds(config: argparse.Namespace) -> int:
    import graf.bounds

    def nearmax(eps: float):
        c_small, c_large = config.c_small, config.c_large
        return lambda n: (
            graf.bounds.nearmax_theorem_bound(n, eps, c_small=c_small, c_large=c_large)
            if n >= 2
            else ""
        )

    columns = list(_BOUNDS_COLUMNS.items())
    columns += [(f"nearmax_eps_{_column_suffix(eps)}", nearmax(eps)) for eps in config.eps]
    for d in config.delta:
        suffix = _column_suffix(d)
        # Exact counts stay decimal strings so big integers survive CSV.
        columns.append(
            (f"V_delta_{suffix}", lambda n, d=d: str(ball_size(n, d)) if n <= EXACT_N_MAX else "")
        )
        columns.append((f"Vbound_delta_{suffix}", lambda n, d=d: ball_size_upper_bound(n, d)))
    _write_output(config.out, [_table(columns, config.n_list)])
    return 0


def _cmd_estimate(config: argparse.Namespace) -> int:
    report = estimate(config.n, config.reps, config.seed, workers=config.workers)
    if config.format == "json":
        text = to_json_text(_report_to_json(report))
    else:
        import graf.bounds

        text = _table(_RATIO_COLUMNS.items(), [report])
    _write_output(config.out, [text])
    return 0


def _cmd_ratio_table(config: argparse.Namespace) -> int:
    import graf.bounds

    reports = ratio_table(config.n_list, config.reps, config.seed, workers=config.workers)
    _write_output(config.out, [_table(_RATIO_COLUMNS.items(), reports)])
    return 0


# CSV column -> value for one DimensionSummary, in column order.
_NEARMAX_COLUMNS = {
    "n": attrgetter("n"),
    "eps": attrgetter("epsilon"),
    "m_used": attrgetter("m_used"),
    "m_se": attrgetter("m_std_error"),
    "reps": attrgetter("replications"),
    "empty_frac": attrgetter("empty_fraction"),
    "mean_log_size_nonempty": attrgetter("mean_log_size_nonempty"),
    "se": attrgetter("se_log_size"),
    "dimension": attrgetter("dimension"),
    "bound_small": attrgetter("bound_small"),
    "bound_large": attrgetter("bound_large"),
}


def _cmd_nearmax(config: argparse.Namespace) -> int:
    try:
        _count_variants(config.eps, config.sensitivity, config.reps)
    except ValueError as exc:
        raise UsageError(f"argument --reps: {exc}")
    rows = nearmax_table(
        config.n,
        config.eps,
        config.reps,
        config.seed,
        m_reps=config.m_reps,
        sensitivity=config.sensitivity,
        workers=config.workers,
    )
    _write_output(config.out, [_table(_NEARMAX_COLUMNS.items(), rows)])
    return 0


#: Rows of `enumerate` output formatted at a time, which bounds the text
#: held in memory.
ENUMERATE_CHUNK_ROWS = 2**13


def _enumerate_rows(perms: np.ndarray, values: np.ndarray) -> str:
    """The CSV rows of ``perms`` and ``values`` as to_csv_text writes them,
    built as ASCII codes, one column per row, with NUL in unused places."""
    cells = _permutation_codes(perms)
    # A text with a comma is quoted, and only the one-column text of n = 1
    # has none.
    quote = ord('"') if len(cells) > 1 else 0
    floats = fmt_codes(values)
    codes = np.zeros((len(cells) + len(floats) + 4, len(values)), dtype=np.uint8)
    codes[0] = codes[len(cells) + 1] = quote
    codes[1 : len(cells) + 1] = cells
    codes[len(cells) + 2] = ord(",")
    codes[len(cells) + 3 : -1] = floats
    codes[-1] = ord("\n")
    return codes.T.tobytes().translate(None, b"\0").decode("ascii")


def _cmd_enumerate(config: argparse.Namespace) -> int:
    perms, values = enumerate_field(read_matrix_csv(config.input))

    def chunks() -> Iterator[str]:
        yield to_csv_text(["permutation", "field_value"], [])
        for start in range(0, len(values), ENUMERATE_CHUNK_ROWS):
            chunk = slice(start, start + ENUMERATE_CHUNK_ROWS)
            yield _enumerate_rows(perms[chunk], values[chunk])

    _write_output(config.out, chunks())
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
            counts = ball_counts_exact(n, delta, seed=config.seed)
            expected = ball_size(n, delta)
            bound = ball_size_upper_bound(n, delta)
            check(
                f"ball size n={n} delta={format(delta, 'g')}",
                counts == (expected,) * 3 and expected <= bound,
                f"counts={counts} closed_form={expected} bound={fmt(bound)}",
            )
        counts = correlation_histogram_exact(n)
        check(
            f"agreement histogram n={n}",
            counts == tuple(rencontres_count(n, k) for k in range(n + 1)),
            f"counts={counts}",
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
        if n <= _MEAN_CORRELATION_N_MAX:
            check(
                f"mean correlation n={n}",
                mean_correlation_exhaustive(n) == Fraction(1, n),
            )
    text = "\n".join(lines) + "\n"
    _write_output(config.out, [text])
    if config.out is not None:
        sys.stdout.write(text)
    return _FAILURE_EXIT if failed else 0


#: Each command's handler, and what it loads before it runs: the scipy
#: parts it calls, and the process pool's modules for the commands that
#: may start one, which alone take --workers.
_COMMANDS = {
    "solve": (_cmd_solve, (_scipy.linear_sum_assignment,)),
    "bounds": (_cmd_bounds, (_BOUNDS,)),
    "estimate": (_cmd_estimate, (_sampler, _scipy.linear_sum_assignment, _POOL)),
    "ratio-table": (_cmd_ratio_table, (_sampler, _BOUNDS, _scipy.linear_sum_assignment, _POOL)),
    "nearmax": (_cmd_nearmax, (_sampler, _scipy.linear_sum_assignment, _POOL)),
    "enumerate": (_cmd_enumerate, ()),
    "verify": (_cmd_verify, (_sampler, _scipy.linear_sum_assignment)),
}


def run(config: argparse.Namespace) -> int:
    """Dispatch parsed arguments to their subcommand."""
    handler, _ = _COMMANDS[config.subcommand]
    return handler(config)


def _check_out_dir(out: str | None) -> str | None:
    """The path to write for ``--out``, with links resolved, so that the
    write renames a new file over a link's target, not over the link.

    Fails before any work when ``--out`` cannot be written: it must be a
    non-empty path whose target is not a directory, is a regular file if
    it exists, and lies in a directory that exists and is writable."""
    if out is None:
        return None
    if not out:
        raise OSError(f"cannot write --out {out!r}: the path is empty")
    target = os.path.realpath(out)
    if os.path.isdir(target):
        raise OSError(f"cannot write --out {out!r}: it is a directory")
    if os.path.exists(target) and not os.path.isfile(target):
        raise OSError(f"cannot write --out {out!r}: it is not a regular file")
    directory = os.path.dirname(target)
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)):
        raise OSError(f"cannot write --out {out!r}: no writable directory {directory!r}")
    return target


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


#: glibc's mallopt parameters and the values :func:`_settle_process` gives
#: them: the ceilings its adaptive rule reaches, so scratch arrays of up
#: to 32 MiB stay in the heap once freed and are reused, not faulted in
#: again.  Setting either one switches that rule off, so both are set.
_MALLOPT_SETTINGS = ((-3, 32 << 20), (-1, 64 << 20))  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def _settle_process() -> None:
    """Fix glibc's malloc thresholds, where the C library is glibc, and
    freeze every object built so far out of the garbage collector's
    reach.  A worker pool forked later inherits both, and exit skips the
    collection of what numpy and scipy built at set-up.  Neither changes
    what a command computes."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        libc = ""
    if libc.startswith("glibc"):
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        for param, value in _MALLOPT_SETTINGS:
            # mallopt returns 1 on success and 0 on error.
            if mallopt(param, value) != 1:
                logger.debug("mallopt(%d, %d) failed", param, value)
    gc.freeze()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status.

    Once the arguments parse, it fixes glibc's malloc thresholds and
    freezes the objects built so far (:func:`gc.freeze`) in the calling
    process, which keeps both after it returns."""
    if argv is None:
        argv = sys.argv[1:]
    started = time.monotonic()
    try:
        _configure_logging()
        config = parse_args(list(argv))
        _settle_process()
        config.out = _check_out_dir(config.out)
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
    except MemoryError as exc:
        print(f"graf: error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return _FAILURE_EXIT
    except BrokenExecutor as exc:
        # A pool worker died, for example killed for lack of memory.
        print(f"graf: error: worker pool failed: {exc}", file=sys.stderr)
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
