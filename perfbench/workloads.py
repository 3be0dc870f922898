"""The four fixed ``graf`` CLI workloads and the checks on their outputs.

Each workload turns a seed into program inputs (flags, plus a matrix CSV
for ``enumerate-n9``) and knows how many units of work one execution
does.  The output checks never trust the program: they test invariants
that hold for every seed, and at the default seed they compare the
output's SHA-256 with the digest pinned in ``digests.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Seed the benchmark uses when none is given; output digests are pinned here.
DEFAULT_SEED = 0

DIGESTS_PATH = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape; ``units`` counts the work one execution does.

    ``args(seed, input_path, workers)`` returns the ``graf`` argv without
    ``--out``; ``workers`` is None for subcommands without a pool.
    """

    name: str
    units: int
    why: str
    suffix: str
    pool_workers: int | None
    args: Callable[[int, Path | None, int | None], list[str]]
    check: Callable[[Path, int, Path | None], list[str]]
    needs_input: bool = False


def _workers(workers: int | None) -> list[str]:
    return [] if workers is None else ["--workers", str(workers)]


def _estimate_args(seed: int, _input: Path | None, workers: int | None) -> list[str]:
    return ["estimate", "--n", "10", "--reps", "32768", "--seed", str(seed), *_workers(workers)]


def _ratio_args(seed: int, _input: Path | None, workers: int | None) -> list[str]:
    return [
        "ratio-table", "--n-list", "100,200", "--reps", "512", "--seed", str(seed),
        *_workers(workers),
    ]


NEARMAX_N = (8, 9)
NEARMAX_EPS = (0.05, 0.1, 0.2)
NEARMAX_REPS = 100


def _nearmax_args(seed: int, _input: Path | None, workers: int | None) -> list[str]:
    return [
        "nearmax",
        "--n", ",".join(str(n) for n in NEARMAX_N),
        "--eps", ",".join(str(e) for e in NEARMAX_EPS),
        "--reps", str(NEARMAX_REPS),
        "--m-reps", "4096",
        "--seed", str(seed),
        *_workers(workers),
    ]


def _enumerate_args(_seed: int, input_path: Path | None, _workers: int | None) -> list[str]:
    return ["enumerate", "--input", str(input_path)]


def csv_records(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def check_estimate(path: Path, seed: int, _input: Path | None) -> list[str]:
    doc = json.loads(path.read_text(encoding="ascii"))
    problems = []
    if (doc.get("n"), doc.get("replications"), doc.get("master_seed")) != (10, 32768, seed):
        problems.append("estimate: header does not match the requested run")
    if doc.get("greedy_violations") != 0:
        problems.append(f"estimate: greedy_violations={doc.get('greedy_violations')}")
    return problems


def check_ratio(path: Path, _seed: int, _input: Path | None) -> list[str]:
    rows = csv_records(path)
    problems = []
    if [int(r["n"]) for r in rows] != [100, 200]:
        problems.append("ratio-table: expected rows for n=100,200")
    for r in rows:
        w, g, m = float(r["mean_W"]), float(r["mean_greedy"]), float(r["mean_M"])
        cap = float(r["upper_E"]) + 4.0 * float(r["se_M"])
        if not w <= g <= m <= cap:
            problems.append(
                f"ratio-table n={r['n']}: need mean_W <= mean_greedy <= mean_M <= "
                f"upper_E + 4 se_M, got {w}, {g}, {m}, {cap}"
            )
    return problems


def check_nearmax(path: Path, _seed: int, _input: Path | None) -> list[str]:
    rows = csv_records(path)
    problems = []
    expected = [(n, e) for n in NEARMAX_N for e in NEARMAX_EPS]
    if [(int(r["n"]), float(r["eps"])) for r in rows] != expected:
        problems.append("nearmax: rows do not cover every (n, eps) in order")
        return problems
    for n in NEARMAX_N:
        dims = [float(r["dimension"]) for r in rows if int(r["n"]) == n]
        if not all(0.0 <= d <= 1.0 for d in dims):
            problems.append(f"nearmax n={n}: dimension outside [0, 1]: {dims}")
        # The same matrices are counted at every eps, so sets only grow.
        if any(a > b for a, b in zip(dims, dims[1:])):
            problems.append(f"nearmax n={n}: dimension decreases as eps grows: {dims}")
    return problems


def check_enumerate(path: Path, _seed: int, input_path: Path | None) -> list[str]:
    from graf.field import read_matrix_csv
    from graf.solvers import solve_max_exact

    matrix = read_matrix_csv(input_path)
    n = matrix.n
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    problems = []
    if header != ["permutation", "field_value"]:
        return [f"enumerate: unexpected header {header}"]
    if len(rows) != math.factorial(n):
        problems.append(f"enumerate: {len(rows)} rows, expected {math.factorial(n)}")
    perms = [tuple(int(v) for v in r[0].split(",")) for r in rows]
    identity = tuple(range(1, n + 1))
    if any(tuple(sorted(p)) != identity for p in perms):
        problems.append("enumerate: a row is not a permutation of 1..n")
    if any(a >= b for a, b in zip(perms, perms[1:])):
        problems.append("enumerate: rows are not distinct and in lexicographic order")
    values = [float(r[1]) for r in rows]
    best = solve_max_exact(matrix).field_value
    if values and abs(max(values) - best) > 1e-12:
        problems.append(f"enumerate: largest value {max(values)!r} != solved maximum {best!r}")
    closed = float(matrix.entries.sum()) / (n * math.sqrt(n))
    if values and abs(math.fsum(values) / len(values) - closed) > 1e-10:
        problems.append("enumerate: row mean differs from sum(c) / (n sqrt(n))")
    return problems


def _prepare_enumerate(seed: int, workdir: Path) -> Path:
    from graf.field import sample_cost_matrix, write_matrix_csv

    path = workdir / f"matrix-9-{seed}.csv"
    write_matrix_csv(sample_cost_matrix(9, seed), path)
    return path


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="estimate-small",
            units=32768,
            why="replication kernel at n=10, where per-sample Python overhead dominates; "
            "the only workload that uses the process pool (8 blocks); units: replications",
            suffix=".json",
            pool_workers=2,
            args=_estimate_args,
            check=check_estimate,
        ),
        Workload(
            name="ratio-large",
            units=1024,
            why="the same kernel at n=100,200, where the LSA solves dominate and each size "
            "is one block, so the pool is bypassed; also mu_1..mu_200 by quadrature; "
            "units: replications",
            suffix=".csv",
            pool_workers=2,
            args=_ratio_args,
            check=check_ratio,
        ),
        Workload(
            name="nearmax-enum",
            units=len(NEARMAX_N) * NEARMAX_REPS,
            why="exhaustive near-max counting over all n! assignments at n=8,9, plus a "
            "4096-rep m-pass that keeps only the max; units: enumerated matrices",
            suffix=".csv",
            pool_workers=2,
            args=_nearmax_args,
            check=check_nearmax,
        ),
        Workload(
            name="enumerate-n9",
            units=math.factorial(9),
            why="the only output-heavy path: one Permutation and one CSV row per "
            "assignment of a 9x9 matrix; units: assignments written",
            suffix=".csv",
            pool_workers=None,
            args=_enumerate_args,
            check=check_enumerate,
            needs_input=True,
        ),
    )
}


def prepare_input(workload: Workload, seed: int, workdir: Path) -> Path | None:
    """Write the workload's input files, if any, and return the input path."""
    return _prepare_enumerate(seed, workdir) if workload.needs_input else None


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def pinned_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="ascii"))


def check_output(workload: Workload, path: Path, seed: int, input_path: Path | None) -> list[str]:
    """All checks on one output document; an empty list means it passed."""
    problems = workload.check(path, seed, input_path)
    if seed == DEFAULT_SEED:
        expected = pinned_digests().get(workload.name)
        actual = sha256_file(path)
        if actual != expected:
            problems.append(
                f"{workload.name}: SHA-256 {actual} differs from the pinned {expected}"
            )
    return problems
