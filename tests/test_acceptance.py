"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints exactly one ``[criterion N] PASS/FAIL`` line.  Heavy
simulations run once per session through the fixtures below; master seeds
are arbitrary fixed constants, so the whole suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from graf.bounds import (
    expected_max_iid_gaussian,
    greedy_lower_bound,
    nearmax_regime_threshold,
    trivial_upper_bound_expected_max,
    upper_bound_expected_max,
)
from graf.combinatorics import ball_size, ball_size_upper_bound, rencontres_count
from graf.enumerator import ball_counts_exact, correlation_histogram_exact, nearmax_table
from graf.field import sample_cost_matrix
from graf.montecarlo import derive_seed, estimate, ratio_table, replicate_block
from graf.solvers import solve_max_bruteforce, solve_max_exact

from conftest import ks_critical_value, symmetry_statistic

SEED_SOLVER = 101
SEED_DECOMP = 202
SEED_BRACKET = 303
SEED_RATIO = 20250811
SEED_DIMENSION = 404
SEED_SYMMETRY = 505

WORKERS = 2

# Ratio endpoints recorded from the first run of this deterministic suite
# (master seed SEED_RATIO, 10^4 replications); regression values, not
# targets.
RATIO_ENDPOINT_N5 = 0.6763646383889133
RATIO_ENDPOINT_N100 = 0.8683760860948259


def _criterion(label: str, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" | {detail}" if detail else ""
    print(f"[criterion {label}] {status}: {description}{suffix}", flush=True)
    assert ok, f"criterion {label} failed: {description}{suffix}"


def _combined(se_a: float, se_b: float) -> float:
    return math.hypot(se_a, se_b)


@pytest.fixture(scope="session")
def bracket_reports():
    """Estimates at the sizes and replication counts of the moment-bracket
    criterion: 10^5 replications for n <= 20, 10^4 at n = 50."""
    started = time.perf_counter()
    reports = {
        n: estimate(
            n,
            100_000 if n <= 20 else 10_000,
            derive_seed(SEED_BRACKET, n),
            workers=WORKERS,
        )
        for n in (5, 10, 20, 50)
    }
    return reports, time.perf_counter() - started


@pytest.fixture(scope="session")
def ratio_reports():
    started = time.perf_counter()
    reports = ratio_table([5, 10, 20, 50, 100], 10_000, SEED_RATIO, workers=WORKERS)
    return reports, time.perf_counter() - started


@pytest.fixture(scope="session")
def decomposition_samples():
    columns = replicate_block(10, [derive_seed(SEED_DECOMP, k) for k in range(10_000)]).T
    max_value, _, _, field_mean, residual_max = np.ascontiguousarray(columns)
    return {"max": max_value, "gbar": field_mean, "residual": residual_max}


@pytest.fixture(scope="session")
def dimension_rows():
    """Near-maximal dimension at n = 4 and 8 over an increasing epsilon grid:
    0.02, 0.05, 0.1 and each size's regime boundary, all counted on the same
    10^3 matrices in one enumeration pass.  Returns ``{n: {eps: row}}`` with
    the epsilons in increasing order."""
    started = time.perf_counter()
    boundaries = [nearmax_regime_threshold(n) for n in (4, 8)]
    rows = nearmax_table(
        [4, 8],
        sorted([0.02, 0.05, 0.1, *boundaries]),
        replications=1000,
        master_seed=SEED_DIMENSION,
        m_reps=100_000,
        workers=WORKERS,
    )
    by_size = {}
    for row in rows:
        by_size.setdefault(row.n, {})[row.epsilon] = row
    return by_size, time.perf_counter() - started


def test_criterion_01_solver_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        for i in range(500):
            c = sample_cost_matrix(n, derive_seed(SEED_SOLVER, n, i))
            gap = abs(solve_max_exact(c).raw_sum - solve_max_bruteforce(c).raw_sum)
            worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    _criterion(
        "1",
        "exact solver equals exhaustive search on 500 matrices per n in 2..8",
        worst < 1e-9 and elapsed < 120.0,
        f"worst gap {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_rencontres_exactness():
    started = time.perf_counter()
    counts_ok = True
    worst_prop = 0.0
    for n in range(2, 9):
        counts = correlation_histogram_exact(n)
        counts_ok &= counts == tuple(rencontres_count(n, k) for k in range(n + 1))
        nfact = math.factorial(n)
        for k in range(n + 1):
            montmort = math.fsum(
                (-1) ** l / math.factorial(l) for l in range(n - k + 1)
            ) / math.factorial(k)
            worst_prop = max(worst_prop, abs(counts[k] / nfact - montmort))
    elapsed = time.perf_counter() - started
    _criterion(
        "2",
        "exhaustive agreement histograms equal the closed-form counts",
        counts_ok and worst_prop < 1e-14 and elapsed < 60.0,
        f"worst proportion gap {worst_prop:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_outsourcing_decomposition(decomposition_samples):
    s = decomposition_samples
    reps = s["max"].size
    identity_gap = np.abs(s["max"] - (s["gbar"] + s["residual"]))
    identity_ok = bool((identity_gap <= 1e-12 * np.maximum(1.0, np.abs(s["max"]))).all())

    gbar_c = s["gbar"] - s["gbar"].mean()
    res_c = s["residual"] - s["residual"].mean()
    cov = float((gbar_c * res_c).sum() / (reps - 1))
    se_cov = float((gbar_c * res_c).std(ddof=1) / math.sqrt(reps))
    cov_ok = abs(cov) <= 3.0 * se_cov

    max_c = s["max"] - s["max"].mean()
    diff_terms = max_c**2 - gbar_c**2 - res_c**2
    var_gap = float(np.var(s["max"], ddof=1) - np.var(s["gbar"], ddof=1) - np.var(s["residual"], ddof=1))
    se_gap = float(diff_terms.std(ddof=1) / math.sqrt(reps))
    additivity_ok = abs(var_gap) <= 3.0 * se_gap

    _criterion(
        "3",
        "max = field mean + residual per sample; parts uncorrelated; variances add",
        identity_ok and cov_ok and additivity_ok,
        f"cov {cov:.2e} (3se {3*se_cov:.2e}), variance gap {var_gap:.2e} (3se {3*se_gap:.2e})",
    )


def test_criterion_04_moment_bracket(bracket_reports):
    reports, elapsed = bracket_reports
    failures = []
    for n, report in reports.items():
        mean_ok = report.max_value.mean <= upper_bound_expected_max(n) + 3.0 * report.max_value.mean_std_error
        var_ok = report.max_value.variance >= 1.0 / n - 3.0 * report.max_value.variance_std_error
        gbar_ok = abs(report.field_mean.variance - 1.0 / n) <= 3.0 * report.field_mean.variance_std_error
        if not (mean_ok and var_ok and gbar_ok):
            failures.append((n, mean_ok, var_ok, gbar_ok))
    _criterion(
        "4",
        "mean below its bound, variance above 1/n, field-mean variance at 1/n",
        not failures and elapsed < 900.0,
        f"failures={failures}, fixture {elapsed:.0f}s",
    )


def test_criterion_05_extremality_trend(ratio_reports):
    reports, _ = ratio_reports
    ratios = [r.ratio for r in reports]
    ses = [r.ratio_std_error for r in reports]
    increasing = all(
        ratios[i + 1] - ratios[i] > 2.0 * _combined(ses[i], ses[i + 1])
        for i in range(len(ratios) - 1)
    )
    bracket_ok = True
    for r in reports:
        scale = trivial_upper_bound_expected_max(r.n)
        lower = greedy_lower_bound(r.n) / scale - 3.0 * r.ratio_std_error
        upper = math.sqrt(1.0 - 1.0 / r.n)
        bracket_ok &= lower <= r.ratio <= upper
    regression_ok = (
        abs(ratios[0] - RATIO_ENDPOINT_N5) < 1e-9
        and abs(ratios[-1] - RATIO_ENDPOINT_N100) < 1e-9
    )
    _criterion(
        "5",
        "ratio to sqrt(2 log n!) increases with n inside its bracket",
        increasing and bracket_ok and regression_ok,
        "ratios " + ", ".join(f"{x:.4f}" for x in ratios),
    )


def test_criterion_06_greedy_identities(bracket_reports):
    reports, _ = bracket_reports
    report = reports[10]
    never_wins = report.greedy_violations == 0
    target = greedy_lower_bound(10)
    mean_ok = abs(report.greedy_value.mean - target) <= 3.0 * report.greedy_value.mean_std_error
    mu2_ok = abs(expected_max_iid_gaussian(2) - 1.0 / math.sqrt(math.pi)) < 1e-8
    _criterion(
        "6",
        "greedy never beats the maximum; its mean matches the mu-sum; mu_2 exact",
        never_wins and mean_ok and mu2_ok,
        f"mean greedy {report.greedy_value.mean:.5f} vs {target:.5f} "
        f"(3se {3*report.greedy_value.mean_std_error:.1e})",
    )


def test_criterion_07_superconcentration_trend(ratio_reports):
    reports, _ = ratio_reports
    variances = [r.max_value.variance for r in reports]
    ses = [r.max_value.variance_std_error for r in reports]
    decreasing = all(
        variances[i] - variances[i + 1] > 2.0 * _combined(ses[i], ses[i + 1])
        for i in range(len(variances) - 1)
    )
    above_floor = all(
        r.max_value.variance >= 1.0 / r.n - 3.0 * r.max_value.variance_std_error
        for r in reports
    )
    _criterion(
        "7",
        "variance of the maximum decreases with n while staying above 1/n",
        decreasing and above_floor,
        "variances " + ", ".join(f"{v:.4f}" for v in variances),
    )


def test_criterion_08a_ball_size_verification():
    started = time.perf_counter()
    all_ok = True
    for n in range(2, 9):
        for tenths in range(1, 10):
            delta = tenths / 10
            counts = ball_counts_exact(n, delta, seed=SEED_DIMENSION)
            all_ok &= counts == (ball_size(n, delta),) * 3
    elapsed = time.perf_counter() - started
    _criterion(
        "8a",
        "enumerated correlation-ball counts match the closed form (n<=8, all deltas)",
        all_ok and elapsed < 600.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_08b_ball_size_bound():
    ok = all(
        ball_size(n, tenths / 10) <= ball_size_upper_bound(n, tenths / 10)
        for n in range(2, 9)
        for tenths in range(1, 10)
    )
    _criterion("8b", "ball sizes stay below n**(delta*n)", ok)


def test_criterion_08c_dimension_decrease(dimension_rows):
    """The near-maximal dimension shrinks as epsilon shrinks, at n = 4 and 8.

    This is the finite-n side of the paper's claim that the dimension of the
    near-optimal set goes to zero.  The paper bounds E log|A_n(eps)| with an
    unspecified constant, so no value of that constant is asserted, and at
    fixed epsilon it promises no direction in n (see notes/decisions.md).
    """
    rows, elapsed = dimension_rows
    ok = elapsed < 600.0
    details = []
    mid, edge = {}, {}
    for n, by_eps in rows.items():
        dims = [row.dimension for row in by_eps.values()]
        nested = all(a <= b for a, b in zip(dims, dims[1:]))
        low, mid[n], edge[n] = by_eps[0.02], by_eps[0.1], by_eps[nearmax_regime_threshold(n)]
        gaps_ok = all(
            hi.dimension - lo.dimension > 2.0 * _combined(hi.se_dimension, lo.se_dimension)
            for lo, hi in ((low, mid[n]), (mid[n], edge[n]))
        )
        ok = ok and nested and gaps_ok
        details.append(
            f"n={n}: dim(0.02) {low.dimension:.4f}+-{low.se_dimension:.4f}, "
            f"dim(eps_n={edge[n].epsilon:.3f}) {edge[n].dimension:.4f}+-{edge[n].se_dimension:.4f}"
            f"{'' if nested else ' (NOT monotone in eps)'}"
        )
    details.append(
        f"fixed eps=0.1: dim4 {mid[4].dimension:.4f}+-{mid[4].se_dimension:.4f}, "
        f"dim8 {mid[8].dimension:.4f}+-{mid[8].se_dimension:.4f}; "
        f"at eps_n: dim4 {edge[4].dimension:.4f}, dim8 {edge[8].dimension:.4f} "
        "(no direction in n is claimed, see notes/decisions.md)"
    )
    _criterion(
        "8c",
        "expected near-maximal dimension shrinks with eps at n=4 and n=8 "
        "(eps 0.02 < 0.1 < eps_n by 2 SE, nondecreasing on the grid, 10^3 matrices)",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s",
    )


def test_criterion_09_symmetry():
    critical = ks_critical_value(10_000, 0.01)
    statistics = {
        n: symmetry_statistic(n, 10_000, derive_seed(SEED_SYMMETRY, n)) for n in (3, 5, 10)
    }
    ok = all(d < critical for d in statistics.values())
    detail = ", ".join(f"n={n}: D={d:.4f} < {critical:.4f}" for n, d in statistics.items())
    _criterion("9", "negated minimum matches the maximum in distribution (KS, alpha=0.01)", ok, detail)


def test_criterion_10_reproducibility(tmp_path):
    from graf.cli import main

    outputs = []
    for name, workers in (("a.json", 1), ("b.json", 1), ("c.json", 2)):
        path = tmp_path / name
        code = main(
            [
                "estimate", "--n", "5", "--reps", "6000", "--seed", "77",
                "--workers", str(workers), "--out", str(path),
            ]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    estimate_ok = outputs[0] == outputs[1] == outputs[2]

    tables = []
    for name, workers in (("r1.csv", 1), ("r2.csv", 2)):
        path = tmp_path / name
        code = main(
            [
                "ratio-table", "--n-list", "3,5", "--reps", "500", "--seed", "5",
                "--workers", str(workers), "--out", str(path),
            ]
        )
        assert code == 0
        tables.append(path.read_bytes())
    table_ok = tables[0] == tables[1]

    nearmax = []
    for name in ("n1.csv", "n2.csv"):
        path = tmp_path / name
        code = main(
            [
                "nearmax", "--n", "4", "--eps", "0.1,0.3", "--reps", "60",
                "--seed", "11", "--m-reps", "500", "--workers", "1",
                "--out", str(path),
            ]
        )
        assert code == 0
        nearmax.append(path.read_bytes())
    nearmax_ok = nearmax[0] == nearmax[1]

    _criterion(
        "10",
        "CLI reruns are byte-identical, including across worker counts",
        estimate_ok and table_ok and nearmax_ok,
    )
