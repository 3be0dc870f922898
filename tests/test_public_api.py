import graf

from conftest import run_fresh

# Every public name, so that an addition or deletion shows in the diff.
PUBLIC_NAMES = [
    "CostMatrix",
    "DimensionSummary",
    "EstimateReport",
    "SolveResult",
    "StatSummary",
    "ball_counts_exact",
    "ball_size",
    "ball_size_upper_bound",
    "correlation",
    "correlation_histogram_exact",
    "derangement_count",
    "derive_seed",
    "enumerate_field",
    "enumerated_field_mean",
    "estimate",
    "field_value",
    "greedy_assignment",
    "log_factorial",
    "mean_correlation_exhaustive",
    "nearmax_table",
    "ratio_table",
    "read_matrix_csv",
    "rencontres_count",
    "replicate_block",
    "sample_cost_entries",
    "sample_cost_matrix",
    "solve_max_bruteforce",
    "solve_max_exact",
    "solve_min_exact",
    "write_matrix_csv",
]


def test_public_names():
    assert sorted(graf.__all__) == PUBLIC_NAMES


def test_bounds_names_stay_in_their_module():
    # graf.bounds imports scipy, so neither `import graf` nor `import
    # graf.cli` loads it, and graf does not re-export its names.
    script = "\n".join([
        "import sys",
        "import graf",
        "import graf.cli",
        "assert 'graf.bounds' not in sys.modules",
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)",
        "assert set(graf.__all__) <= set(dir(graf))",
        "assert all(hasattr(graf, name) for name in graf.__all__)",
        "assert not hasattr(graf, 'upper_bound_expected_max')",
        "from graf.bounds import upper_bound_expected_max",
        "assert upper_bound_expected_max(10) > 0",
    ])
    result = run_fresh(script)
    assert result.returncode == 0, result.stderr
