import pytest

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
    "expected_max_iid_gaussian",
    "field_value",
    "greedy_assignment",
    "greedy_lower_bound",
    "log_factorial",
    "mean_correlation_exhaustive",
    "nearmax_regime_threshold",
    "nearmax_table",
    "nearmax_theorem_bound",
    "ratio_table",
    "read_matrix_csv",
    "rencontres_count",
    "replicate_block",
    "sample_cost_entries",
    "sample_cost_matrix",
    "solve_max_bruteforce",
    "solve_max_exact",
    "solve_min_exact",
    "trivial_upper_bound_expected_max",
    "upper_bound_expected_max",
    "variance_lower_bound",
    "write_matrix_csv",
]


def test_public_names():
    assert sorted(graf.__all__) == PUBLIC_NAMES


def test_bounds_names_load_on_first_use():
    # graf.bounds imports scipy, so `import graf` leaves it unloaded until
    # one of its names is used; each name is listed by dir() before that.
    script = "\n".join([
        "import sys",
        "import graf",
        "assert 'graf.bounds' not in sys.modules",
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)",
        "assert set(graf.__all__) <= set(dir(graf))",
        "value = graf.upper_bound_expected_max(10)",
        "from graf.bounds import upper_bound_expected_max",
        "assert value == upper_bound_expected_max(10) > 0",
        "assert all(hasattr(graf, name) for name in graf.__all__)",
    ])
    result = run_fresh(script)
    assert result.returncode == 0, result.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        graf.no_such_name
