import graf

# Every public name, so that an addition or deletion shows in the diff.
PUBLIC_NAMES = [
    "CostMatrix",
    "DimensionSummary",
    "EstimateReport",
    "NearMaxReport",
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
    "near_maximal_set",
    "nearmax_regime_threshold",
    "nearmax_table",
    "nearmax_theorem_bound",
    "permutation_texts",
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
