"""The package's public names: one `__all__` per module, re-exported by `netdiff`."""

import importlib

import netdiff

# the top-level names of the package before it was built from the module lists
TOP_LEVEL = {
    "CITestReport", "ConfigError", "ConstantDiffusion", "DiffusionTable", "DriftSpec", "DriftTable",
    "EvalError", "FactorModel", "FactorModelInitial", "GaussianSystem", "GirsanovWeights", "Graph",
    "InfiniteGraph", "JointTable", "NormalInitial", "ParseError", "PathEnsemble", "PerVertexInitial",
    "PointMass", "SimulationError", "StackedCovariance", "TanhDiagonalDiffusion", "TruncationTable",
    "UniformInitial", "adjacency_matrix", "augmented_truncation", "ball", "boundary", "boundary2",
    "build_linear_system", "check_mrf_bruteforce", "cliques", "complete_graph", "conditional_covariance",
    "conditional_specification", "covariance_at", "cycle_graph", "energy_distance",
    "ensemble_summary_csv", "entropy_bound_estimate", "exact_gaussian_ci", "factor_model_from_json",
    "factor_model_to_json", "factorize_positive_2mrf", "format_edge_list",
    "girsanov_weights", "graph_distance", "grid_graph", "is_2cutset", "joint_table", "linear_system",
    "load_config", "load_ensemble", "marginalize", "matrix_csv", "mrf_order_scan", "order_summary",
    "parse_drift", "parse_edge_list", "partial_correlation_ci_test", "path_covariance", "path_graph",
    "path_precision_blocks", "precision_at", "precision_edges_json", "project_to_truncation",
    "projection_counterexample_search", "random_factor_model", "regular_tree", "reports_to_csv",
    "reports_to_json", "save_ensemble", "simulate", "simulate_driftless", "simulate_truncated",
    "square_graph", "total_variation", "truncated_drift_family", "truncation_convergence",
    "validate_config", "z_line", "zero_drift",
}

MODULES = ("coefficients", "config", "discrete", "engine", "gaussian", "graphs", "independence", "initials")


def test_public_names_come_from_the_module_lists():
    assert TOP_LEVEL <= set(netdiff.__all__)
    assert len(netdiff.__all__) == len(set(netdiff.__all__))
    listed = set()
    for name in MODULES:
        module = importlib.import_module(f"netdiff.{name}")
        for attr in module.__all__:
            assert getattr(netdiff, attr) is getattr(module, attr)
        listed.update(module.__all__)
    assert listed == set(netdiff.__all__)

