import pytest

from graph_calculus import build_weights, run_invariant_suite, verification

EXPECTED_NAMES = {
    "gradient_antisymmetry",
    "adjointness",
    "divgrad_factorization",
    "sqrt_degree_null_vector",
    "spectral_range",
}


def test_default_suite_passes_with_tiny_residuals():
    reports = run_invariant_suite(n=100, n_seeds=5)
    assert {r.name for r in reports} == EXPECTED_NAMES
    for rep in reports:
        assert rep.passed, f"{rep.name}: {rep.worst_residual}"
        assert rep.worst_residual <= 1e-10


def test_smallest_legal_graph():
    reports = run_invariant_suite(n=2, n_seeds=3)
    assert all(rep.passed for rep in reports)


def test_corrupted_weight_matrix_breaks_adjointness(monkeypatch):
    def corrupted(cloud, kernel):
        w = build_weights(cloud, kernel)
        w[0, 1] += 1e-3  # asymmetric on purpose
        return w

    monkeypatch.setattr(verification, "build_weights", corrupted)
    reports = {r.name: r for r in run_invariant_suite(n=40, n_seeds=1)}
    assert not reports["adjointness"].passed
    assert reports["adjointness"].worst_residual > 1e-10


def test_n_above_dense_cap_rejected():
    with pytest.raises(ValueError, match="<= 1000"):
        run_invariant_suite(n=1001)


def test_fractional_n_rejected():
    with pytest.raises(ValueError, match="^N must be an integer >= 2, got 4.5$"):
        run_invariant_suite(n=4.5)
