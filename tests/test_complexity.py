"""Tests for the complexity model: f, g(n) and the analytic predictions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.complexity import (
    choose_k,
    linear,
    log_star,
    mm_mis_tree_bound,
    mm_mis_tree_bound_from_log2,
    polylog,
    polynomial,
    predicted_rounds_arboricity,
    predicted_rounds_tree,
    predicted_rounds_tree_from_log2,
    quadratic,
    solve_g,
    solve_g_from_log2,
    sqrt_delta_log,
)


class TestLogStar:
    def test_values(self):
        assert log_star(1) == 0
        assert log_star(2) == 1
        assert log_star(4) == 2
        assert log_star(16) == 3
        assert log_star(65536) == 4
        assert log_star(2**65536 if False else 10**9) == 5

    def test_monotone(self):
        values = [log_star(n) for n in (1, 2, 10, 1000, 10**6, 10**12)]
        assert values == sorted(values)


class TestComplexityFunctions:
    def test_zero_at_zero(self):
        for f in (linear(), quadratic(), polynomial(1.5), polylog(12), sqrt_delta_log()):
            assert f(0) == 0.0

    def test_linear_and_quadratic(self):
        assert linear()(7) == 7
        assert linear(2.0)(7) == 14
        assert quadratic()(3) == 9
        assert polynomial(3)(2) == 8

    def test_polylog(self):
        f = polylog(12)
        assert f(1) == 0.0
        assert f(2) == pytest.approx(1.0)
        assert f(4) == pytest.approx(2.0**12)

    def test_sqrt_delta_log(self):
        f = sqrt_delta_log()
        assert f(4) == pytest.approx(2.0 * 2.0)


class TestSolveG:
    def test_linear_f_gives_g_to_the_g(self):
        # g^g = n  <=>  g log g = log n.
        f = linear()
        for n in (10, 1000, 10**6, 10**9):
            g = solve_g(f, n)
            assert g**g == pytest.approx(n, rel=1e-3)

    def test_constant_exponent_polynomial(self):
        # f(x) = x^2: g^(g^2) = n.
        f = polynomial(2)
        g = solve_g(f, 10**6)
        assert g ** (g**2) == pytest.approx(10**6, rel=1e-3)

    def test_polylog_12_matches_theorem_3_exponent(self):
        # With f(Δ) = log^12 Δ, Theorem 3 predicts f(g(n)) = Θ(log^{12/13} n):
        # log2(g) should equal (log2 n)^{1/13}.
        f = polylog(12)
        for exponent in (20, 60, 200, 1000):
            n = 2.0**exponent
            g = solve_g(f, n)
            # f(g) * log2(g) = log2(n)  =>  log2(g)^13 = log2(n)
            assert math.log2(g) ** 13 == pytest.approx(
                math.log2(n) * math.log(2) / math.log(2), rel=1e-2
            )
            predicted = f(g)
            expected = math.log2(n) ** (12 / 13)
            # The natural-log vs log2 choice shifts constants; the exponent matches.
            assert predicted == pytest.approx(expected, rel=0.35)

    def test_small_n(self):
        assert solve_g(linear(), 1) == 1.0
        assert solve_g(linear(), 0.5) == 1.0

    def test_tiny_f_returns_n(self):
        # If even g = n cannot reach the target, solve_g caps at n.
        f = polylog(1, scale=1e-6)
        assert solve_g(f, 100) == 100

    def test_monotone_in_n(self):
        f = polylog(2)
        values = [solve_g(f, n) for n in (10, 10**3, 10**6, 10**12)]
        assert values == sorted(values)


class TestChooseKAndPredictions:
    def test_choose_k_minimum(self):
        assert choose_k(quadratic(), 10) >= 2

    def test_choose_k_rho_scales(self):
        f = polylog(2)
        n = 10**9
        assert choose_k(f, n, rho=2) >= choose_k(f, n, rho=1)

    def test_tree_prediction_strongly_sublogarithmic_for_polylog(self):
        from repro.core.complexity import (
            mm_mis_tree_bound_from_log2,
            predicted_rounds_tree_from_log2,
        )

        f = polylog(12)
        # The log^{12/13} n vs log n / log log n separation is asymptotic;
        # for exponent 12 it only manifests at enormous sizes, so the check
        # is done purely in log-space (n = 2^(10^35)).
        log2_n = 1e35
        predicted = predicted_rounds_tree_from_log2(f, log2_n)
        barrier = mm_mis_tree_bound_from_log2(log2_n)
        assert predicted < barrier  # beats the MIS/MM Ω(log n / log log n) barrier
        # For a milder truly local complexity (log² Δ) the separation already
        # shows up at n = 2^10000.
        assert predicted_rounds_tree_from_log2(polylog(2), 1e4) < mm_mis_tree_bound_from_log2(1e4)

    def test_tree_prediction_matches_mm_bound_for_linear(self):
        # f(Δ) = Δ reproduces the Θ(log n / log log n) bound of [BE10/BE13].
        f = linear()
        n = 2.0**64
        predicted = predicted_rounds_tree(f, n)
        reference = mm_mis_tree_bound(n)
        assert 0.3 * reference <= predicted <= 3.5 * reference
        for log2_n in (1e4, 1e8, 1e16):
            predicted = predicted_rounds_tree_from_log2(f, log2_n)
            assert 0.5 <= predicted / mm_mis_tree_bound_from_log2(log2_n) <= 3.0

    def test_log12_prediction_grows_with_exponent_twelve_thirteenths(self):
        f = polylog(12)
        low, high = 1e8, 1e34
        growth = predicted_rounds_tree_from_log2(f, high) / predicted_rounds_tree_from_log2(f, low)
        assert abs(math.log(growth) / math.log(high / low) - 12 / 13) < 0.02
        assert solve_g_from_log2(f, 1e24) > 1.0
        assert solve_g_from_log2(polylog(2), 1e24) > 1.0

    def test_intro_examples(self):
        """Section 1.1: (Δ+1)-colouring in O(log⁵ Δ) would give O(log^{5/6} n)
        on trees; (2Δ-1)-edge colouring in O(log Δ) would give O(√log n)."""
        log2_n = 1e12
        five = predicted_rounds_tree_from_log2(polylog(5), log2_n)
        assert abs(math.log(five) / math.log(log2_n) - 5 / 6) < 0.03
        # With f = log Δ the cut-off degree is 2^sqrt(log2 n): keep it a float.
        log2_n = 1e5
        one = predicted_rounds_tree_from_log2(polylog(1), log2_n)
        assert abs(math.log(one) / math.log(log2_n) - 1 / 2) < 0.03

    def test_arboricity_prediction_requires_large_enough_rho(self):
        f = polylog(12)
        with pytest.raises(ValueError):
            predicted_rounds_arboricity(f, 2.0**40, arboricity=10**9, rho=1)

    def test_arboricity_prediction_within_constant_factor_of_tree_case(self):
        # With rho = 2 the arboricity formula charges f(g^2) <= 2^12 * f(g),
        # a constant factor: the prediction stays within that factor of the
        # plain tree prediction (Theorem 3's O(·) absorbs it).
        f = polylog(12)
        n = 2.0**200
        tree_like = predicted_rounds_arboricity(f, n, arboricity=1, rho=2)
        tree = predicted_rounds_tree(f, n)
        assert tree <= tree_like <= 2**12 * tree + 10

    def test_mm_mis_bound_monotone(self):
        values = [mm_mis_tree_bound(n) for n in (10, 100, 10**4, 10**8)]
        assert values == sorted(values)

    def test_predictions_zero_for_tiny_n(self):
        assert predicted_rounds_tree(linear(), 1) == 0.0
        assert predicted_rounds_arboricity(linear(), 1, 1) == 0.0


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["linear", "quadratic", "polylog2", "polylog12", "sqrt"]),
    st.floats(min_value=10.0, max_value=1e30),
)
def test_property_solve_g_satisfies_defining_equation(kind, n):
    f = {
        "linear": linear(),
        "quadratic": quadratic(),
        "polylog2": polylog(2),
        "polylog12": polylog(12),
        "sqrt": sqrt_delta_log(),
    }[kind]
    g = solve_g(f, n)
    assert 1.0 <= g <= n
    if g < n:  # interior solution: the defining equation holds
        assert f(g) * math.log(g) == pytest.approx(math.log(n), rel=1e-4, abs=1e-6)


class TestOracleCostModelChargedRounds:
    """The analytic black-box charge: rounding convention and validation."""

    def _model(self, fn, name="test-model"):
        from repro.core.complexity import ComplexityFunction
        from repro.core.interfaces import OracleCostModel

        return OracleCostModel(name, ComplexityFunction("test-f", fn))

    def test_charge_is_f_plus_log_star(self):
        model = self._model(lambda x: 100.0)
        assert model.charged_rounds(8, 2**16) == 100 + log_star(2**16)

    def test_rounding_convention_is_bankers(self):
        """int(round(...)) rounds halves to the even neighbour: 2.5 -> 2,
        3.5 -> 4.  Pinned so a reimplementation cannot silently change the
        charged account by one round."""
        assert self._model(lambda x: 2.5).charged_rounds(3, 2) == 2 + log_star(2)
        assert self._model(lambda x: 3.5).charged_rounds(3, 2) == 4 + log_star(2)
        assert self._model(lambda x: 3.4999).charged_rounds(3, 2) == 3 + log_star(2)

    def test_degree_and_n_floors(self):
        seen = []
        model = self._model(lambda x: seen.append(x) or float(x))
        model.charged_rounds(0, 0)
        assert seen == [1]  # degree floored to 1; n floored to 2 in log*

    def test_zero_complexity_is_a_valid_charge(self):
        # polylog models legitimately return 0 at degree 1.
        model = self._model(polylog(12).fn)
        assert model.charged_rounds(1, 2**16) == log_star(2**16)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), -1.0, -0.001]
    )
    def test_invalid_complexity_output_raises_with_model_name(self, bad):
        model = self._model(lambda x: bad, name="broken-oracle")
        with pytest.raises(ValueError, match="broken-oracle"):
            model.charged_rounds(8, 100)

    def test_error_names_the_offending_value(self):
        model = self._model(lambda x: -7.0, name="negative-oracle")
        with pytest.raises(ValueError, match="-7.0"):
            model.charged_rounds(8, 100)
