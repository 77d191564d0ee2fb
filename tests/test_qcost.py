"""Exact formula evaluation against a high-precision mpmath reference."""

import importlib
import math
from fractions import Fraction

import mpmath as mp
import pytest

from qipm_bounds.qcost import (ceil_log_term, chebyshev_bracket, duration_grid,
                               exact_grid, hermitian_dilation_params,
                               qlsa_query_count, to_fraction,
                               total_quantum_cycles)


def oracle_bracket(gamma: Fraction, eps: Fraction, dps: int = 60) -> int:
    """Reference bracket at >= 50 significant digits via mpmath.

    Evaluated at two precisions; disagreement would flag an input sitting on
    a ceiling boundary (excluded from randomized grids with probability 1).
    """
    def run(d):
        with mp.workdps(d):
            g = mp.mpf(gamma.numerator) / mp.mpf(gamma.denominator)
            e = mp.mpf(eps.numerator) / mp.mpf(eps.denominator)
            inner = mp.ceil(g * g * mp.log(g / e, 2))
            val = mp.ceil(mp.sqrt(inner * mp.log(4 / e * inner, 2)))
            return int(val), int(inner)
    lo, hi = run(dps), run(2 * dps)
    assert lo == hi, "oracle undecided at the evaluated precision"
    return lo[0]


def oracle_query_count(s, kappa, eps, n_qaa=1) -> int:
    return 8 * oracle_bracket(s * to_fraction(kappa), to_fraction(eps)) * n_qaa


def oracle_cycles(d, gamma, eps) -> int:
    if d == 1:
        return 0
    g, e = to_fraction(gamma), to_fraction(eps)
    return math.ceil(Fraction(8 * (d - 1)) / (e * e) * oracle_bracket(g, e))


class TestAnchors:
    def test_unit_difficulty_query_count(self):
        # inner = ceil(log2(10)) = 4; bracket = ceil(sqrt(4 log2 160)) = 6
        assert qlsa_query_count(1, 1, 0.1, 1) == 48

    def test_s2_query_count(self):
        # inner = ceil(4 log2 20) = 18; bracket = ceil(sqrt(18 log2 720)) = 14
        assert qlsa_query_count(2, 1, 0.1) == 112

    def test_cycles_d2(self):
        assert total_quantum_cycles(2, 1, 0.1) == 4800

    def test_n_qaa_is_linear(self):
        assert qlsa_query_count(1, 1, 0.1, 3) == 3 * qlsa_query_count(1, 1, 0.1)

    def test_degenerate_dimension(self):
        assert total_quantum_cycles(1, 5.0, 0.1) == 0

    def test_doubling_d_identity(self):
        # cycles(2d) - 2 cycles(d) = (8/eps^2) * bracket exactly
        bracket = chebyshev_bracket(3, 0.1)
        for d in (5, 50, 500):
            lhs = total_quantum_cycles(2 * d, 3, 0.1) \
                - 2 * total_quantum_cycles(d, 3, 0.1)
            assert lhs == 800 * bracket

    def test_exact_dyadic_boundary(self):
        # gamma = 2, eps = 1/2: inner = ceil(4 * log2(4)) = 8 exactly (an
        # integer hit, where naive float evaluation can round across);
        # bracket argument (4/eps)*inner = 64 = 2^6, so bracket =
        # ceil(sqrt(8 * 6)) = 7
        assert chebyshev_bracket(2, Fraction(1, 2)) == 7
        assert qlsa_query_count(1, 2, Fraction(1, 2)) == 56
        # 8 (d-1) / eps^2 = 32 (d - 1)
        assert total_quantum_cycles(3, 2, Fraction(1, 2)) == 64 * 7

    def test_near_integer_inner_expression(self):
        # engineered so gamma^2 log2(gamma/eps) sits within 1e-12 of an
        # integer: solve for gamma near 2 with eps = 1/2 and nudge by 1e-13
        g = to_fraction(2.0) + Fraction(1, 10 ** 13)
        assert chebyshev_bracket(g, Fraction(1, 2)) == \
            oracle_bracket(g, Fraction(1, 2), dps=80)
        g = to_fraction(2.0) - Fraction(1, 10 ** 13)
        assert chebyshev_bracket(g, Fraction(1, 2)) == \
            oracle_bracket(g, Fraction(1, 2), dps=80)


class TestSharedWork:
    """One bracket per exact (gamma, eps), one ln 2 per decimal precision."""

    qcost = importlib.import_module("qipm_bounds.qcost")

    def test_float_and_fraction_epsilon_share_one_bracket(self):
        self.qcost._bracket.cache_clear()
        g = Fraction(12345, 7)
        values = {chebyshev_bracket(g, e)
                  for e in (0.1, Fraction(1, 10), "0.1", "1/10")}
        assert values == {oracle_bracket(g, Fraction(1, 10))}
        assert self.qcost._bracket.cache_info().misses == 1

    def test_query_and_cycle_counts_agree_in_either_order(self):
        s, kappa, d, eps = 7, 3508.6754713078103, 432, 0.1
        gamma = s * to_fraction(kappa)
        expected = (oracle_query_count(s, kappa, eps),
                    oracle_cycles(d, gamma, eps))
        self.qcost._bracket.cache_clear()
        first = (qlsa_query_count(s, kappa, eps),
                 total_quantum_cycles(d, gamma, eps))
        self.qcost._bracket.cache_clear()
        cycles = total_quantum_cycles(d, gamma, eps)
        second = (qlsa_query_count(s, kappa, eps), cycles)
        assert first == second == expected
        assert self.qcost._bracket.cache_info().hits == 1

    def test_escalation_reads_ln2_at_each_precision(self, monkeypatch):
        # gamma^2 log2(2 gamma) lies 1e-99 from 8 on either side of it:
        # undecided at the starting precision, decided after one doubling.
        # A ln 2 kept from the first precision (off by about 1e-80) would
        # push both sides the same way and round one of them wrongly.
        decided = self.qcost._ceil_decided
        precisions = []

        def recording(z, prec):
            precisions.append(prec)
            return decided(z, prec)

        monkeypatch.setattr(self.qcost, "_ceil_decided", recording)
        for sign, expected in ((1, 9), (-1, 8)):
            g = Fraction(2) + sign * Fraction(1, 10 ** 100)
            precisions.clear()
            assert ceil_log_term(g * g, 2 * g) == expected
            assert precisions == [60, 120]


class TestDomainErrors:
    def test_difficulty_below_epsilon(self):
        with pytest.raises(ValueError):
            qlsa_query_count(1, 0.05, 0.1)

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValueError):
            qlsa_query_count(1, 1, 1.5)
        with pytest.raises(ValueError):
            total_quantum_cycles(2, 1, 0.0)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            qlsa_query_count(0, 1, 0.1)
        with pytest.raises(ValueError):
            qlsa_query_count(1, 1, 0.1, n_qaa=0)
        with pytest.raises(ValueError):
            total_quantum_cycles(0, 1, 0.1)


class TestDilation:
    def test_hermitian_unchanged(self):
        assert hermitian_dilation_params(7, 3, 10.0, True) == (7, 3, 10.0)

    def test_oss_doubles_dimension(self):
        assert hermitian_dilation_params(9, 4, 2.5, False) == (18, 4, 2.5)

    def test_plain_substitution(self):
        assert hermitian_dilation_params(5, 3, 10.0, False) == (10, 3, 10.0)


class TestRuntime:
    def test_duration_grid_contains_reference(self):
        grid = duration_grid()
        assert 8e-10 in grid
        assert grid == sorted(grid)
        assert grid[0] == pytest.approx(1e-15)
        assert grid[-1] == pytest.approx(1e-3)

    def test_exact_grid_converts_each_grid_once(self):
        grid = duration_grid()
        exact = exact_grid(tuple(grid))
        assert exact == tuple(to_fraction(t) for t in grid)
        assert exact_grid(tuple(duration_grid())) is exact  # equal values
        assert exact_grid((0.1, 8e-10)) == (Fraction(1, 10),
                                            Fraction(8, 10 ** 10))

    @pytest.mark.parametrize("d_min, d_max", [
        (float("nan"), 1e-3), (1e-15, float("nan")), (1e-15, float("inf")),
        (0.0, 1e-3), (1e-3, 1e-3)])
    def test_duration_grid_rejects_bad_bounds(self, d_min, d_max):
        with pytest.raises(ValueError, match="0 < d_min < d_max < inf"):
            duration_grid(d_min, d_max)


class TestMonotonicity:
    def test_cycles_dominate_queries_for_d_at_least_two(self):
        for d, s, kappa in [(2, 1, 1.0), (3, 4, 7.5), (100, 10, 1e4)]:
            gamma = s * to_fraction(kappa)
            assert total_quantum_cycles(d, gamma, 0.1) >= \
                qlsa_query_count(s, kappa, 0.1)

    def test_in_sparsity_kappa_d_and_precision(self):
        qs = [qlsa_query_count(s, 2.0, 0.1) for s in (1, 2, 4, 8, 16)]
        assert qs == sorted(qs)
        qk = [qlsa_query_count(2, k, 0.1) for k in (1.0, 3.0, 9.0, 81.0)]
        assert qk == sorted(qk)
        cd = [total_quantum_cycles(d, 4.0, 0.1) for d in (2, 3, 10, 100)]
        assert cd == sorted(cd)
        ce = [total_quantum_cycles(5, 4.0, e) for e in (0.5, 0.1, 0.01)]
        assert ce == sorted(ce)


class TestExactnessGrid:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    def test_random_grid_matches_oracle(self, eps):
        import numpy as np
        rng = np.random.Generator(np.random.Philox(key=123))
        for _ in range(60):
            s = int(rng.integers(1, 10 ** 4))
            kappa = float(10 ** rng.uniform(0, 8))
            assert qlsa_query_count(s, kappa, eps) == \
                oracle_query_count(s, kappa, eps)
            d = int(rng.integers(1, 10 ** 4))
            gamma = s * to_fraction(kappa)
            assert total_quantum_cycles(d, gamma, eps) == \
                oracle_cycles(d, gamma, eps)
