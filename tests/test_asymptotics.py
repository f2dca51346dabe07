import contextlib
import io
import itertools
import math
import time

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma

from triefringe import asymptotics, cli
from triefringe.asymptotics import (
    AsymptoticConstant,
    FourierSeries,
    fc_k_star,
    fe_k_star,
    fe_lambda,
    fourier_coefficient,
    fringe_limit,
    fringe_mass_sum,
    fv_k_star,
    fv_lambda,
    indnum_alphas,
    indnum_mean_bounds,
    lanczos_gamma,
    link_trie_patricia,
    mellin_numeric,
    psi_eval,
    psi_for_k,
    shape_limit,
    sigma_constants,
    star_sum,
)
from triefringe.errors import Aperiodic, LimitExceeded, NonConvergent, PoleAt
from triefringe.source import SourceDistribution
from triefringe.trees import enumerate_patricia_shapes

BIN_SYM = SourceDistribution((0.5, 0.5))
TERNARY = SourceDistribution.uniform(3)
SKEWED = SourceDistribution((0.3, 0.7))
SOURCES = (BIN_SYM, SKEWED, TERNARY)
# 64 distinct probabilities, geometric in the letter: no two letters group
_GEOMETRIC = [0.9**i for i in range(64)]
GEOMETRIC_64 = SourceDistribution(tuple(w / sum(_GEOMETRIC) for w in _GEOMETRIC))


class TestLanczosGamma:
    def test_against_scipy_on_strip(self):
        for re in np.linspace(-0.9, 30.0, 40):
            for im in np.linspace(-80.0, 80.0, 33):
                z = complex(re, im)
                if abs(im) < 1e-9 and re < 0.5 and abs(re - round(re)) < 1e-9:
                    continue
                ref = scipy_gamma(z)
                if not np.isfinite(abs(ref)) or ref == 0:
                    continue
                assert abs(lanczos_gamma(z) - ref) / abs(ref) < 1e-12

    def test_integer_factorials(self):
        for n in range(1, 15):
            assert lanczos_gamma(n) == pytest.approx(math.factorial(n - 1), rel=1e-13)

    def test_pole_raises(self):
        with pytest.raises(PoleAt):
            lanczos_gamma(0.0)
        with pytest.raises(PoleAt):
            lanczos_gamma(-3.0)


class TestFeStar:
    def test_binary_k2(self):
        assert fe_k_star(BIN_SYM, 2, -1) == pytest.approx(0.25, abs=1e-14)

    def test_binary_k3(self):
        assert fe_k_star(BIN_SYM, 3, -1) == pytest.approx(0.125, abs=1e-14)

    def test_closed_form_identity(self):
        # f_E*(-1) k(k-1) + rho(k) = 1 for every source and k
        for d in SOURCES:
            for k in range(2, 9):
                lhs = fe_k_star(d, k, -1) * k * (k - 1) + d.rho(k)
                assert lhs == pytest.approx(1.0, abs=1e-14)

    def test_pole_detection(self):
        with pytest.raises(PoleAt):
            fe_k_star(BIN_SYM, 2, -2.0)

    def test_left_of_one_half(self):
        # k + s = 1/4 takes the log-Gamma's reflection branch
        for d in SOURCES:
            want = (1.0 - d.rho(2)) * math.gamma(0.25) / 2.0
            assert fe_k_star(d, 2, -1.75) == pytest.approx(want, rel=1e-13)

    def test_closed_form_at_large_k(self):
        # Gamma(k-1) overflows from k = 144 and k! from k = 171; their ratio does not
        for d in (BIN_SYM, SKEWED):
            for k in (2, 50, 143, 144, 300):
                q = 1.0 - d.rho(k)
                assert fe_k_star(d, k, -1) == pytest.approx(q / (k * (k - 1)), rel=1e-11)

    def test_quadrature_cross_check(self):
        for d in SOURCES:
            for k in (2, 4, 6):
                quad = mellin_numeric(lambda t, d=d, k=k: fe_lambda(d, k, t), -1, decay_zero=k)
                closed = fe_k_star(d, k, -1)
                assert abs(quad.value - closed) / abs(closed) < 1e-8


def fe_lambda_digits(d, k, lam):
    """(1 - rho(k)) lam^k e^-lam / k! evaluated with 40 significant digits."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        lam_d = Decimal(lam)
        return float(Decimal(1.0 - d.rho(k)) * (k * lam_d.ln() - lam_d).exp() / math.factorial(k))


def exponent_rounding(k, lam):
    """Relative error of exp(x) for x = k log lam - lam - log k! in float64:
    each term's rounding is an absolute error in x."""
    return 2.0**-53 * (k * abs(math.log(lam)) + lam + math.lgamma(k + 1) + 1.0)


class TestFeLambda:
    def test_finite_past_factorial_range(self):
        # lam^k and k! overflow a float here, while the profile is small
        for k, lam in ((171, 171.0), (300, 600.0)):
            fe = fe_lambda(SKEWED, k, lam)
            fv = fv_lambda(SKEWED, k, lam).value
            assert math.isfinite(fe) and 0.0 < fv < fe, (k, lam)

    @pytest.mark.parametrize("d", [SKEWED, TERNARY])
    def test_equals_closed_form(self, d):
        for lam in (1.0, 10.0, 171.0, 600.0, 1000.0):
            for k in [*range(1, 51), 171, 300]:
                want = fe_lambda_digits(d, k, lam)
                got = fe_lambda(d, k, lam)
                assert math.isclose(got, want, rel_tol=4 * exponent_rounding(k, lam), abs_tol=1e-300), (k, lam)

    def test_agrees_with_factorial_division(self):
        # the earlier form divided exp(k log lam - lam) by the exact k!; both
        # forms carry the rounding of their exponents, log k! only in this one
        for lam in (1.0, 10.0, 1000.0):
            for k in range(1, 51):
                before = (1.0 - SKEWED.rho(k)) * math.exp(k * math.log(lam) - lam) / math.factorial(k)
                got = fe_lambda(SKEWED, k, lam)
                assert math.isclose(got, before, rel_tol=8 * exponent_rounding(k, lam), abs_tol=1e-300), (k, lam)


class TestFeLambdaNearSaddle:
    """fe_lambda keeps full precision where k is near lam: the terms of its
    exponent, k log lam, lam and log k!, cancel to about -log(2 pi k)/2."""

    @staticmethod
    def rel_error(d, k, lam):
        """|fe_lambda / exact - 1|, the exact value taken to 50 digits."""
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = 50
            lam_d = Decimal(lam)
            want = Decimal(1.0 - d.rho(k)) * (k * lam_d.ln() - lam_d).exp() / math.factorial(k)
            return float(abs(Decimal(fe_lambda(d, k, lam)) / want - 1))

    @pytest.mark.parametrize("k", [1000, 10_000])
    def test_k_equals_lam(self, k):
        assert self.rel_error(SKEWED, k, float(k)) <= 1e-14

    def test_small_k(self):
        # stirlerr is tabulated up to k = 15 and a series past it
        for k in range(2, 41):
            assert self.rel_error(SKEWED, k, float(k)) <= 1e-14, k


class TestFvStar:
    def test_tolerance_self_consistency(self):
        a = fv_k_star(BIN_SYM, 2, -1, tol=1e-12)
        b = fv_k_star(BIN_SYM, 2, -1, tol=5e-13)
        assert abs(a.value - b.value) <= 2 * a.error_bound

    def test_halving_within_bound(self):
        for d in SOURCES:
            a = fv_k_star(d, 3, -1, tol=1e-10)
            b = fv_k_star(d, 3, -1, tol=1e-11)
            assert abs(a.value - b.value) <= a.error_bound

    def test_positive_and_below_fe(self):
        for d in SOURCES:
            for k in (2, 3, 4):
                v = fv_k_star(d, k).value.real if isinstance(fv_k_star(d, k).value, complex) else fv_k_star(d, k).value
                assert 0.0 < v < fe_k_star(d, k, -1)

    def test_quadrature_cross_check(self):
        quad = mellin_numeric(
            lambda t: fv_lambda(BIN_SYM, 2, t, 1e-13).value, -1, decay_zero=2, rel_tol=1e-10
        )
        series = fv_k_star(BIN_SYM, 2, -1, tol=1e-13)
        assert abs(quad.value - series.value) < 1e-8

    def test_quadrature_cross_check_asymmetric_ternary(self):
        # exercises the multinomial composition grouping of the string sum
        d = SourceDistribution((0.2, 0.3, 0.5))
        quad = mellin_numeric(lambda t: fv_lambda(d, 2, t, 1e-13).value, -1, decay_zero=2, rel_tol=1e-10)
        series = fv_k_star(d, 2, -1, tol=1e-12)
        assert abs(quad.value - series.value) < 1e-8

    def test_quadrature_cross_check_heavy_ternary(self):
        # two letters of equal probability: one group of the string sum
        d = SourceDistribution((0.6, 0.2, 0.2))
        quad = mellin_numeric(lambda t: fv_lambda(d, 2, t, 1e-13).value, -1, decay_zero=2, rel_tol=1e-10)
        series = fv_k_star(d, 2, -1, tol=1e-12)
        assert abs(quad.value - series.value) < 1e-8

    def test_outside_strip(self):
        with pytest.raises(NonConvergent):
            fv_k_star(BIN_SYM, 2, -2.5)

    def test_large_k_below_fe(self):
        # Gamma(s + 2k) alone overflows from k = 72
        for k in (72, 100):
            v = fv_k_star(SKEWED, k)
            assert 0.0 < v.value < fe_k_star(SKEWED, k, -1)

    @pytest.mark.parametrize("f, k", [(fv_k_star, 505), (fv_k_star, 600), (fv_lambda, 498), (fv_lambda, 560)])
    def test_bound_past_the_float_range_refused(self, f, k):
        # the bound on the string sum's terms over tol is past the float
        # range, and from k = 520 (f_V) or 560 (f_V*) the bound itself:
        # these once raised a budget refusal of an endless sum, or OverflowError
        args = (2.0 * k,) if f is fv_lambda else ()
        started = time.perf_counter()
        with pytest.raises(LimitExceeded, match=rf"^k = {k}: .* has left the float range$"):
            f(SKEWED, k, *args)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("f, k", [(fv_k_star, 504), (fv_lambda, 497)])
    def test_largest_k_inside_the_float_range(self, f, k):
        args = (2.0 * k,) if f is fv_lambda else ()
        v = f(SKEWED, k, *args)
        assert math.isfinite(v.value) and v.error_bound <= 1e-12

    def test_extreme_binary_sources(self):
        # the string sum runs to lengths near 10^4 here
        for probs in ((0.99, 0.01), (0.999, 0.001)):
            d = SourceDistribution(probs)
            for k in (2, 3):
                v = fv_k_star(d, k, -1, tol=1e-12)
                assert v.error_bound <= 1e-12
                assert 0.0 < v.value < fe_k_star(d, k, -1)


class TestStarSum:
    @staticmethod
    def h(p):
        return (1.0 + p) ** (-2.5 + 3j)  # |h| <= 1 on (0,1]

    @pytest.mark.parametrize("d", [SKEWED, TERNARY, SourceDistribution((0.2, 0.3, 0.5)), SourceDistribution((0.6, 0.2, 0.2))])
    def test_matches_direct_sum_over_strings(self, d):
        rho = d.rho(2)
        tol = 2.0 * rho**6.5 / (1.0 - rho)
        stop = next(n for n in itertools.count(1) if 2.0 * rho**n / (1.0 - rho) <= tol)
        assert stop == 7
        direct = 0j
        for length in range(stop):
            for string in itertools.product(d.probs, repeat=length):
                p = math.prod(string)
                direct += (2 if length else 1) * p**2 * self.h(p)
        value, tail = star_sum(d, 2, self.h, 1.0, tol)
        assert abs(value - direct) <= 1e-13 * abs(direct)
        assert tail == pytest.approx(2.0 * rho**stop / (1.0 - rho), rel=1e-12)

    def test_tail_bound_is_at_most_tol_at_length_boundaries(self):
        # tol just below one length's tail bound: the logarithms alone can stop a length short
        rho = SKEWED.rho(2)
        for n in range(2, 40):
            for shave in (1e-15, 1e-14, 1e-13):
                tol = 2.0 * rho**n / (1.0 - rho) * (1.0 - shave)
                _, tail = star_sum(SKEWED, 2, self.h, 1.0, tol)
                assert tail <= tol

    @pytest.mark.parametrize("d", [GEOMETRIC_64, SourceDistribution((0.99999, 0.00001))])
    def test_beyond_budget_is_refused_at_once(self, d):
        started = time.perf_counter()
        with pytest.raises(LimitExceeded, match="budget"):
            fv_k_star(d, 2)
        assert time.perf_counter() - started < 1.0


class TestFourier:
    def test_m0_is_minus_one_value(self):
        assert fourier_coefficient(BIN_SYM, 2, "E", 0) == pytest.approx(fe_k_star(BIN_SYM, 2, -1))

    def test_conjugate_symmetry(self):
        for m in (1, 2, 3):
            c = fourier_coefficient(BIN_SYM, 2, "E", m)
            c_neg = fourier_coefficient(BIN_SYM, 2, "E", -m)
            assert c_neg == pytest.approx(c.conjugate(), rel=1e-12)

    def test_coefficients_decay(self):
        c0 = abs(fourier_coefficient(BIN_SYM, 2, "E", 0))
        for m in (1, 2, 4, 8):
            assert abs(fourier_coefficient(BIN_SYM, 2, "E", m)) < c0

    def test_quadrature_cross_check_m1(self):
        s = complex(-1.0, -2.0 * math.pi / math.log(2.0))
        quad = mellin_numeric(lambda t: fe_lambda(BIN_SYM, 2, t), s, decay_zero=2)
        closed = fourier_coefficient(BIN_SYM, 2, "E", 1)
        assert abs(quad.value - closed) < 1e-8

    def test_aperiodic_raises(self):
        for X in "EVC":
            with pytest.raises(Aperiodic):
                fourier_coefficient(SKEWED, 2, X, 1)

    def test_fc_reduces_to_fe(self):
        # aperiodic source: psi_E is constant, so psi_C = psi_E
        assert fc_k_star(SKEWED, 2, 5) == pytest.approx(fe_k_star(SKEWED, 2, -1))
        # m = 0: the derivative term vanishes
        assert fc_k_star(BIN_SYM, 2, 0) == pytest.approx(fe_k_star(BIN_SYM, 2, -1))

    def test_fc_m1_composition(self):
        d_p = BIN_SYM.periodicity()
        expected = fourier_coefficient(BIN_SYM, 2, "E", 1) * (1 + 2j * math.pi / d_p)
        assert fc_k_star(BIN_SYM, 2, 1) == pytest.approx(expected)


class TestPsiEval:
    def test_constant_case(self):
        assert psi_eval(0.25, 3.3) == 0.25
        assert psi_eval(AsymptoticConstant(0.25, 0.0), 1.0) == 0.25

    def test_periodic(self):
        ps = psi_for_k(BIN_SYM, 2, "E", M=8)
        for t in (0.0, 0.31, 2.7):
            assert psi_eval(ps, t) == pytest.approx(psi_eval(ps, t + math.log(2)), abs=1e-12)

    def test_real_within_tolerance(self):
        ps = psi_for_k(BIN_SYM, 2, "V", M=4)
        val = ps.eval(1.234)
        assert abs(val.imag) < 1e-12

    def test_truncation_stability(self):
        small = psi_for_k(BIN_SYM, 2, "E", M=4)
        big = psi_for_k(BIN_SYM, 2, "E", M=8)
        tail = sum(abs(c) for c in big.coeffs[5:])
        for t in (0.1, 0.9):
            assert abs(psi_eval(small, t) - psi_eval(big, t)) <= 2 * tail + 1e-15

    def test_imaginary_residue_rejected(self):
        with pytest.raises(ValueError):
            psi_eval(complex(1.0, 0.5), 0.0)


class TestSigmaConstants:
    def test_chi_zero_hat_form(self):
        sc = sigma_constants(SKEWED, 2)
        assert sc.sigma2_hat_mean == pytest.approx(fv_k_star(SKEWED, 2).value / SKEWED.entropy(), rel=1e-12)

    def test_sigma_below_hat(self):
        for d in SOURCES:
            sc = sigma_constants(d, 2)
            assert sc.sigma2_mean <= sc.sigma2_hat_mean
            assert sc.sigma2_mean > 0

    def test_periodic_evaluation_close_to_mean(self):
        sc = sigma_constants(BIN_SYM, 2)
        hat_t, sig_t = sc.at(math.log(1e4))
        assert hat_t == pytest.approx(sc.sigma2_hat_mean, rel=1e-3)
        assert sig_t == pytest.approx(sc.sigma2_mean, rel=1e-3)


def _bits(psi):
    """A constant or a Fourier series as text that keeps every bit."""
    if isinstance(psi, FourierSeries):
        return psi.period.hex(), [_bits(c) for c in psi.coeffs]
    return psi.real.hex(), psi.imag.hex()


class TestOneOwnerOfPsi:
    """sigma_constants builds psi_E, psi_V and psi_C from one list of
    frequencies, with the same helpers as psi_for_k."""

    @pytest.mark.parametrize("d", [BIN_SYM, SKEWED, TERNARY], ids=["0.5,0.5", "0.3,0.7", "uniform:3"])
    @pytest.mark.parametrize("k", [2, 5])
    def test_fields_equal_psi_for_k_bit_for_bit(self, d, k):
        sc = sigma_constants(d, k, M=3)
        for X, psi in (("E", sc.psi_e), ("V", sc.psi_v), ("C", sc.psi_c)):
            assert _bits(psi) == _bits(psi_for_k(d, k, X, M=3))
        assert _bits(sc.fc_star) == _bits(complex(fe_k_star(d, k, -1)))
        assert _bits(sc.fc_star) == _bits(complex(fc_k_star(d, k, 0)))

    def test_constants_evaluates_each_value_once(self, monkeypatch):
        calls, active = [], []  # (name, the counted calls it ran inside)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, tuple(active)))
                active.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    active.pop()

            return wrapper

        monkeypatch.setattr(SourceDistribution, "periodicity", counted("periodicity", SourceDistribution.periodicity))
        fe_k_star_counted = counted("fe_k_star", asymptotics.fe_k_star)
        monkeypatch.setattr(asymptotics, "fe_k_star", fe_k_star_counted)
        monkeypatch.setattr(cli, "fe_k_star", fe_k_star_counted)
        monkeypatch.setattr(asymptotics, "fv_k_star", counted("fv_k_star", asymptotics.fv_k_star))
        monkeypatch.setattr(cli, "sigma_constants", counted("sigma_constants", cli.sigma_constants))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["--threads", "1", "constants", "--source", "0.5,0.5", "--k", "2,3", "--fourier", "8"]) == 0
        # the printed d_p, then one per sigma_constants (k = 2, 3)
        periodicity = [outer for name, outer in calls if name == "periodicity"]
        assert periodicity == [(), ("sigma_constants",), ("sigma_constants",)]
        # f_E* once per frequency m = 0..8 and k, besides f_V*'s own leading term
        fe = [outer for name, outer in calls if name == "fe_k_star"]
        assert all("sigma_constants" in outer for outer in fe)
        assert sum("fv_k_star" not in outer for outer in fe) == 2 * 9
        assert sum("fv_k_star" in outer for outer in fe) == 2 * 9


class TestLink:
    def test_small_rho_is_identity(self):
        # rho(40) = 2^-39 for the symmetric source: the link degenerates to identity
        mean_t, var_t = link_trie_patricia(3.0, 2.0, 40, BIN_SYM)
        assert mean_t == pytest.approx(3.0, rel=1e-9)
        assert var_t == pytest.approx(2.0, rel=1e-6)

    def test_binary_k2_doubles_mean(self):
        mean_t, _ = link_trie_patricia(5.0, 1.0, 2, BIN_SYM)
        assert mean_t == pytest.approx(10.0)


class TestFringeLimits:
    def test_binary_k2(self):
        assert fringe_limit(BIN_SYM, 2) == pytest.approx(1 / (8 * math.log(2)), abs=1e-12)

    def test_binary_k3(self):
        assert fringe_limit(BIN_SYM, 3) == pytest.approx(0.75 / (2 * math.log(2) * 6), abs=1e-12)

    def test_mass_sum_equals_coentropy(self):
        for d in SOURCES:
            total = fringe_mass_sum(d, 10**4)
            assert abs(total.value - d.coentropy()) < 1e-6
            assert total.error_bound < 1e-12

    def test_mass_partial_sums_increase_to_coentropy(self):
        prev = 0.0
        for kmax in (10, 100, 1000):
            partial = sum((1 - BIN_SYM.rho(k)) / (k * (k - 1)) for k in range(2, kmax + 1))
            assert prev < partial < BIN_SYM.coentropy()
            prev = partial

    def test_shape_limit_k2_equals_k_limit(self):
        (cherry,) = enumerate_patricia_shapes(2, 2)
        per_key = fe_k_star(BIN_SYM, 2, -1) / BIN_SYM.entropy()
        assert shape_limit(BIN_SYM, cherry) == pytest.approx(per_key, rel=1e-12)

    def test_shape_limit_k3_halves(self):
        shapes = enumerate_patricia_shapes(3, 2)
        per_key = fe_k_star(BIN_SYM, 3, -1) / BIN_SYM.entropy()
        for s in shapes:
            assert shape_limit(BIN_SYM, s) == pytest.approx(per_key / 2, rel=1e-12)


class TestMellinNumeric:
    def test_gamma_one(self):
        out = mellin_numeric(lambda t: math.exp(-t), 1, decay_zero=0)
        assert out.value == pytest.approx(1.0, abs=1e-9)

    def test_half_gamma(self):
        out = mellin_numeric(lambda t: math.exp(2 * math.log(t) - t) / 2, -1, decay_zero=2)
        assert out.value == pytest.approx(0.5, abs=1e-9)

    def test_nonconvergent_at_zero(self):
        with pytest.raises(NonConvergent):
            mellin_numeric(lambda t: math.exp(-t), -1, decay_zero=0)

    def test_nonconvergent_at_infinity(self):
        with pytest.raises(NonConvergent):
            mellin_numeric(lambda t: 1.0 / (1.0 + t), 1, decay_zero=0, decay_inf=1.0)


class TestIndependenceNumberPipeline:
    def test_base_cases(self):
        a = indnum_alphas(6)
        assert a[0] == 0.0 and a[1] == 1.0
        assert a[2] == 0.0 and a[3] == 0.0
        assert a[4] == pytest.approx(3 / 7, abs=1e-15)

    def test_values_in_unit_interval(self):
        a = indnum_alphas(300)
        assert np.all(a >= 0.0) and np.all(a <= 1.0)

    def test_summand_symmetric_under_k_reflection(self):
        a = indnum_alphas(60)
        for n in (7, 20, 41):
            ks = np.arange(1, n)
            log_w = np.array(
                [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in ks]
            ) - (n * math.log(2) + math.log1p(-(2.0 ** (1 - n))))
            summand = np.exp(log_w) * (1 - a[ks]) * (1 - a[n - ks])
            assert np.allclose(summand, summand[::-1], rtol=1e-12)

    def test_matches_simulation(self):
        from triefringe.simulation import estimate_root_essential

        a = indnum_alphas(12)
        for n in range(2, 13):
            est, se = estimate_root_essential(BIN_SYM, n, 20000, 600 + n)
            assert abs(est - a[n]) < 3 * se + 1e-4, n

    def test_interval_brackets_reported_range(self):
        lo, hi = indnum_mean_bounds(800)
        assert abs(lo - 0.60225) < 5e-4
        assert abs(hi - 0.60316) < 5e-4
        assert hi - lo <= 1 / (1600 * math.log(2)) * (1 + 1e-12)

    def test_nesting(self):
        lo8, hi8 = indnum_mean_bounds(800)
        lo16, hi16 = indnum_mean_bounds(1600)
        assert lo8 <= lo16 <= hi16 <= hi8

    def test_overflow_free_at_5000(self):
        a = indnum_alphas(5000)
        assert np.all(np.isfinite(a))
        lo, hi = indnum_mean_bounds(5000, a)
        lo8, hi8 = indnum_mean_bounds(800)
        assert lo8 <= lo <= hi <= hi8


class TestSigmaAgainstSimulation:
    def test_k2_variance_within_ten_percent(self):
        from triefringe.functionals import phi_k
        from triefringe.simulation import SimulationConfig, run

        n, reps = 10**4, 600
        sc = sigma_constants(BIN_SYM, 2)
        _, sigma2 = sc.at(math.log(n))
        s = run(SimulationConfig.fixed(BIN_SYM, n, reps, 701, (phi_k(2),)))
        mc = s.stats("k=2").variance / n
        assert abs(mc - sigma2) / sigma2 < 0.10

    def test_aperiodic_source_variance(self):
        # d_p = 0: sigma^2 is a true constant, no oscillation correction
        from triefringe.functionals import phi_k
        from triefringe.simulation import SimulationConfig, run

        n, reps = 4000, 1500
        sc = sigma_constants(SKEWED, 2)
        s = run(SimulationConfig.fixed(SKEWED, n, reps, 41, (phi_k(2),)))
        mc = s.stats("k=2").variance / n
        assert abs(mc - sc.sigma2_mean) / sc.sigma2_mean < 0.12
