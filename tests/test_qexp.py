import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import random

import reference_values as ref
from oracles import pole_sum_oracle, qpoch_oracle
from qfunc import qexp
from qfunc.errors import DomainError, PoleError
from qfunc.qcalc import QBase, lattice_decompose, qpoch_infinite
from qfunc.qexp import (
    KindTag,
    classical_limit_check,
    lambda_closed_form,
    lambda_laurent_coeff,
    lambda_laurent_eval,
    lambda_laurent_table,
    lambda_product,
    qexp_asymptotic,
    qexp_eval,
    qexp_functional_residual,
)

BASE = QBase(0.5, tol=1e-15)
K1, K2, K3 = KindTag.from_j(1), KindTag.from_j(2), KindTag.from_j(3)


class TestKindTag:
    def test_valid_pairs(self):
        assert (K1.j, K1.delta) == (1, 2)
        assert (K2.j, K2.delta) == (2, 0)
        assert (K3.j, K3.delta) == (3, 1)

    @pytest.mark.parametrize("j,delta", [(1, 0), (2, 2), (3, 0), (0, 1)])
    def test_invalid_pairs_rejected(self, j, delta):
        with pytest.raises(ValueError):
            KindTag(j, delta)

    def test_from_j_rejects_unknown(self):
        with pytest.raises(ValueError):
            KindTag.from_j(4)


class TestEval:
    def test_type3_reference_value(self):
        got = qexp_eval(K3, 1.0, BASE).value
        assert abs(got - ref.EXP3_AT_1_Q05) < 1e-13 * ref.EXP3_AT_1_Q05

    def test_type1_reference_value(self):
        got = qexp_eval(K1, 0.3 + 0.2j, BASE).value
        assert abs(got - ref.EXP1_COMPLEX_Q05) < 1e-13 * abs(ref.EXP1_COMPLEX_Q05)

    def test_type2_reference_value(self):
        got = qexp_eval(K2, 1.5, BASE).value
        assert abs(got - ref.EXP2_AT_15_Q05) < 1e-13 * ref.EXP2_AT_15_Q05

    def test_all_kinds_at_zero(self):
        # Exact, so with a bound of 0: a zero term ends the sum at once.
        for kind in (K1, K2, K3):
            sv = qexp_eval(kind, 0.0, BASE)
            assert (sv.value, sv.err_estimate) == (1.0, 0.0)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_type1_pole_guard(self, m):
        with pytest.raises(PoleError):
            qexp_eval(K1, BASE.q**-m, BASE)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_type1_next_to_a_pole_is_pole_error_or_within_its_bound(self, q, m):
        # The product's own error bound is the only pole test: a point a
        # few ulps from a pole either raises PoleError or returns a value
        # its bound covers against a 50-digit 1/(u;q)_inf, and one 1e-9 of
        # it, far outside the product's rounding, returns a value.
        mpmath = pytest.importorskip("mpmath")
        base, pole = QBase(q), q**-m
        points = [pole * (1.0 + 1e-9), pole * (1.0 - 1e-9)]
        for direction in (math.inf, 0.0):
            u = pole
            for _ in range(4):
                u = math.nextafter(u, direction)
                points.append(u)
        for i, u in enumerate(points):
            try:
                sv = qexp_eval(K1, u, base)
            except PoleError:
                assert i >= 2, (q, m, u)
                continue
            with mpmath.workdps(50):
                exact = 1 / mpmath.qp(mpmath.mpf(u), mpmath.mpf(q))
            assert abs(sv.value - exact) <= sv.err_estimate, (q, m, u)

    def test_type1_every_float_pole_raises(self):
        rng = random.Random(20)
        for _ in range(500):
            q, m = rng.uniform(0.2, 0.97), rng.randint(0, 8)
            with pytest.raises(PoleError):
                qexp_eval(K1, q**-m, QBase(q))

    @given(
        re=st.floats(-0.9, 0.9),
        im=st.floats(-0.9, 0.9),
        q=st.floats(0.2, 0.8),
    )
    @settings(max_examples=60)
    def test_type1_is_reciprocal_product(self, re, im, q):
        base = QBase(q)
        u = complex(re, im)
        prod = qpoch_infinite(u, base).value
        got = qexp_eval(K1, u, base).value
        assert abs(got * prod - 1.0) < 1e-12

    def test_classical_limit_distances_shrink(self):
        for kind in (K1, K2, K3):
            d = classical_limit_check(kind, 0.5, [0.9, 0.99, 0.999, 0.9999, 0.99999])
            assert d[0] > d[1] > d[2] > d[3] > d[4]


def _exp3_oracle(q, u):
    """e3(u) = sum q^(n(n-1)/4) u^n / (q;q)_n in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q, u = mpmath.mpf(q), mpmath.mpc(u)
        s, t, n = mpmath.mpf(0), mpmath.mpf(1), 0
        while abs(t) > mpmath.mpf(10) ** -45 * max(abs(s), 1) or n < 5:
            s += t
            t *= q ** (mpmath.mpf(n) / 2) * u / (1 - q ** (n + 1))
            n += 1
        return complex(s)


class TestNonFinite:
    @pytest.mark.parametrize("kind", [K1, K2, K3])
    @pytest.mark.parametrize("u", [math.inf, -math.inf, math.nan, complex(0.5, math.inf)])
    def test_non_finite_argument(self, kind, u):
        with pytest.raises(DomainError):
            qexp_eval(kind, u, BASE)

    # Type 3 overflows at the second series term, where the kernel stops
    # instead of summing NaN terms up to max_terms.
    @pytest.mark.parametrize("kind", [K1, K2, K3])
    def test_overflowing_value(self, kind):
        with pytest.raises(DomainError):
            qexp_eval(kind, 1e300, BASE)

    # (0.9; 0.9995)_inf is about exp(-2600).  Type 1 divided by the zero it
    # underflowed to and reported a pole; type 2 returned 0.0 with a zero
    # error bound.
    @pytest.mark.parametrize("kind,u", [(K1, 0.9), (K2, -0.9)])
    def test_underflowing_product_is_not_a_pole_or_zero(self, kind, u):
        with pytest.raises(DomainError) as info:
            qexp_eval(kind, u, QBase(0.9995))
        assert type(info.value) is DomainError


class TestTailBound:
    # At tol = 1e-6 truncation dominates the error, so this tests the tail
    # bound.  At tol = 1e-12 rounding dominates where the terms fall fast
    # or cancel, so the grid below tests the kernel's rounding term.
    @pytest.mark.parametrize("q", [0.2, 0.35, 0.5, 0.65, 0.8])
    def test_type3_estimate_bounds_oracle_error(self, q):
        base = QBase(q, tol=1e-6)
        for u in (0.05, 0.3, 1.0, 2.0, -1.5, 0.5 + 0.5j, 5.0):
            got = qexp_eval(K3, u, base)
            assert got.err_estimate >= abs(got.value - _exp3_oracle(q, u)), (q, u)

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    @pytest.mark.parametrize("q", [0.2, 0.4, 0.6, 0.8, 0.9])
    def test_type3_bound_includes_rounding(self, q, tol):
        # Without a rounding term 27 of these 35 points under-report at
        # tol = 1e-12, and 7 at tol = 1e-6.
        base = QBase(q, tol=tol)
        for u in (0.5, -2.0, 3j, -7.5, 15.0, 2 - 6j, -30.0):
            got = qexp_eval(K3, u, base)
            assert got.err_estimate >= abs(got.value - _exp3_oracle(q, u)), (q, u)


class TestLaurent:
    @pytest.mark.parametrize(
        "kind,expected",
        [(K1, ref.LAURENT_J1_Q05), (K2, ref.LAURENT_J2_Q05), (K3, ref.LAURENT_J3_Q05)],
    )
    def test_coefficients_match_reference(self, kind, expected):
        for l, want in enumerate(expected):
            got = lambda_laurent_coeff(kind, l, BASE)
            assert abs(got - want) < 1e-12 * abs(want)

    def test_two_methods_agree(self):
        for kind in (K1, K2, K3):
            for l in range(0, 11):
                a = lambda_laurent_coeff(kind, l, BASE, method="sum")
                b = lambda_laurent_coeff(kind, l, BASE, method="bessel")
                assert abs(a - b) < 1e-12 * abs(a)

    def test_two_methods_agree_to_eps(self):
        # The "bessel" route used to stop at tol, 3.9e-12 from the table here.
        base = QBase(0.8)
        for kind in (K1, K2, K3):
            for l in range(0, 11):
                a = lambda_laurent_coeff(kind, l, base)
                b = lambda_laurent_coeff(kind, l, base, method="bessel")
                assert abs(a - b) <= 1e-14 * abs(a), (kind.j, l)

    def test_two_methods_agree_on_descending_rows(self):
        # Method "bessel" reaches l < 0 by the mirror a_(-l) = q^l a_l; at
        # q = 0.5 it agrees with the table within 1.1e-15 relative.
        base = QBase(0.5)
        for kind in (K1, K2, K3):
            for l in range(-6, 0):
                a = lambda_laurent_coeff(kind, l, base)
                b = lambda_laurent_coeff(kind, l, base, method="bessel")
                assert abs(a - b) <= 4e-15 * abs(a), (kind.j, l)

    def test_mirror_symmetry(self):
        for kind in (K1, K2, K3):
            for l in (1, 2, 5):
                a = lambda_laurent_coeff(kind, l, BASE)
                assert lambda_laurent_coeff(kind, -l, BASE) == pytest.approx(
                    BASE.q**l * a, rel=1e-14
                )

    def test_table_window(self):
        t = lambda_laurent_table(K2, 5, BASE)
        assert set(t.coeffs) == set(range(-5, 6))

    @pytest.mark.parametrize("kind", [K1, K2, K3])
    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, kind, window):
        # Type 1 at window -1 used to return 66.64 for the true 59.32, and
        # window 0 raised KeyError for types 2 and 3.
        with pytest.raises(ValueError):
            lambda_laurent_table(kind, window, BASE)
        with pytest.raises(ValueError):
            lambda_laurent_eval(kind, 0.7, window, BASE)

    @pytest.mark.parametrize("kind", [K2, K3])
    def test_two_sided_matches_product_entire_kinds(self, kind):
        for u in (0.7, 2.0, 0.3 + 0.9j, -1.4 + 0.2j):
            direct = lambda_product(kind, u, BASE)
            sv = lambda_laurent_eval(kind, u, 40, BASE)
            assert abs(sv.value - direct) < 1e-10 * abs(direct)

    @pytest.mark.parametrize("kind", [K2, K3])
    @pytest.mark.parametrize("u,window", [(2.0, 3), (0.3 + 3j, 4)])
    def test_small_window_grows(self, kind, u, window):
        # A window this small used to be summed as given: Lambda_3(2) came
        # out 39.25 +- 387 for 53.329, and at 0.3+3i it raised NonConvergence.
        base = QBase(0.5)
        sv = lambda_laurent_eval(kind, u, window, base)
        assert abs(sv.value - lambda_product(kind, u, base)) <= sv.err_estimate
        assert sv.terms_used > 2 * window + 1

    @pytest.mark.parametrize("kind,u", [(K3, 1e4), (K3, 5e-5), (K2, 1e6)])
    def test_far_from_the_unit_circle(self, kind, u):
        # The outermost terms at window 40 are near e^99; a window rule
        # that formed |u|^L raised OverflowError here.
        base = QBase(0.5)
        sv = lambda_laurent_eval(kind, u, 40, base)
        assert abs(sv.value - lambda_product(kind, u, base)) <= sv.err_estimate

    def test_bound_stays_close_near_q_one(self):
        # The tail bound's constant must follow the coefficients: near q = 1
        # the generic (q;q)_inf^-2 / (1 - q) is 3e19 here, and the bound
        # would read 0.11 of the value for a true error of 5e-12.
        base = QBase(0.932)
        u = 2.79 * cmath.exp(-0.89j)
        sv = lambda_laurent_eval(K2, u, 40, base)
        direct = lambda_product(K2, u, base)
        assert abs(sv.value - direct) <= sv.err_estimate <= 1e-9 * abs(direct)

    @pytest.mark.parametrize("kind", [K2, K3])
    @pytest.mark.parametrize("u", [1e200, math.inf, complex(math.nan, 0.0)])
    def test_sum_outside_the_doubles_is_a_domain_error(self, kind, u):
        with pytest.raises(DomainError):
            lambda_laurent_eval(kind, u, 40, QBase(0.5))

    def test_two_sided_matches_product_type1_annulus(self):
        # The type-1 value is its whole pole expansion; the reported error
        # bound must cover what is left.
        for u in (0.6, 0.55 + 0.4j):
            direct = lambda_product(K1, u, BASE)
            sv = lambda_laurent_eval(K1, u, 40, BASE)
            assert abs(sv.value - direct) <= 10.0 * sv.err_estimate + 1e-10 * abs(direct)

    def test_type1_tail_makes_window_irrelevant(self):
        # Near |u| = 1 and |u| = q the coefficients barely decay.  The type-1
        # value sums its whole pole expansion, so every window gives the
        # same bits.
        for u in (0.97, 0.6 - 0.77j, 0.51j):
            direct = lambda_product(K1, u, BASE)
            scale = lambda_product(K1, abs(u), BASE).real
            values = {lambda_laurent_eval(K1, u, window, BASE) for window in (1, 3, 40)}
            assert len(values) == 1
            assert abs(values.pop().value - direct) < 1e-12 * scale

    @staticmethod
    def _type1_grid():
        rng = random.Random(1)
        for _ in range(600):
            q = rng.uniform(0.1, 0.9)
            u = rng.uniform(q, 1.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            yield q, u, rng.choice((5, 10, 20, 40, 80))

    def test_pole_sums_are_within_their_bound_of_the_oracle(self):
        # Both Gaussian sums of the type-1 value, S(u, 0) and S(q/u, 1), and
        # a Lambda_1 table's top row S(0, W), against a 50-digit sum.  The
        # tail past the window that these replace, a loop with a geometric
        # tail model and no rounding term for w^e, under-reported at 8 of
        # these 600 points, by up to 1.9x (q = 0.219, |u| = 0.419, window
        # 80), at errors from 1e-37 to 2e-11.
        mpmath = pytest.importorskip("mpmath")
        short = []
        for q, u, window in self._type1_grid():
            for w, e in ((u, 0), (q / u, 1), (0.0, window)):
                sv = qexp._pole_sum(w, e, q)
                with mpmath.workdps(50):
                    error = float(abs(sv.value - pole_sum_oracle(w, e, q)))
                if not error <= sv.err_estimate:
                    short.append((q, w, e, error / sv.err_estimate))
        assert short == []

    def test_type1_value_is_within_its_bound_of_the_product(self):
        # lambda_laurent_eval against 1 / ((u;q)_inf (q/u;q)_inf), 40-digit
        # products from the binary values of u and q, at both tolerances.
        mpmath = pytest.importorskip("mpmath")
        short = []
        for q, u, window in self._type1_grid():
            with mpmath.workdps(50):
                exact = 1 / (qpoch_oracle(u, q) * qpoch_oracle(mpmath.mpf(q) / mpmath.mpc(u), q))
            for tol in (1e-12, 1e-6):
                sv = lambda_laurent_eval(K1, u, window, QBase(q, tol=tol))
                with mpmath.workdps(50):
                    error = float(abs(sv.value - exact))
                if not error <= sv.err_estimate:
                    short.append((q, u, tol, error / sv.err_estimate))
        assert short == []

    def test_type1_annulus_enforced(self):
        with pytest.raises(DomainError):
            lambda_laurent_eval(K1, 1.5, 40, BASE)
        with pytest.raises(DomainError):
            lambda_laurent_eval(K1, 0.3, 40, BASE)
        # |u| is above q, but q/u rounds to modulus 1, which the sum over
        # q/u cannot take (it divided by 1 - |q/u| = 0).
        q, u = 0.8269260435174245, 0.8159202339877749 - 0.13446506318265788j
        assert abs(u) > q and abs(q / u) == 1.0
        with pytest.raises(DomainError):
            lambda_laurent_eval(K1, u, 40, QBase(q))

    def test_product_undefined_at_zero(self):
        with pytest.raises(DomainError):
            lambda_product(K1, 0.0, BASE)


class TestProductReference:
    def test_reference_values(self):
        assert lambda_product(K1, 0.7, BASE).real == pytest.approx(
            ref.LAMBDA1_AT_07_Q05, rel=1e-12
        )
        assert lambda_product(K2, 2.0, BASE).real == pytest.approx(
            ref.LAMBDA2_AT_2_Q05, rel=1e-12
        )
        assert lambda_product(K3, 1.3, BASE).real == pytest.approx(
            ref.LAMBDA3_AT_13_Q05, rel=1e-12
        )


class TestProductBound:
    @pytest.mark.parametrize("kind", [K1, K2])
    def test_bound_covers_oracle(self, kind):
        # lambda_product printed no bound at all; the value it returns is
        # the bounded value's, bit for bit.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(12)
        for q in (0.3, 0.5, 0.8):
            base = QBase(q)
            for _ in range(15):
                u = 10 ** rng.uniform(-1.0, 1.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                sv = qexp._lambda_value(kind, u, base)
                assert lambda_product(kind, u, base) == sv.value
                with mpmath.workdps(40):
                    if kind.j == 1:
                        exact = 1 / (qpoch_oracle(u, q) * qpoch_oracle(q / u, q))
                    else:
                        exact = qpoch_oracle(-u, q) * qpoch_oracle(-q / u, q)
                    assert abs(mpmath.mpc(sv.value) - exact) <= sv.err_estimate, (q, u)

    @pytest.mark.parametrize("q", [0.3, 0.7, 0.9])
    def test_bound_covers_oracle_where_a_factor_rounds_to_zero(self, q):
        # At u = -q^-k the factor 1 - (-u) q^k of e2(u) is 0 or within
        # rounding of it; the true product at that float u is not 0
        # (1.06e-17 at q = 0.3, k = 1).  It read 0 +- 0 at 9 of these 12
        # points and raised DomainError at the other 3, as did Lambda_2.
        mpmath = pytest.importorskip("mpmath")
        base = QBase(q)
        for k in (1, 2, 3, 5):
            u = -(q**-k)
            e2, lam = qexp_eval(K2, u, base), qexp._lambda_value(K2, u, base)
            with mpmath.workdps(40):
                exact = qpoch_oracle(-u, q)
                assert abs(mpmath.mpc(e2.value) - exact) <= e2.err_estimate, (q, k)
                exact *= qpoch_oracle(-(q / u), q)
                assert abs(mpmath.mpc(lam.value) - exact) <= lam.err_estimate, (q, k)

    @pytest.mark.parametrize("kind", [K1, K2, K3])
    def test_product_outside_the_doubles_is_a_domain_error(self, kind):
        # Both factors are finite, about 1e198 and 1e200 for type 3; their
        # product was returned as nan-infj.
        u = complex(0.9189908387701298, 0.38068332250003195)
        with pytest.raises(DomainError):
            lambda_product(kind, u, QBase(0.998))


class TestFunctionalEquations:
    @given(
        lam=st.floats(0.05, 0.95),
        theta=st.floats(-3.0, 3.0),
        n=st.integers(-4, 2),
        q=st.floats(0.2, 0.8),
    )
    @settings(max_examples=40)
    def test_residuals_vanish(self, lam, theta, n, q):
        base = QBase(q)
        u = q ** (n + lam) * cmath.exp(1j * theta)
        for kind in (K1, K2, K3):
            assert qexp_functional_residual(kind, u, base) < 1e-7

    @pytest.mark.parametrize("u", [0.7, -1.3, 0.4 + 0.9j, 2.5j])
    def test_type3_evaluates_each_exponential_once(self, u, monkeypatch):
        base = QBase(0.5)
        q, rq = base.q, math.sqrt(base.q)
        e = lambda w: qexp_eval(K3, w, base).value
        # The four-term relation with every factor evaluated where it appears.
        t1, t2 = e(u) * e(q / u), e(q * u) * e(1.0 / u)
        t3, t4 = u * e(rq * u) * e(1.0 / u), e(u) * e(rq / u) / u
        want = abs(t1 - t2 - t3 + t4) / max(abs(t1), abs(t2), abs(t3), abs(t4))
        points = []
        monkeypatch.setattr(qexp, "qexp_eval", lambda k, w, b: points.append(w) or qexp_eval(k, w, b))
        assert qexp_functional_residual(K3, u, base) == want
        assert points == [u, q / u, q * u, 1.0 / u, rq * u, rq / u]


class TestClosedForm:
    @given(
        lam=st.floats(0.05, 0.95),
        theta=st.floats(0.2, 2.9),
        n=st.integers(-6, 3),
        q=st.floats(0.2, 0.8),
    )
    @settings(max_examples=60)
    def test_exact_for_product_kinds(self, lam, theta, n, q):
        base = QBase(q)
        u = q ** (n + lam) * cmath.exp(1j * theta)
        for kind in (K1, K2):
            closed = lambda_closed_form(kind, u, base)
            direct = lambda_product(kind, u, base)
            assert abs(closed - direct) < 1e-10 * abs(direct)

    @pytest.mark.parametrize("theta", [0.0, 0.7, 2.0])
    def test_type3_converges_to_the_product(self, theta):
        # The type-3 form is the leading term of e3(u); the factor e3(q/u)
        # it drops tends to 1 as n -> -inf.  At q = 0.25, n = -8 it is off
        # by 7.7e-6; the q^(-1/24) envelope it replaced was off by about 1.
        base = QBase(0.25)
        u = base.q ** (-8 + 0.3) * cmath.exp(1j * theta)
        closed = lambda_closed_form(K3, u, base)
        direct = lambda_product(K3, u, base)
        assert abs(closed / direct - 1.0) < 1e-4


class TestAsymptotic:
    def test_estimate_components_multiply(self):
        pt = lattice_decompose(0.5 ** (-5.7), BASE)
        for kind in (K1, K2, K3):
            est = qexp_asymptotic(kind, pt, BASE)
            assert est.leading == pytest.approx(
                BASE.q**est.scale_exponent * est.phase * est.constant, rel=1e-12
            )
            assert est.N == pytest.approx(pt.n * (pt.n - 1) + 2 * pt.lam * pt.n)

    def test_type3_constant_is_theta_series(self):
        # constant * (q;q)_inf = sum_{k in Z} q^(k(k-1)/4) u0^k at u0 = q^lam e^(i theta).
        q = BASE.q
        for th in (0.0, 0.7, -2.5):
            pt = lattice_decompose(q ** (-4 + 0.3) * cmath.exp(1j * th), BASE)
            u0 = q**pt.lam * cmath.exp(1j * pt.theta)
            theta = sum(q ** (k * (k - 1) / 4.0) * u0**k for k in range(-40, 41))
            est = qexp_asymptotic(K3, pt, BASE)
            assert est.constant * qpoch_infinite(q, BASE).value == pytest.approx(theta, rel=1e-12)

    def test_type3_leading_error_shrinks_by_q_squared(self):
        q = BASE.q
        for th in (0.0, 0.7):
            errs = []
            for n in range(-3, -9, -1):
                u = q ** (n + 0.3) * cmath.exp(1j * th)
                exact = qexp_eval(K3, u, BASE).value
                leading = qexp_asymptotic(K3, lattice_decompose(u, BASE), BASE).leading
                errs.append(abs(exact - leading) / abs(leading))
            for a, b in zip(errs, errs[1:]):
                assert 0.8 * q**2 < b / a < 1.2 * q**2

    def test_leading_error_decays_for_product_kinds(self):
        for kind in (K1, K2):
            errs = []
            for n in (-3, -5, -7):
                u = BASE.q ** (n + 0.3)
                pt = lattice_decompose(u, BASE)
                exact = qexp_eval(kind, u, BASE).value
                leading = qexp_asymptotic(kind, pt, BASE).leading
                errs.append(abs(exact - leading) / abs(leading))
            assert errs[0] > errs[1] > errs[2]
