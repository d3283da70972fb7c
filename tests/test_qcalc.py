import cmath
import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_values as ref
from oracles import qgamma_oracle, qpoch_oracle, qseries_oracle
from qfunc import qcalc
from qfunc.errors import DomainError, NonConvergence, ParameterPole, PoleError
from qfunc.qcalc import (
    QBase,
    basic_hyper,
    lattice_decompose,
    lattice_reconstruct,
    qdiff_apply,
    qgamma,
    qpoch_finite,
    qpoch_infinite,
)

BASE = QBase(0.5)

# (q, a, b, c, z) of 2phi1(a, b; c; q, z): the grid on which the geometric
# tail model under-reported.
PHI21_GRID = list(
    itertools.product(
        (0.3, 0.6, 0.9), (0.3, 0.9, -0.5, 2), (0.5, 0.95), (0.1, -0.5, 0.7), (0.5, 0.9, -0.8)
    )
)


@functools.lru_cache(maxsize=None)
def _phi21(q, a, b, c, z):
    return qseries_oracle((a, b), (c,), q, z, 0)


class TestQBase:
    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_q_outside_open_interval(self, q):
        with pytest.raises(ValueError):
            QBase(q)

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            QBase(0.5, tol=0.0)
        with pytest.raises(ValueError):
            QBase(0.5, max_terms=0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        # A NaN tol made equal bases compare unequal, and tol = inf turned
        # the stop rule off.
        with pytest.raises(ValueError, match="tol"):
            QBase(0.5, tol=tol)

    def test_hash_is_computed_once(self):
        b = QBase(0.3, tol=1e-9, max_terms=500)
        assert hash(b) == b._hash == hash((0.3, 1e-9, 500)) == hash(QBase(0.3, 1e-9, 500))
        assert "__hash__" in vars(QBase)

    def test_squared_keeps_tolerances(self):
        b = QBase(0.5, tol=1e-10, max_terms=77).squared()
        assert b.q == 0.25 and b.tol == 1e-10 and b.max_terms == 77

    def test_squared_is_built_once_per_base(self):
        # The memos keyed on the squared base then match it by identity.
        b = QBase(0.3, tol=1e-11)
        sq = b.squared()
        assert b.squared() is sq and QBase(0.3, tol=1e-11).squared() is sq
        assert sq == QBase.squared.__wrapped__(b)
        assert QBase(0.3).squared() is not sq


class TestPochhammerFinite:
    def test_empty_product_is_one(self):
        assert qpoch_finite(0.3, BASE, 0) == 1.0

    def test_matches_reference_complex(self):
        got = qpoch_finite(0.3 + 0.4j, QBase(0.7), 5)
        assert abs(got - ref.QPOCH_FIN_COMPLEX) < 1e-14 * abs(ref.QPOCH_FIN_COMPLEX)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            qpoch_finite(0.3, BASE, -1)

    @given(
        a=st.floats(-2.0, 2.0),
        n=st.integers(0, 20),
        q=st.floats(0.05, 0.95),
    )
    @settings(max_examples=60)
    def test_recurrence_one_step(self, a, n, q):
        base = QBase(q)
        lhs = qpoch_finite(a, base, n + 1)
        rhs = qpoch_finite(a, base, n) * (1.0 - a * q**n)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def _qpoch_grid(seed=2006, per_q=20):
    """Seeded (q, a): |a| log-uniform on [1e-4, 3.2], half real, half complex."""
    rng = random.Random(seed)
    grid = []
    for q in (0.2, 0.5, 0.8, 0.9, 0.99, 0.999):
        for i in range(per_q):
            mag = 10 ** rng.uniform(-4.0, math.log10(3.2))
            if i % 2:
                a = mag * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            else:
                a = rng.choice((-1.0, 1.0)) * mag
            grid.append((q, a))
    return grid


_QPOCH_GRID = _qpoch_grid()


def _eta_grid(seed=2210):
    """q on both sides of e^(-2 pi), where (q;q)_inf turns to the eta
    transformation, across (0, 1), and three q near 1."""
    rng = random.Random(seed)
    lo = math.log(qcalc._ETA_Q)
    grid = [math.exp(lo * (1.0 + rng.random())) for _ in range(4)]  # below
    grid += [math.exp(lo * rng.random() ** 2) for _ in range(12)]  # above
    return grid + [qcalc._ETA_Q, 0.99, 0.999, 0.9995]


_ETA_GRID = _eta_grid()


class TestFreshBaseWork:
    """What a constant costs where each call brings a new q."""

    def test_qgamma_makes_one_product_and_qq_none(self, monkeypatch):
        calls = []
        log_form = qcalc._log_poch
        monkeypatch.setattr(qcalc, "_log_poch", lambda a, *rest: calls.append(a) or log_form(a, *rest))
        for q in (0.3, 0.618, 0.97):
            base = QBase(q)
            qcalc._base_poch.cache_clear()
            qcalc._qgamma.__wrapped__(0.75, base)
            assert len(calls) == 1, q
            calls.clear()
            qcalc._base_poch.cache_clear()
            sv = qpoch_infinite(q, base)
            assert calls == [] and sv.terms_used == (q < 0.35)
            assert sv.value == math.exp(qcalc._eta_log_qq(base)[0])


class TestPochhammerInfinite:
    def test_zero_argument(self):
        sv = qpoch_infinite(0.0, BASE)
        assert sv.value == 1.0 and sv.err_estimate == 0.0

    def test_matches_reference(self):
        sv = qpoch_infinite(0.5, QBase(0.5, tol=1e-15))
        assert abs(sv.value - ref.QPOCH_INF_HALF) < 1e-13

    def test_vanishing_factor_gives_exact_zero(self):
        assert qpoch_infinite(1.0, BASE).value == 0.0

    def test_exact_zero_is_bounded_by_the_rest_of_the_product(self):
        # The factor 1 - q^-2 q^2 rounds to exactly 0 at q = 0.3, but the true
        # product at these doubles is 7.3e-16; the bound was 0.
        sv = qpoch_infinite(0.3**-2, QBase(0.3))
        assert sv.value == 0.0 and sv.err_estimate < 1e-14
        assert abs(qpoch_oracle(0.3**-2, 0.3)) <= sv.err_estimate

    def test_error_estimate_bounds_truncation(self):
        sv = qpoch_infinite(0.3, QBase(0.9))
        exact = 1.0
        a = 0.3
        q = 0.9
        f = a
        for _ in range(20000):
            exact *= 1.0 - f
            f *= q
        assert abs(sv.value - exact) <= max(sv.err_estimate, 1e-14)

    def test_small_argument_near_one_is_short(self):
        # The plain product needed 27,618 factors here.
        sv = qpoch_infinite(1e-3, QBase(0.999))
        assert sv.terms_used <= 10
        assert abs(sv.value - qpoch_oracle(1e-3, 0.999)) <= sv.err_estimate

    @pytest.mark.parametrize("a", [math.nan, math.inf, complex(0.5, -math.inf)])
    def test_non_finite_argument(self, a):
        with pytest.raises(DomainError):
            qpoch_infinite(a, BASE)

    def test_non_finite_value(self):
        with pytest.raises(DomainError):
            qpoch_infinite(1e300 + 1e300j, BASE)

    def test_underflow_is_a_domain_error(self):
        # (0.9; 0.9995)_inf is about exp(-2600): below the smallest double,
        # with no factor that vanishes.  The plain product returned 0.0.
        with pytest.raises(DomainError):
            qpoch_infinite(0.9, QBase(0.9995))

    def test_prefix_outside_double_range_still_gives_the_value(self):
        # The prefix of (10; 0.999)_inf peaks near e^1931 and exp(-s) is
        # about e^-1126; the product itself is about e^-534.
        sv = qpoch_infinite(10.0, QBase(0.999))
        assert 0.0 < sv.value < 1e-230
        assert abs(sv.value - qpoch_oracle(10.0, 0.999)) <= sv.err_estimate

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_error_estimate_bounds_oracle(self, tol):
        mpmath = pytest.importorskip("mpmath")
        bad = []
        for q, a in _QPOCH_GRID:
            exact = qpoch_oracle(a, q)
            try:
                sv = qpoch_infinite(a, QBase(q, tol=tol))
            except DomainError:
                # Only where the value itself leaves the normal doubles.
                if sys.float_info.min <= abs(exact) <= sys.float_info.max:
                    bad.append((q, a, "raised"))
                continue
            err = abs(mpmath.mpc(sv.value) - exact)
            if not err <= sv.err_estimate:
                bad.append((q, a, float(err), sv.err_estimate))
        assert not bad

    @pytest.mark.parametrize("q", [0.998, 0.999, 0.9995])
    def test_log_form_bounds_oracle_near_q_one(self, q):
        # ln (q;q)_inf is about -1640 at q = 0.999: the log form is a double
        # and within its bound dL although the product is far below 1e-308.
        mpmath = pytest.importorskip("mpmath")
        for a in (q, math.sqrt(q), 0.9, -0.7, 0.5 + 0.6j, 3.0):
            lv, unit, dl, _ = qcalc._log_poch(a, QBase(q))
            with mpmath.workdps(40):
                exact = qpoch_oracle(a, q)
                ratio = unit * mpmath.exp(mpmath.mpc(lv) - mpmath.log(exact))
                assert abs(ratio - 1) <= math.expm1(dl), (a, float(abs(ratio - 1)), dl)

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_eta_form_bounds_oracle_below_the_product_bound(self, tol):
        # From q = e^(-2 pi) on, (q;q)_inf comes from the eta transformation;
        # below it from the product.  Each is within its bound dL of a
        # 40-digit product, and the eta bound is below the product's.
        mpmath = pytest.importorskip("mpmath")
        bad = []
        for q in _ETA_GRID:
            base = QBase(q, tol=tol)
            qcalc._base_poch.cache_clear()
            lv, unit, dl, _ = qcalc._base_poch(q, base)
            loop = qcalc._log_poch(q, base)
            if q < qcalc._ETA_Q:
                assert (lv, unit, dl) == loop[:3]
            elif not dl < loop[2]:
                bad.append((q, "bound", dl, loop[2]))
            with mpmath.workdps(40):
                err = float(abs(lv - mpmath.log(qpoch_oracle(q, q))))
            if not (unit == 1.0 and err <= dl):
                bad.append((q, err, dl))
        assert not bad

    @pytest.mark.parametrize("q", [0.999, 0.9995])
    def test_eta_bound_is_ten_times_below_the_product_bound_near_q_one(self, q):
        base = QBase(q)
        qcalc._base_poch.cache_clear()
        assert 10.0 * qcalc._base_poch(q, base)[2] <= qcalc._log_poch(q, base)[2]

    @given(a=st.floats(-0.9, 0.9), q=st.floats(0.1, 0.9))
    @settings(max_examples=60)
    def test_splitting_identity(self, a, q):
        # (a;q)_inf = (a;q)_3 * (a q^3;q)_inf
        base = QBase(q)
        whole = qpoch_infinite(a, base).value
        split = qpoch_finite(a, base, 3) * qpoch_infinite(a * q**3, base).value
        assert abs(whole - split) <= 1e-11 * max(1.0, abs(whole))


class TestQGamma:
    def test_at_one(self):
        assert abs(qgamma(1.0, BASE) - 1.0) < 1e-14

    def test_matches_reference(self):
        assert abs(qgamma(0.5, QBase(0.9)) - ref.QGAMMA_HALF_09) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, -1.0, -7.0])
    def test_pole_at_nonpositive_integers(self, alpha):
        with pytest.raises(PoleError):
            qgamma(alpha, BASE)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.998, 0.999, 0.9995])
    def test_matches_oracle_up_to_q_near_one(self, q):
        # From q ~ 0.998 on (q;q)_inf is below the smallest normal double:
        # dividing the products as doubles raised DomainError there.
        for alpha in (0.25, 0.5, 2.5, -0.5):
            exact = qgamma_oracle(alpha, q)
            assert abs(qgamma(alpha, QBase(q)) - exact) <= 1e-11 * abs(exact), alpha

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.99, 0.999, 0.9995])
    def test_bounded_form_covers_the_oracle(self, q):
        # Gamma's relative bound (`qcalc._qgamma`) enters every Bessel
        # prefactor; alpha as the Bessel code forms it (nu + 1, 1 - nu).
        base = QBase(q)
        for alpha in (0.25, 0.75, 2.5, -0.5, 0.3 + 1.0, 1.0 - 0.7):
            g, rel = qcalc._qgamma(alpha, base)
            exact = qgamma_oracle(alpha, q)
            assert g == qgamma(alpha, base)
            assert abs(g - exact) <= rel * abs(g), alpha

    @pytest.mark.parametrize("alpha, q, pole", [(-0.9999999999999999, 0.7, -1), (1e-17, 0.5, 0)])
    def test_factor_that_rounds_to_zero_names_the_pole(self, alpha, q, pole):
        # A factor of (q^alpha;q)_inf rounds to 0 here, so its log form has
        # unit 0; dividing by it would raise ZeroDivisionError.
        with pytest.raises(DomainError, match=f"onto its pole {pole}$"):
            qgamma(alpha, QBase(q))

    def test_value_outside_the_doubles_is_a_domain_error(self):
        # Gamma_q(200) at q = 0.5 is about 2^199 (q;q)_inf: a double; at
        # alpha = 2000 it is about 2^1999.
        assert math.isfinite(qgamma(200.0, BASE))
        with pytest.raises(DomainError):
            qgamma(2000.0, BASE)

    @given(x=st.floats(0.2, 3.0), q=st.floats(0.1, 0.9))
    @settings(max_examples=60)
    def test_functional_equation(self, x, q):
        base = QBase(q)
        lhs = qgamma(x + 1.0, base)
        rhs = (1.0 - q**x) / (1.0 - q) * qgamma(x, base)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestBasicHyper:
    def test_zero_argument_is_one(self):
        sv = basic_hyper([0.3], [0.2], BASE, 0.0)
        assert sv.value == 1.0

    @given(a=st.floats(-0.8, 0.8), z=st.floats(-0.8, 0.8), q=st.floats(0.2, 0.8))
    @settings(max_examples=60)
    def test_q_binomial_theorem(self, a, z, q):
        # 1Phi0(a; -; q, z) = (a z; q)_inf / (z; q)_inf for |z| < 1.
        base = QBase(q)
        lhs = basic_hyper([a], [], base, z).value
        rhs = qpoch_infinite(a * z, base).value / qpoch_infinite(z, base).value
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_balanced_series_outside_unit_disc_rejected(self):
        with pytest.raises(NonConvergence):
            basic_hyper([0.3], [], BASE, 1.5)

    def test_bound_covers_rounding_in_cancellation(self):
        # Terms up to 1e6 cancel to -5.3e-6; the tail bound alone was
        # 1.85e-11 against an error of 4.4e-10.
        mpmath = pytest.importorskip("mpmath")
        sv = basic_hyper([-0.5, 0.5], [0.7], QBase(0.9, tol=1e-6), -0.8)
        with mpmath.workdps(40):
            exact = complex(mpmath.qhyper([-0.5, 0.5], [0.7], 0.9, -0.8))
        assert sv.err_estimate >= abs(sv.value - exact)

    def test_terminating_series_allows_large_argument(self):
        # Upper parameter q^(-2) terminates the sum after three terms, so
        # the bound is the kernel's rounding bound alone.
        sv = basic_hyper([BASE.q**-2], [], BASE, 5.0)
        assert 0.0 < sv.err_estimate < 1e-13 * abs(sv.value)
        q = BASE.q
        z = 5.0
        a = q**-2
        t1 = (1 - a) / (1 - q) * z
        t2 = t1 * (1 - a * q) / (1 - q**2) * z
        assert abs(sv.value - (1 + t1 + t2)) < 1e-12 * abs(sv.value)

    @pytest.mark.parametrize("q, k", [(0.7, 2), (0.3, 3), (0.1, 3)])
    @pytest.mark.parametrize("upper, lower", [((), ()), ((0.3, 0.2), (0.5,))])
    def test_terminating_series_where_the_factor_rounds_off_zero(self, q, k, upper, lower):
        # 1 - q^(-k) q^k is 1e-16, not 0, in doubles at these q.  At weight 0
        # and |z| >= 1, or at weight < 0, no tail bound R < 1 exists, and the
        # sum ran on past term k until a term overflowed.  The geometric
        # stop rule before it took one term more and reported a bound
        # larger than the value (270 on 56.5 at q = 0.7), or overflowed too.
        a = q**-k
        assert 1.0 - a * q**k != 0
        sv = basic_hyper((a,) + upper, lower, QBase(q), 5.0)
        assert sv.terms_used == k + 1
        w = len(lower) - len(upper)
        qf, s, t = Fraction(q), Fraction(0), Fraction(1)
        for n in range(k + 1):
            s += t
            r = (1 - qf**n / qf**k) * (-1) ** w * qf ** (w * n) / (1 - qf ** (n + 1)) * 5
            for p in upper:
                r *= 1 - Fraction(p) * qf**n
            for p in lower:
                r /= 1 - Fraction(p) * qf**n
            t *= r
        assert abs(Fraction(sv.value) - s) <= sv.err_estimate

    @pytest.mark.parametrize("q, k", [(0.7, 2), (0.3, 3), (0.1, 3)])
    @pytest.mark.parametrize("z", [0.5, -0.9])
    def test_convergent_series_sums_past_a_factor_that_rounds_off_zero(self, q, k, z):
        # The same parameter q^(-k) as above, whose factor at index k is
        # 1e-16 and not 0.  The series converges at |z| < 1, so the factor
        # does not end it: ending there left the terms past it out of the
        # sum and out of its bound.  The bound holds against the sum at the
        # double a.
        mpmath = pytest.importorskip("mpmath")
        a = q**-k
        for tol in (1e-6, 1e-12):
            sv = basic_hyper([a], [], QBase(q, tol=tol), z)
            assert sv.terms_used > k + 1
            with mpmath.workdps(40):
                exact = mpmath.qhyper([mpmath.mpf(a)], [], mpmath.mpf(q), z)
                assert abs(sv.value - exact) <= sv.err_estimate

    @pytest.mark.parametrize("k, j", [(2, 5), (3, 5), (2, 3)])
    def test_terminating_series_with_a_lower_pole_past_its_end(self, k, j):
        # The upper q^-k ends the sum at term k, before the lower q^-j would
        # divide by 0 at index j.  That factor's conditioning still entered
        # the rounding bound, which read inf (0.9427... +- inf at k, j = 2, 5).
        q = 0.5
        sv = basic_hyper([q**-k], [q**-j], QBase(q), 0.3)
        assert sv.terms_used == k + 1 and math.isfinite(sv.err_estimate)
        qf, s, t = Fraction(q), Fraction(0), Fraction(1)
        for n in range(k + 1):
            s += t
            r = (1 - qf ** (n - k)) * qf**n / ((1 - qf ** (n + 1)) * (1 - qf ** (n - j)))
            t *= -r * Fraction(0.3)
        assert abs(Fraction(sv.value) - s) <= sv.err_estimate

    def test_lower_parameter_pole(self):
        with pytest.raises(ParameterPole):
            basic_hyper([0.3], [BASE.q**-1], BASE, 0.1)

    @pytest.mark.parametrize("z", [1e-9, 1e-100])
    def test_lower_parameter_pole_past_a_small_term(self, z):
        # Term 6 divides by 1 - 2^5 q^5 = 0.  At z = 1e-9 terms 2 on are below
        # tol, and the geometric stop rule returned 0.99999999994 +- inf
        # after 3; at z = 1e-100 term 4 underflows to 0, which ended the sum
        # at 1.0 +- nan.
        with pytest.raises(ParameterPole):
            basic_hyper([], [0.5**-5], BASE, z)

    def test_divergent_series_is_rejected(self):
        # r > s + 1: the terms grow like q^(-n(n-1)/2) from some n on; the
        # geometric stop rule returned 0.999999997984 after 3 terms.
        with pytest.raises(NonConvergence):
            basic_hyper([0.3, 0.2, 0.1], [0.5], BASE, 1e-9)

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_bound_covers_error_on_phi21_grid(self, tol):
        # The geometric tail |t| rho / (1 - rho) under-reported at 54 of the
        # 216 points at tol 1e-6 (worst 3.9x: q = 0.9, a = 2, b = 0.95,
        # c = -0.5, z = 0.9) and at 2 at 1e-12, where the term ratio was
        # still growing toward its limit when the sum stopped.
        short = []
        for q, a, b, c, z in PHI21_GRID:
            sv = basic_hyper([a, b], [c], QBase(q, tol=tol), z)
            error = abs(sv.value - _phi21(q, a, b, c, z))
            if error > sv.err_estimate:
                short.append((q, a, b, c, z, float(error) / sv.err_estimate))
        assert short == []

    def test_gaussian_weight_converges_anywhere(self):
        sv = basic_hyper([0.3], [0.2, 0.1], BASE, 40.0)
        assert sv.err_estimate < 1e-10 * abs(sv.value)


class TestQDiff:
    def test_identity_function(self):
        got = qdiff_apply(lambda z: z, 2.0, BASE)
        assert abs(got - 1.0 / (1.0 + BASE.q)) < 1e-15

    def test_undefined_at_origin(self):
        with pytest.raises(DomainError):
            qdiff_apply(lambda z: z, 0.0, BASE)


class TestLattice:
    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            lattice_decompose(0.0, BASE)

    @pytest.mark.parametrize("u", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
    def test_rejects_a_non_finite_argument(self, u):
        with pytest.raises(DomainError, match="cannot decompose u"):
            lattice_decompose(u, BASE)

    def test_exact_power_has_zero_offset(self):
        p = lattice_decompose(BASE.q**3, BASE)
        assert p.n == 3 and p.lam == 0.0 and p.theta == 0.0

    def test_negative_real_axis_maps_to_pi(self):
        assert lattice_decompose(-1.0, BASE).theta == math.pi

    @given(
        mag=st.floats(1e-6, 1e6),
        theta=st.floats(-3.14, 3.14),
        q=st.floats(0.1, 0.9),
    )
    @settings(max_examples=120)
    def test_round_trip(self, mag, theta, q):
        base = QBase(q)
        u = mag * cmath.exp(1j * theta)
        p = lattice_decompose(u, base)
        assert 0.0 <= p.lam < 1.0
        assert -math.pi < p.theta <= math.pi
        back = lattice_reconstruct(p, base)
        assert abs(back - u) <= 4e-12 * abs(u)
