import cmath
import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collections import Counter

import reference_values as ref
from oracles import bessel_oracle, bessel_series_oracle
from qfunc import harness, qbessel, qcalc, qexp
from qfunc.errors import (
    DomainError,
    NegativeProduct,
    NonConvergence,
    ParameterPole,
    QfuncError,
)
from qfunc.qcalc import LatticePoint, QBase, lattice_decompose, qgamma
from qfunc.qexp import KindTag, lambda_laurent_eval, qexp_asymptotic, qexp_eval
from qfunc.qbessel import (
    BesselSpec,
    a_nu,
    bessel_asymptotic,
    bessel_combination,
    bessel_diffeq_residual,
    bessel_laurent_coeff,
    bessel_phi_repr,
    bessel_reference,
    bessel_series,
    bessel_type3_repr,
    bessel_value,
    phi_nu,
    type3_asymptotic_bracket,
    type3_coeff,
    wronskian,
    wronskian_closed,
)

BASE = QBase(0.5, tol=1e-15)
K1, K2, K3 = KindTag.from_j(1), KindTag.from_j(2), KindTag.from_j(3)


class TestNormalization:
    def test_a_nu_reference(self):
        got = a_nu(0.25, QBase(0.8, tol=1e-15))
        assert abs(got - ref.A_NU_025_Q08) < 1e-12

    def test_a_nu_integer_branch(self):
        q = 0.5
        want = math.sqrt(q**0.5 * math.log(q**-2.0) / (2.0 * math.pi))
        assert abs(a_nu(0.0, BASE) - want) < 1e-14
        want1 = math.sqrt(q ** (-0.5) * math.log(q**-2.0) / (2.0 * math.pi))
        assert abs(a_nu(1.0, BASE) - want1) < 1e-14

    def test_phi_factor_reference(self):
        got = phi_nu(0.25, 4.0, BASE).value
        assert abs(got - ref.PHI_NU025_Q05_U4) < 1e-12

    def test_phi_factor_terminates_at_half_integer_order(self):
        for u in (1.5, 3.0, -2.0 + 1.0j):
            sv = phi_nu(0.5, u, BASE)
            assert sv.value == 1.0 and sv.err_estimate == 0.0

    @pytest.mark.parametrize("q", [0.25, 0.7, 0.9])
    def test_phi_factor_near_a_half_integer_order_is_within_its_bound(self, q):
        # The upper parameter q^(1/2 - nu) makes a factor within 1e-12 of 0,
        # but not 0: the series converges (|q/u| < 1), so it sums on past
        # that factor.  Ending there read 1 +- 0 against errors of 1e-16 to
        # 2e-13 at nu = 1/2 + d.  The oracle takes the exponents exactly.
        mpmath = pytest.importorskip("mpmath")
        bad = []
        for c, d, u, tol in itertools.product(
            (0.5, 1.5), (1e-15, -1e-15, 1e-14, 1e-13, 2e-12, -2e-12), (1.5, 3.0, -2.0), (1e-6, 1e-12)
        ):
            nu = c + d
            if q ** (0.5 - nu) == 1.0:
                continue  # the parameter itself rounds onto the exact 0: below
            sv = phi_nu(nu, u, QBase(q, tol=tol))
            with mpmath.workdps(40):
                mq, mnu = mpmath.mpf(q), mpmath.mpf(nu)
                upper = [mq ** (mnu + 0.5), mq ** (0.5 - mnu)]
                err = abs(sv.value - mpmath.qhyper(upper, [-mq], mq, mq / u))
            if not err <= sv.err_estimate:
                bad.append((q, nu, u, tol, float(err), sv.err_estimate))
        assert not bad

    @pytest.mark.xfail(strict=True, reason="q^(1/2 - nu) rounds to 1.0 before the kernel sees it")
    def test_phi_factor_one_ulp_from_a_half_integer_order(self):
        # At nu = 1/2 + 1 ulp the caller's rounded power q^(1/2 - nu) is
        # exactly 1.0, so the kernel sums an exactly terminating series and
        # reports 1 +- 0 against a true 1 - 2.4e-17 (ROADMAP item 1).
        mpmath = pytest.importorskip("mpmath")
        q, nu, u = 0.7, 0.5000000000000002, 1.5
        sv = phi_nu(nu, u, QBase(q))
        with mpmath.workdps(40):
            mq, mnu = mpmath.mpf(q), mpmath.mpf(nu)
            upper = [mq ** (mnu + 0.5), mq ** (0.5 - mnu)]
            err = abs(sv.value - mpmath.qhyper(upper, [-mq], mq, mq / u))
        assert err <= sv.err_estimate

    def test_phi_factor_domain(self):
        with pytest.raises(NonConvergence):
            phi_nu(0.25, 0.4, BASE)


class TestSeries:
    def test_j2_reference(self):
        got = bessel_series(BesselSpec(K2, "J", 0.25), 0.7, BASE).value
        assert abs(got - ref.BESSEL_J2_NU025_Q05_Z07) < 1e-12

    def test_i1_reference(self):
        got = bessel_series(
            BesselSpec(K1, "I", 1.5), 0.7, QBase(0.25, tol=1e-15)
        ).value
        assert abs(got - ref.BESSEL_I1_NU15_Q025_Z07) < 1e-12

    def test_zero_argument(self):
        assert bessel_series(BesselSpec(K2, "I", 0.0), 0.0, BASE).value == 1.0
        assert bessel_series(BesselSpec(K2, "I", 0.5), 0.0, BASE).value == 0.0
        with pytest.raises(DomainError):
            bessel_series(BesselSpec(K2, "I", -0.5), 0.0, BASE)

    def test_negative_integer_order_pole(self):
        with pytest.raises(ParameterPole):
            bessel_series(BesselSpec(K2, "J", -1.0), 0.7, BASE)

    def test_type1_convergence_disc(self):
        with pytest.raises(NonConvergence):
            bessel_series(BesselSpec(K1, "J", 0.25), 1.0 / (1 - 0.25), BASE)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            bessel_series(BesselSpec(K2, "K", 0.25), 0.7, BASE)
        with pytest.raises(ValueError):
            BesselSpec(K2, "X", 0.25)

    @given(
        nu=st.floats(0.1, 2.0),
        zr=st.floats(0.1, 1.0),
        q=st.floats(0.35, 0.8),
    )
    @settings(max_examples=40)
    def test_rotation_identity(self, nu, zr, q):
        # J_nu(z) = exp(-i nu pi / 2) I_nu(i z), within each type.
        base = QBase(q, tol=1e-15)
        for kind in (K1, K2, K3):
            j = bessel_series(BesselSpec(kind, "J", nu), zr, base).value
            i = bessel_series(BesselSpec(kind, "I", nu), 1j * zr, base).value
            rot = cmath.exp(-1j * nu * math.pi / 2.0) * i
            assert abs(j - rot) <= 1e-11 * max(1.0, abs(j))


class TestCombination:
    def test_k2_reference(self):
        got = bessel_combination("K", K2, 0.25, 1.0, BASE).value
        assert abs(got - ref.BESSEL_K2_NU025_Q05_Z1) < 1e-12

    def test_y3_reference(self):
        got = bessel_value(BesselSpec(K3, "Y", 0.25), 0.7, BASE).value
        assert abs(got - ref.BESSEL_Y3_NU025_Q05_Z07) < 1e-12

    def test_integer_order_limits(self):
        # The limit-stability guard scales with base.tol, so the integer
        # limit runs at the default tolerance rather than the tight one.
        base = QBase(0.5)
        y = bessel_combination("Y", K2, 1.0, 0.7, base).value
        k = bessel_combination("K", K2, 1.0, 0.7, base).value
        assert abs(y - ref.BESSEL_Y2_NU1_Q05_Z07) < 1e-9
        assert abs(k - ref.BESSEL_K2_NU1_Q05_Z07) < 1e-9

    def test_family_validation(self):
        with pytest.raises(ValueError):
            bessel_combination("J", K2, 0.25, 0.7, BASE)


class TestDifferenceEquation:
    @pytest.mark.parametrize(
        "kind,family,nu,z",
        [
            (K2, "J", 0.25, 0.7),
            (K2, "I", 1.5, 1.3),
            (K2, "Y", 0.25, 0.9),
            (K2, "K", 0.25, 0.8),
            (K3, "J", 0.25, 0.7),
            (K3, "I", 0.4, 1.1),
            (K1, "J", 0.25, 0.5),
            (K1, "I", 0.25, 0.5),
        ],
    )
    def test_residual_small(self, kind, family, nu, z):
        r = bessel_diffeq_residual(BesselSpec(kind, family, nu), z, BASE)
        assert r < 1e-9


class TestWronskian:
    def test_discrete_matches_reference(self):
        f1 = lambda w: bessel_value(BesselSpec(K1, "J", 0.25), w, BASE).value
        f2 = lambda w: bessel_value(BesselSpec(K1, "Y", 0.25), w, BASE).value
        got = wronskian(f1, f2, 0.6, BASE)
        assert abs(got - ref.WRONSKIAN_JY1_NU025_Q05_Z06) < 1e-10

    @pytest.mark.parametrize("kind", [K1, K2, K3])
    @pytest.mark.parametrize("pair", ["JY", "IK"])
    def test_closed_form_matches_discrete(self, kind, pair):
        nu = 0.25
        z = 0.45 if kind.j == 1 else 0.8
        fam1, fam2 = pair[0], pair[1]
        f1 = lambda w: bessel_value(BesselSpec(kind, fam1, nu), w, BASE).value
        f2 = lambda w: bessel_value(BesselSpec(kind, fam2, nu), w, BASE).value
        got = wronskian(f1, f2, z, BASE)
        want = wronskian_closed(kind, pair, nu, z, BASE)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            wronskian_closed(K2, "JK", 0.25, 0.7, BASE)


class TestPhiRepresentation:
    def test_k_exact_at_half_integer_order(self):
        spec = BesselSpec(K2, "K", 0.5)
        via_repr = bessel_phi_repr(spec, 3.0, BASE).value
        via_comb = bessel_combination("K", K2, 0.5, 4.0, BASE).value
        assert abs(via_repr - ref.BESSEL_K2_NU05_U3_REPR) < 1e-12
        assert abs(via_comb - ref.BESSEL_K2_NU05_Z4) < 1e-12
        assert abs(via_repr - via_comb) < 1e-12

    @pytest.mark.parametrize("family", ["I", "J", "Y", "K"])
    @pytest.mark.parametrize("kind", [K1, K2])
    def test_exact_at_half_integer_order_all_families(self, kind, family):
        u = 1.4
        z = u / (1.0 - BASE.q**2)
        got = bessel_phi_repr(BesselSpec(kind, family, 0.5), u, BASE).value
        if kind.j == 1:
            want = bessel_reference(BesselSpec(kind, family, 0.5), u, BASE)
        else:
            want = bessel_value(BesselSpec(kind, family, 0.5), z, BASE).value
        assert abs(got - want) <= 1e-9 * max(abs(want), 1e-6)

    def test_type3_rejected(self):
        with pytest.raises(ValueError):
            bessel_phi_repr(BesselSpec(K3, "K", 0.5), 3.0, BASE)

    def test_bound_at_half_integer_order_covers_the_oracle(self):
        # At nu = 1/2 Phi terminates at its first term, exactly 1 with bound
        # 0, and a bound that was Phi's alone read 0.0 at all 60 points, at
        # relative errors up to 2e-14 (Y, type 2, q = 0.8, u = 3.69).  e's
        # bound enters through the product rule.  The type-1 series oracle
        # needs |u| < 1.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(23)
        short = []
        for _ in range(60):
            kind = rng.choice((K1, K2))
            family = rng.choice("JYIK")
            q = rng.choice((0.25, 0.5, 0.8))
            u = rng.uniform(q, 0.9 if kind.j == 1 else 5.0)
            sv = bessel_phi_repr(BesselSpec(kind, family, 0.5), u, QBase(q))
            exact = bessel_oracle(kind.delta, family, 0.5, u / (1.0 - q * q), q)
            with mpmath.workdps(40):
                error = float(abs(sv.value - exact))
            if not 0.0 < sv.err_estimate >= error:
                short.append((kind.j, family, q, u, error, sv.err_estimate))
        assert short == []


class TestTwoSidedCoefficients:
    def test_frozen_values(self):
        for l, want in zip((1, 2), ref.COEFF_MINUS_J1):
            got = bessel_laurent_coeff(K1, l, "minus", 0.25, BASE)
            assert abs(got - want) < 1e-12 * abs(want)
        for l, want in enumerate(ref.COEFF_PLUS_J1):
            got = bessel_laurent_coeff(K1, l, "plus", 0.25, BASE)
            assert abs(got - want) < 1e-12 * abs(want)
        for l, want in zip((1, 2), ref.COEFF_MINUS_J2):
            got = bessel_laurent_coeff(K2, l, "minus", 0.25, BASE)
            assert abs(got - want) < 1e-12 * abs(want)
        for l, want in enumerate(ref.COEFF_PLUS_J2):
            got = bessel_laurent_coeff(K2, l, "plus", 0.25, BASE)
            assert abs(got - want) < 1e-12 * abs(want)

    def test_type3_is_geometric_mean(self):
        for sign, l in (("plus", 0), ("plus", 2), ("minus", 1), ("minus", 3)):
            pair = type3_coeff(l, sign, 0.25, BASE)
            assert pair.c3 == pytest.approx(math.sqrt(pair.c1 * pair.c2), rel=1e-14)

    def test_negative_product_names_its_row(self):
        # At q = 1/4, nu = 1.8 the type-1 and type-2 coefficients of every
        # ascending row from l = 1 on have opposite signs.
        base = QBase(0.25)
        with pytest.raises(NegativeProduct, match=r"\(l=5, sign=plus, nu=1.8\)"):
            type3_coeff(5, "plus", 1.8, base)
        with pytest.raises(NegativeProduct, match=r"\(l=1, sign=plus, nu=1.8\)"):
            qbessel._type3_tables(1.8, 20, base)

    def test_validation(self):
        with pytest.raises(ValueError):
            bessel_laurent_coeff(K3, 1, "plus", 0.25, BASE)
        with pytest.raises(ValueError):
            bessel_laurent_coeff(K1, 0, "minus", 0.25, BASE)
        with pytest.raises(ValueError):
            bessel_laurent_coeff(K1, -1, "plus", 0.25, BASE)
        with pytest.raises(ValueError):
            bessel_laurent_coeff(K1, 1, "down", 0.25, BASE)


class TestTypeThreeRepresentation:
    def test_exact_at_half_integer_order(self):
        u = 3.0
        z = u / (1.0 - BASE.q**2)
        for family in ("I", "K", "J", "Y"):
            got = bessel_type3_repr(family, 0.5, u, 12, BASE).value
            want = bessel_value(BesselSpec(K3, family, 0.5), z, BASE).value
            assert abs(got - want) <= 1e-11 * max(abs(want), 1e-10)

    def test_each_band_is_computed_once(self, monkeypatch):
        # The window used to double 20 -> 40 -> 80 here, and each doubling
        # rebuilt both coefficient tables from l = 0.
        rows = []
        table = qbessel._cauchy_table

        def counting(*args):
            rows.extend(args[6])
            rows.extend(-l for l in args[7])
            return table(*args)

        monkeypatch.setattr(qbessel, "_cauchy_table", counting)
        qbessel._laurent_tables.cache_clear()
        sv = bessel_type3_repr("I", 0.25, 0.8, 20, QBase(0.5))
        L = (sv.terms_used - 1) // 2
        assert L > 20
        assert sorted(rows) == sorted(2 * list(range(-L, L + 1)))  # types 1 and 2

    @pytest.mark.parametrize("u", [1e10, math.inf])
    def test_sum_outside_the_doubles_is_a_domain_error(self, u):
        with pytest.raises(DomainError):
            bessel_type3_repr("I", 0.25, u, 20, QBase(0.5))

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_type3_repr("I", 0.5, 0.4, 12, BASE)
        with pytest.raises(DomainError):
            bessel_type3_repr("Y", 1.0, 3.0, 12, BASE)
        with pytest.raises(ValueError):
            bessel_type3_repr("X", 0.5, 3.0, 12, BASE)


class TestAsymptotics:
    def test_modified_k_error_decays(self):
        for kind in (K1, K2):
            errs = []
            for n in (-2, -4, -6):
                u = BASE.q ** (n + 0.3)
                pt = lattice_decompose(u, BASE)
                spec = BesselSpec(kind, "K", 0.25)
                exact = bessel_reference(spec, u, BASE)
                lead = bessel_asymptotic(spec, pt, BASE).leading
                errs.append(abs(exact - lead) / abs(exact))
            assert errs[0] > errs[1] > errs[2]

    def test_estimate_scale_sign(self):
        pt = lattice_decompose(BASE.q ** (-4 + 0.3), BASE)
        big_n = pt.n * (pt.n - 1) + 2 * pt.lam * pt.n
        est1 = bessel_asymptotic(BesselSpec(K1, "I", 0.25), pt, BASE)
        est2 = bessel_asymptotic(BesselSpec(K2, "I", 0.25), pt, BASE)
        assert est1.scale_exponent == pytest.approx(big_n / 2.0)
        assert est2.scale_exponent == pytest.approx(-big_n / 2.0)

    def test_leading_terms_require_real_positive_point(self):
        pt = lattice_decompose(-BASE.q**-3, BASE)
        with pytest.raises(DomainError):
            bessel_asymptotic(BesselSpec(K2, "K", 0.25), pt, BASE)
        with pytest.raises(DomainError):
            type3_asymptotic_bracket("J", 0.25, pt, BASE)

    def test_type3_bracket_sanity(self):
        pt = lattice_decompose(BASE.q ** (-4 + 0.3), BASE)
        est, bracket = type3_asymptotic_bracket("K", 0.25, pt, BASE)
        assert bracket.phi_min <= bracket.phi_max
        assert est.scale_exponent == pytest.approx(-est.N - pt.n / 2.0)

    @pytest.mark.parametrize("family", ["J", "Y"])
    @pytest.mark.parametrize("q", [0.25, 0.5, 0.8])
    def test_oscillatory_leading_terms_are_real(self, family, q):
        # On u > 0 the family map pairs +-iu with conjugate coefficients,
        # so every J and Y leading term is real.
        base = QBase(q)
        for n in range(-2, -9, -1):
            pt = lattice_decompose(q ** (n + 0.3), base)
            leads = [
                bessel_asymptotic(BesselSpec(kind, family, 0.25), pt, base).leading
                for kind in (K1, K2, K3)
            ]
            for lead in leads:
                assert abs(lead.imag) <= 1e-12 * abs(lead)

    @pytest.mark.parametrize("family", ["I", "J"])
    def test_type3_leading_term_converges(self, family):
        # q = 0.5, lam = 0.3: exact/leading tends to 1 at nu = 1/2, where Phi
        # is 1, and to 1.03302 at nu = 1/4, by about q^2 per step in n.  The
        # pinned q^(-2N/3-1/24) model read ratios above 1e5 here.
        base = QBase(0.5)
        u = base.q ** (-10 + 0.3)
        pt = lattice_decompose(u, base)
        ratios = {}
        for nu in (0.5, 0.25):
            spec = BesselSpec(K3, family, nu)
            exact = bessel_value(spec, u / (1.0 - base.q**2), base).value
            ratios[nu] = abs(exact) / abs(bessel_asymptotic(spec, pt, base).leading)
        assert abs(ratios[0.5] - 1.0) < 1e-5
        assert abs(ratios[0.25] - 1.03302) < 1e-4

    def test_type3_bracket_degenerates_at_half_integer_order(self):
        pt = lattice_decompose(BASE.q ** (-4 + 0.3), BASE)
        _, bracket = type3_asymptotic_bracket("I", 0.5, pt, BASE)
        assert bracket.phi_min == pytest.approx(1.0, abs=1e-9)
        assert bracket.phi_max == pytest.approx(1.0, abs=1e-9)


class TestNearQOne:
    @pytest.mark.parametrize("kind", [K2, K3])
    @pytest.mark.parametrize("family", ["J", "I"])
    def test_series_matches_oracle(self, kind, family):
        # q-gamma in the prefactor raised DomainError here while its
        # products were divided as doubles.
        sv = bessel_value(BesselSpec(kind, family, 0.25), 1.0, QBase(0.999))
        exact = bessel_series_oracle(kind.delta, family, 0.25, 1.0, 0.999)
        assert abs(sv.value - exact) <= 1e-11 * abs(exact)


def _sweep_grid():
    """(q, kind, family, nu, z) of the Bessel bound sweep: 600 seeded draws,
    type 1 kept inside 0.9 of its disc |z| < 1/(1-q^2), and the points near
    q -> 1 where q-gamma's error was in no bound."""
    rng = random.Random(3)
    grid = []
    for _ in range(600):
        q = rng.uniform(0.2, 0.9)
        j = rng.choice((1, 2, 3))
        family = rng.choice("JIYK")
        nu = rng.choice((0.25, 0.3, 0.5, 1.5, 0.7))
        z = 10 ** rng.uniform(-12, 0.3)
        if j > 1 or z < 0.9 / (1.0 - q * q):
            grid.append((q, KindTag.from_j(j), family, nu, z))
    near = itertools.product((0.99, 0.999), (K2, K3), "JK")
    return grid + [(q, kind, family, 0.25, 1.0) for q, kind, family in near]


class TestBoundSweep:
    """err_estimate bounds |value - oracle| for every family and type."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-6])
    def test_bessel_value_is_within_its_bound(self, tol):
        # 28 of these points at tol 1e-12, and 29 at 1e-6, under-reported
        # when the prefactors' rounding and q-gamma's error were outside the
        # bound, at nu = 3/2 and 0.7, by up to 2.8 times (I of type 2,
        # q = 0.438, z = 1.4e-10).
        mpmath = pytest.importorskip("mpmath")
        short, checked = [], 0
        for q, kind, family, nu, z in _sweep_grid():
            try:
                sv = bessel_value(BesselSpec(kind, family, nu), z, QBase(q, tol=tol))
            except QfuncError:
                continue
            checked += 1
            exact = bessel_oracle(kind.delta, family, nu, z, q)
            with mpmath.workdps(40):
                error = float(abs(sv.value - exact))
            if not error <= sv.err_estimate:
                short.append((kind.j, family, nu, q, z, error, sv.err_estimate))
        assert checked == 600 and short == []


class TestNonFiniteArgument:
    @pytest.mark.parametrize("family", ["J", "Y", "I", "K"])
    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
    def test_domain_error(self, family, z):
        for kind in (K1, K2, K3):
            with pytest.raises(DomainError):
                bessel_value(BesselSpec(kind, family, 0.25), z, BASE)


class TestMemos:
    """qgamma, _phi_bracket and _laurent_tables are memoized per (q, nu)."""

    @pytest.mark.parametrize(
        "alpha,q", [(0.25, 0.0625), (0.75, 0.25), (1.25, 0.64), (2.0, 0.5), (-1.5, 0.8)]
    )
    def test_qgamma_equals_uncached(self, alpha, q):
        base = QBase(q)
        assert qgamma(alpha, base) == qcalc._qgamma.__wrapped__(alpha, base)[0]

    @pytest.mark.parametrize("nu,q", [(0.25, 0.5), (0.5, 0.25), (1.5, 0.8)])
    def test_phi_bracket_equals_uncached(self, nu, q):
        base = QBase(q)
        cached = qbessel._phi_bracket(nu, base)
        assert cached == qbessel._phi_bracket.__wrapped__(nu, base)
        assert isinstance(cached.samples, tuple)
        assert all(isinstance(s, tuple) for s in cached.samples)

    @pytest.mark.parametrize("nu,window,q", [(0.25, 5, 0.5), (0.75, 8, 0.25)])
    def test_laurent_tables_equal_uncached(self, nu, window, q):
        base = QBase(q)
        tables = qbessel._laurent_tables(nu, window, base)
        assert tables == qbessel._laurent_tables.__wrapped__(nu, window, base)
        assert isinstance(tables, tuple) and len(tables) == 2
        assert all(isinstance(t, tuple) for rows in tables for t in rows)

    def test_base_products_are_built_once_per_base(self, monkeypatch):
        # The log forms of (q;q)_inf and (sqrt(q);q)_inf depend on the base
        # alone; the two-sided sums, their tables and bounds, the type-1
        # tail, q-gamma and the type-3 leading term all read them.  The
        # per-base memo is replaced by one of the same size whose every
        # computation is counted.
        built = []
        compute = qcalc._base_poch.__wrapped__

        def counting(a, base):
            built.append((a, base))
            return compute(a, base)

        memo = functools.lru_cache(maxsize=256)(counting)
        for module in (qcalc, qexp, qbessel):
            if hasattr(module, "_base_poch"):
                monkeypatch.setattr(module, "_base_poch", memo)
        qbessel._laurent_tables.cache_clear()
        qexp._lambda_coeffs.cache_clear()
        qexp._leading_constant.cache_clear()
        base = QBase(0.4375)
        point = lattice_decompose(base.q ** (-4.3), base)
        for _ in range(3):
            lambda_laurent_eval(K1, 0.7, 20, base)
            lambda_laurent_eval(K2, 0.7 + 0.2j, 20, base)
            bessel_type3_repr("I", 0.25, 2.0, 20, base)
            qexp_asymptotic(K3, point, base)
        counts = Counter((a, b) for a, b in built if a in (b.q, math.sqrt(b.q)))
        assert counts[(base.q, base)] == 1 and counts[(math.sqrt(base.q), base)] == 1
        assert set(counts.values()) == {1}

    def test_negative_product_is_raised_on_every_call(self):
        base = QBase(0.5)
        for _ in range(2):
            with pytest.raises(NegativeProduct):
                qbessel._phi_bracket(2.5, base)

    # Family points per selector: the points w of `_family` (or u itself).
    TABLE_POINTS = {"K:3": 1, "I:3": 2, "J:1": 2, "qexp:2": 1}

    @pytest.mark.parametrize("selector", sorted(TABLE_POINTS))
    def test_table_computes_each_leading_constant_once(self, selector, monkeypatch):
        built = []
        theta_ratio, product = qexp._theta_ratio, qexp.lambda_product
        monkeypatch.setattr(qexp, "_theta_ratio", lambda w, b: built.append(w) or theta_ratio(w, b))
        monkeypatch.setattr(qexp, "lambda_product", lambda k, w, b: built.append(w) or product(k, w, b))
        qexp._leading_constant.cache_clear()
        rows = harness._decay_rows(selector, (0.5, 0.25, 0.3), range(-2, -9, -1), QBase(0.5))
        assert len(rows) == 7
        assert len(built) == len(set(built)) == self.TABLE_POINTS[selector]

    @pytest.mark.parametrize("selector", sorted(TABLE_POINTS))
    @pytest.mark.parametrize("q,lam", [(0.5, 0.3), (0.25, 0.7), (0.8, 0.3)])
    def test_table_rows_match_direct_calls(self, selector, q, lam, monkeypatch):
        # Exact values are bit-identical to a direct call at u; leading terms
        # agree with an uncached leading term at the row's own decomposition.
        base, nu = QBase(q), 0.25
        qexp._leading_constant.cache_clear()
        rows = harness._decay_rows(selector, (q, nu, lam), range(-2, -9, -1), base)
        monkeypatch.setattr(qexp, "_leading_constant", qexp._leading_constant.__wrapped__)
        head, _, j = selector.partition(":")
        kind = KindTag.from_j(int(j))
        for n, exact, leading, _, _ in rows:
            u = q ** (n + lam)
            pt = lattice_decompose(u, base)
            if head == "qexp":
                direct, want = qexp_eval(kind, u, base).value, qexp_asymptotic(kind, pt, base)
            else:
                spec = BesselSpec(kind, head, nu)
                if kind.j == 3:
                    direct = bessel_value(spec, u / (1.0 - q * q), base).value
                else:
                    direct = bessel_reference(spec, u, base)
                want = bessel_asymptotic(spec, pt, base)
            assert exact == direct
            assert abs(leading - want.leading) <= 1e-13 * abs(want.leading)

    @pytest.mark.parametrize("j,window,q", [(1, 10, 0.5), (2, 40, 0.25), (3, 16, 0.8)])
    def test_lambda_coeffs_equal_uncached(self, j, window, q):
        kind, base = KindTag.from_j(j), QBase(q)
        rows = qexp._lambda_coeffs(kind, window, base)
        assert rows == qexp._lambda_coeffs.__wrapped__(kind, window, base)
        assert len(rows) == 4 and all(isinstance(t, tuple) for t in rows)

    def test_laurent_vs_product_loop_builds_one_table_per_key(self, monkeypatch):
        # The shape of the suite's laurent-vs-product check: five points per
        # (q, kind), each summed at window 40.  Every memo miss builds one
        # table, so the misses count the tables built.
        keys = []
        cached = qexp._lambda_coeffs
        monkeypatch.setattr(qexp, "_lambda_coeffs", lambda *k: keys.append(k) or cached(*k))
        cached.cache_clear()
        for q in (0.25, 0.5, 0.8):
            for kind in (K1, K2, K3):
                for lam, theta in ((0.2, 0.3), (0.5, -2.0), (0.7, 1.0), (0.4, 3.0), (0.9, -0.5)):
                    lambda_laurent_eval(kind, q**lam * cmath.exp(1j * theta), 40, QBase(q))
        assert cached.cache_info().misses == len(set(keys)) < len(keys)

    def test_leading_constant_error_is_raised_on_every_call(self, monkeypatch):
        # At q = 0.999 Theta(1) / (q;q)_inf is about e^1645, beyond the doubles.
        calls = []
        theta_ratio = qexp._theta_ratio
        monkeypatch.setattr(qexp, "_theta_ratio", lambda w, b: calls.append(w) or theta_ratio(w, b))
        qexp._leading_constant.cache_clear()
        for _ in range(2):
            with pytest.raises(DomainError):
                qexp_asymptotic(K3, LatticePoint(1.0, 0, 0.0, 0.0), QBase(0.999))
        assert len(calls) == 2

    @pytest.mark.parametrize("nu,q", [(0.25, 0.5), (1.0, 0.8), (1.5, 0.25)])
    def test_a_nu_equals_uncached(self, nu, q):
        base = QBase(q)
        assert a_nu(nu, base) == qbessel._a_nu.__wrapped__(nu, base)[0]

    @pytest.mark.parametrize("reader", ["bessel", "type3", "lambda"])
    def test_single_coefficient_loop_shares_tables(self, reader, monkeypatch):
        # Rows l = 0..40 read tables of windows 8, 16, 32 and 64, and every
        # value equals the one a table of exactly l rows holds.
        base, nu = QBase(0.8), 0.75
        if reader == "lambda":
            module, memo = qexp, qexp._lambda_coeffs
            read = lambda l: qexp.lambda_laurent_coeff(K2, l, base)
            exact = lambda l: memo.__wrapped__(K2, l, base)[0][l]
        else:
            module, memo = qbessel, qbessel._laurent_tables
            if reader == "bessel":
                read = lambda l: bessel_laurent_coeff(K1, l, "plus", nu, base)
                exact = lambda l: memo.__wrapped__(nu, l, base)[0][0][l]
            else:
                read = lambda l: type3_coeff(l, "plus", nu, base).c2
                exact = lambda l: memo.__wrapped__(nu, l, base)[1][0][l]
        windows = []
        monkeypatch.setattr(module, memo.__name__, lambda *k: windows.append(k[1]) or memo(*k))
        memo.cache_clear()
        values = [read(l) for l in range(41)]
        assert sorted(set(windows)) == [8, 16, 32, 64]
        assert memo.cache_info().misses == 4
        assert values == [exact(l) for l in range(41)]


class TestOneEvaluationPath:
    """Real arguments are summed in real arithmetic, each distinct series
    of a call is summed once, and the difference equation reads three points."""

    NUS = (0.25, 0.5, 1.5, 0.0, 2.0, -0.25, -0.75, -1.5, -2.3)

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("family", ["J", "I"])
    @pytest.mark.parametrize("q", [0.25, 0.5, 0.8, 0.95])
    def test_real_arguments_match_the_complex_sum(self, j, family, q, monkeypatch):
        # The same sum with the kernel's argument forced complex gives the
        # same repr of value, bound and term count, signed zeros included.
        rng = random.Random(f"{j}{family}{q}")
        kind, base = KindTag.from_j(j), QBase(q)
        zmax = 0.95 / (1.0 - q * q) if j == 1 else 4.0
        radii = [zmax * rng.uniform(0.02, 1.0) for _ in range(4)]
        points = [c * r for r in radii for c in (1.0, -1.0, 1j, -1j)]
        kernel, seen, force = qbessel._qseries, [], []

        def spy(upper, lower, b, x, w):
            seen.append(type(x))
            return kernel(upper, lower, b, complex(x) if force else x, w)

        monkeypatch.setattr(qbessel, "_qseries", spy)

        def results():
            out = []
            for nu in self.NUS:
                for z in points:
                    try:
                        sv = bessel_series(BesselSpec(kind, family, nu), z, base)
                    except ParameterPole:
                        continue
                    out.append((repr(sv.value), repr(sv.err_estimate), sv.terms_used))
            return out

        real = results()
        assert set(seen) == {float}
        force.append(True)
        assert results() == real

    @pytest.mark.parametrize("family", ["Y", "K"])
    @pytest.mark.parametrize("kind", [K1, K2, K3])
    @pytest.mark.parametrize("nu,count", [(0.0, 4), (1.0, 8), (-1.0, 8)])
    def test_integer_order_sums_each_distinct_order_once(self, family, kind, nu, count, monkeypatch):
        terms = {}
        series = qbessel._series

        def spy(k, f, s, *args):
            sv = series(k, f, s, *args)
            terms.setdefault(s, []).append(sv.terms_used)
            return sv

        monkeypatch.setattr(qbessel, "_series", spy)
        sv = bessel_combination(family, kind, nu, 0.3, QBase(0.5))
        assert len(terms) == count and all(len(t) == 1 for t in terms.values())
        # terms_used counts the terms of the distinct series summed.
        assert sv.terms_used == sum(t[0] for t in terms.values())

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("family", ["J", "Y", "I", "K"])
    def test_diffeq_residual_evaluates_three_points(self, j, family, monkeypatch):
        points = []
        value = qbessel.bessel_value
        monkeypatch.setattr(qbessel, "bessel_value", lambda s, w, b: points.append(w) or value(s, w, b))
        z, q = 0.3, BASE.q
        bessel_diffeq_residual(BesselSpec(KindTag.from_j(j), family, 0.25), z, BASE)
        assert points == [z / q, z, q * z]


class TestNonFiniteOrder:
    """A non-finite order raises DomainError naming it, on every path."""

    @pytest.mark.parametrize("nu", [math.inf, -math.inf, math.nan])
    def test_spec_rejects_the_order(self, nu):
        with pytest.raises(DomainError, match=f"nu={nu}"):
            BesselSpec(K2, "J", nu)

    @pytest.mark.parametrize("nu", [math.inf, -math.inf, math.nan])
    def test_coefficient_readers_reject_the_order(self, nu):
        readers = (
            lambda: bessel_laurent_coeff(K1, 2, "plus", nu, BASE),
            lambda: type3_coeff(1, "minus", nu, BASE),
            lambda: bessel_type3_repr("I", nu, 2.0, 5, BASE),
            lambda: qbessel._laurent_tables(nu, 3, BASE),
        )
        for read in readers:
            with pytest.raises(DomainError, match=f"nu={nu}"):
                read()
