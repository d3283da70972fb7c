"""Two-sided coefficient tables against a 40-digit mpmath oracle.

Every table is one Cauchy product of two precomputed sequences, the
exponential's E_k = q^(w k(k-1)/2) / (q;q)_k and Phi's
F_m = (q^(nu+1/2);q)_m (q^(-nu+1/2);q)_m / (q^2;q^2)_m.  The oracle sums
the same products in 40-digit arithmetic far past double precision and
checks each double coefficient against the bound the table routine
derives for it.  The Lambda_1 and Lambda_2 rows come from product
identities instead (`qexp._lambda_coeffs`), and the same Cauchy-product
oracle, which shares nothing with them, checks them too.  The type-3
representation is checked the same way, against the geometric-mean series
summed in 30-digit arithmetic.
"""

import cmath
import math
import random

import pytest

from qfunc import qbessel, qexp
from qfunc.errors import DomainError, NegativeProduct, NonConvergence
from qfunc.qbessel import bessel_type3_repr
from qfunc.qcalc import QBase
from qfunc.qexp import KindTag

EPS = 2.0**-53
WINDOW = 160
TOLS = (1e-6, 1e-12)


def _oracle_sequences(mpmath, q, w, nu, n):
    """E_k (k < n) for weight w, and F_m (m < n) for order nu, in mpmath."""
    one = mpmath.mpf(1)
    e, p, g, step = [], one, one, one  # g = q^(w k(k-1)/2), step = q^(w k)
    qw = q**w
    for k in range(n):
        e.append(g / p)
        p *= 1 - q ** (k + 1)
        g *= step
        step *= qw
    if nu is None:
        return e, None
    a, b = q ** (nu + one / 2), q ** (one / 2 - nu)
    f, p = [], one
    for m in range(n):
        f.append(p)
        x = q**m
        p *= (1 - a * x) * (1 - b * x) / (1 - q * q * x * x)
    return e, f


def _oracle_terms(q, w):
    """Terms past which every oracle tail is below 1e-45 of its sum."""
    lq = -math.log(q)
    if w == 0:
        return math.ceil(60 * math.log(10) / lq)
    return math.ceil(math.sqrt(2 * 60 * math.log(10) / (w * lq))) + 20


def _sample_ls(rng):
    return sorted({0, 1, 2, WINDOW} | set(rng.sample(range(3, WINDOW), 7)))


def _oracle_grid():
    rng = random.Random(20061008)
    cases = []
    for q in (0.2, 0.5, 0.8, 0.9):
        for j in (1, 2, 3):
            cases.append((q, j, None, _sample_ls(rng)))
        for nu in (0.1, 0.25, 0.75, 0.95):
            for j in (1, 2):
                cases.append((q, j, nu, _sample_ls(rng)))
    # For the type-1 closed-form tail: every order at q = 0.95, whose
    # descending rows are the smallest against e^log_bound, and at every q
    # the orders where F changes sign before index 1 or 2 (1.2, 2.3), F_inf
    # is negative (1.2) and Phi terminates (3/2).
    for q in (0.2, 0.5, 0.8, 0.9, 0.95):
        if q == 0.95:
            cases += [(q, j, None, _sample_ls(rng)) for j in (1, 2, 3)]
        for nu in (0.1, 0.25, 0.75, 0.95, 1.2, 1.5, 2.3) if q == 0.95 else (1.2, 1.5, 2.3):
            for j in (1, 2):
                cases.append((q, j, nu, _sample_ls(rng)))
    # The Lambda_1 and Lambda_2 identities where (q;q)_inf is about e^-165.
    cases += [(0.99, j, None, _sample_ls(rng)) for j in (1, 2)]
    return cases


def test_tables_are_within_their_bound_of_the_oracle():
    mpmath = pytest.importorskip("mpmath")
    bad = []
    with mpmath.workdps(40):
        for q, j, nu, ls in _oracle_grid():
            kind = KindTag.from_j(j)
            w = (2 - kind.delta) / 2
            m = _oracle_terms(q, w)
            qm = mpmath.mpf(q)
            e, f = _oracle_sequences(mpmath, qm, w, None if nu is None else mpmath.mpf(nu), WINDOW + m)
            qpow = [qm**i for i in range(m)]
            eq = [x * y for x, y in zip(e, qpow)]
            fq = eq if f is None else [x * y for x, y in zip(f, qpow)]
            exact = {l: mpmath.fdot(e[l : l + m], fq) for l in ls}
            if f is not None:
                exact.update({-l: qm**l * mpmath.fdot(f[l : l + m], eq) for l in ls if l})
            for tol in TOLS:
                base = QBase(q, tol=tol)
                if f is None:
                    a, _, bounds, _ = qexp._lambda_coeffs(kind, WINDOW, base)
                    got = {l: (a[l], bounds[l]) for l in ls}
                else:
                    plus, minus, bp, bm = qbessel._laurent_tables(nu, WINDOW, base)[j - 1]
                    got = {l: (plus[l], bp[l]) for l in ls}
                    got.update({-l: (minus[l - 1], bm[l - 1]) for l in ls if l})
                for l, (value, bound) in got.items():
                    err = abs(mpmath.mpf(value) - exact[l])
                    if not err <= bound:
                        bad.append((q, j, nu, tol, l, float(err), bound))
    assert bad == [], bad


def test_type1_tables_sum_two_thirds_of_the_terms(monkeypatch):
    # The second-order type-1 tail (`qexp._cauchy_terms`) needs M with
    # e^log_bound k q^(3M) <= eps, k = K(q^M) / (1 - q^3), where the
    # first-order tail summed 263 terms (k q^(2M) <= ...) and the
    # truncation alone 500.  At q = 0.9, k is 706 (Phi, nu = 1/4) in the
    # limit, and the first count tried holds.
    counts = []
    spy = lambda *a, t=qbessel._cauchy_table: counts.append(a[3]) or t(*a)
    monkeypatch.setattr(qbessel, "_cauchy_table", spy)
    qbessel._laurent_tables.cache_clear()
    qbessel._laurent_tables(0.25, 20, QBase(0.9))
    assert counts[0] == 180


def test_lambda_identity_rows_call_no_cauchy_product(monkeypatch):
    # Lambda_1 and Lambda_2 rows come from their product identities; only
    # Lambda_3 is a coefficient table.
    calls = []
    for name in ("_cauchy_table", "_cauchy_terms"):
        real = getattr(qexp, name)
        monkeypatch.setattr(qexp, name, lambda *a, n=name, r=real: calls.append(n) or r(*a))
    qexp._lambda_coeffs.cache_clear()
    for j in (1, 2):
        qexp._lambda_coeffs(KindTag.from_j(j), 40, QBase(0.9))
    assert calls == []
    qexp._lambda_coeffs(KindTag.from_j(3), 40, QBase(0.9))
    assert sorted(calls) == ["_cauchy_table", "_cauchy_terms"]


def test_lambda1_rows_sum_one_row_directly(monkeypatch):
    # S_l = 1 - q^(l+1) S_(l+1) gives every Lambda_1 row below the top one;
    # a directly summed row sizes its Gaussian sum with one `_least_n`.
    sized = []
    least_n = qexp._least_n
    monkeypatch.setattr(qexp, "_least_n", lambda *a: sized.append(a) or least_n(*a))
    for q in (0.3, 0.55, 0.85):
        qexp._lambda_coeffs.cache_clear()
        sized.clear()
        qexp._lambda_coeffs(KindTag.from_j(1), 40, QBase(q))
        assert len(sized) == 1, q


@pytest.mark.parametrize("q, m", [(0.5, 11), (0.85, 26), (0.95, 62)])
def test_lambda3_table_counts_the_gaussian_of_both_sequences(q, m, monkeypatch):
    # F = E carries its own Gaussian, so the terms per row fall by a quarter
    # from the 14, 36 and 87 that E's Gaussian alone gives.
    counts = []
    spy = lambda *a, t=qexp._cauchy_table: counts.append(a[3]) or t(*a)
    monkeypatch.setattr(qexp, "_cauchy_table", spy)
    qexp._lambda_coeffs.cache_clear()
    qexp._lambda_coeffs(KindTag.from_j(3), 20, QBase(q))
    assert counts == [m]


def test_table_rows_equal_single_coefficients():
    base = QBase(0.8)
    plus, minus, _, _ = qbessel._laurent_tables(0.75, 12, base)[0]
    k1 = KindTag.from_j(1)
    coeff = lambda l, sign: qbessel.bessel_laurent_coeff(k1, l, sign, 0.75, base)
    assert tuple(coeff(l, "plus") for l in range(13)) == plus
    assert tuple(coeff(l, "minus") for l in range(1, 13)) == minus
    table = qexp.lambda_laurent_table(k1, 12, base).coeffs
    assert all(qexp.lambda_laurent_coeff(k1, l, base) == table[l] for l in range(-12, 13))


def _type3_oracle(mpmath, family, nu, u, q, window):
    """The family map of the geometric-mean series sum_l sqrt(c1_l c2_l) w^l."""
    qm, num, um = mpmath.mpf(q), mpmath.mpf(nu), mpmath.mpf(u)
    m = _oracle_terms(q, 0)
    e1, f = _oracle_sequences(mpmath, qm, 0, num, window + m)
    e2, _ = _oracle_sequences(mpmath, qm, 1, None, window + m)
    qpow = [qm**i for i in range(m)]
    fq = [x * y for x, y in zip(f, qpow)]
    c = {}
    for l in range(window + 1):
        c[l] = mpmath.sqrt(mpmath.fdot(e1[l : l + m], fq) * mpmath.fdot(e2[l : l + m], fq))
        if l:
            c1 = mpmath.fdot(f[l : l + m], [x * y for x, y in zip(e1, qpow)])
            c2 = mpmath.fdot(f[l : l + m], [x * y for x, y in zip(e2, qpow)])
            c[-l] = qm**l * mpmath.sqrt(c1 * c2)
    series = lambda w: mpmath.fsum(cl * w**l for l, cl in c.items())
    q2 = qm * qm
    an = mpmath.sqrt(
        qm ** (0.5 - num) * (1 - q2)
        / (2 * mpmath.qgamma(num, q2) * mpmath.qgamma(1 - num, q2) * mpmath.sin(num * mpmath.pi))
    )
    r = mpmath.sqrt(2 * um)
    k = qm ** (0.5 - num * num) * (1 - q2) / (2 * an * r)
    i = mpmath.mpc(0, 1)
    alpha = mpmath.pi / 4 + num * mpmath.pi / 2
    if family == "I":
        return an / r * (series(um) + i * mpmath.exp(i * num * mpmath.pi) * series(-um))
    if family == "K":
        return k * series(-um)
    if family == "J":
        return an / r * (mpmath.exp(-i * alpha) * series(i * um) + mpmath.exp(i * alpha) * series(-i * um))
    return k / mpmath.pi * (
        -i * mpmath.exp(-i * alpha) * series(i * um) + i * mpmath.exp(i * alpha) * series(-i * um)
    )


@pytest.mark.parametrize(
    "family,q,nu,u",
    [
        ("K", 0.716, 0.6, 3.42),
        ("K", 0.756, 0.3, 1.38),
        ("Y", 0.792, 0.7, 3.80),
        ("J", 0.607, 0.595, 3.70),
        ("I", 0.355, 0.383, 2.58),
    ],
)
def test_type3_repr_bound_counts_coefficient_rounding(family, q, nu, u):
    # Before the bound counted the coefficients' rounding it reported
    # 1e-30 where the error was 6e-11.  The prefactor's own rounding, a
    # few eps of the value, stays outside the bound.
    mpmath = pytest.importorskip("mpmath")
    sv = bessel_type3_repr(family, nu, u, 20, QBase(q))
    window = (sv.terms_used - 1) // 2 + 20
    with mpmath.workdps(30):
        exact = _type3_oracle(mpmath, family, nu, u, q, window)
        err = float(abs(sv.value - exact))
        assert err <= sv.err_estimate + 16 * EPS * float(abs(exact))


def _lambda_oracle(mpmath, j, u, q):
    """Lambda_j(u) = e(u) e(q/u) for j = 2, 3 and complex u, summed in mpmath."""
    qm, um = mpmath.mpf(q), mpmath.mpc(u)
    if j == 2:
        return mpmath.qp(-um, qm, maxterms=10**6) * mpmath.qp(-qm / um, qm, maxterms=10**6)

    def e3(x):
        s, t, k = mpmath.mpf(0), mpmath.mpf(1), 0  # t = q^(k(k-1)/4) x^k / (q;q)_k
        while k < 2 or abs(t) > mpmath.mpf(10) ** -40 * abs(s):
            s += t
            t *= qm ** (mpmath.mpf(k) / 2) * x / (1 - qm ** (k + 1))
            k += 1
        return s

    return e3(um) * e3(qm / um)


@pytest.mark.parametrize(
    "what,u,window",
    [
        ("I", 1000.0, 20),
        ("I", 1000.0, 80),
        ("I", 1000.0, 160),
        ("I", 1000.0, 300),
        (2, 1e10, 40),
        (2, 1e10, 100),
        (2, 1e10, 300),
        (3, 50.0, 40),
        (3, 50.0, 200),
    ],
)
def test_bound_stays_small_past_the_derived_window(what, u, window):
    # Rows whose coefficient underflowed keep a bound floor near 2^-1074
    # (its square root for type 3); multiplied by |w|^l it used to reach
    # 4.7e77 for I at window 80, 5.3e18 for Lambda_3(50) at window 200 and
    # overflow (DomainError) at the larger windows, although every value
    # is a double.  q = 0.5, and nu = 1/4 for I.
    mpmath = pytest.importorskip("mpmath")
    q = 0.5
    if what == "I":
        sv = bessel_type3_repr("I", 0.25, u, window, QBase(q))
        with mpmath.workdps(30):
            exact = _type3_oracle(mpmath, "I", 0.25, u, q, 80)
    else:
        sv = qexp.lambda_laurent_eval(KindTag.from_j(what), u, window, QBase(q))
        with mpmath.workdps(30):
            exact = _lambda_oracle(mpmath, what, u, q)
    err = float(abs(sv.value - exact))
    assert err <= sv.err_estimate + 16 * EPS * float(abs(exact))
    assert sv.err_estimate <= 1e-11 * float(abs(exact))


def test_type3_repr_bound_does_not_grow_with_the_window():
    # The caller's window only sizes the table: rows past the derived k
    # are covered by the tail bound and not summed, so neither I:3's value
    # nor its bound at u = 1000 depends on a window above k.
    a, b = (bessel_type3_repr("I", 0.25, 1000.0, w, QBase(0.5)) for w in (80, 300))
    assert (a.value, a.err_estimate) == (b.value, b.err_estimate)


def _abs_rows_past(rows, au, k):
    """sum_(l > k) |c_l| au^l over both sides of a table, in logs."""
    plus, minus = rows[:2]
    la = math.log(au)
    terms = [(c, l) for l, c in enumerate(plus)] + [(c, -l) for l, c in enumerate(minus, 1)]
    return sum(math.exp(math.log(abs(c)) + l * la) for c, l in terms if c and abs(l) > k)


def test_rows_past_k_are_within_the_tail_bound(monkeypatch):
    # `qexp._laurent_sum` sums rows l <= k only; the tail bound of
    # `qexp._laurent_window` from k + 1 on must cover the table's rows
    # k < l <= L as well as every row past L, and the value must stay
    # within its bound of a 40-digit oracle.
    mpmath = pytest.importorskip("mpmath")
    seen = []
    window_rule = qexp._laurent_window

    def spy(ws, log_c, window, au, base):
        seen.append((au, window_rule(ws, log_c, window, au, base)))
        return seen[-1][1]

    monkeypatch.setattr(qexp, "_laurent_window", spy)
    monkeypatch.setattr(qbessel, "_laurent_window", spy)
    rng = random.Random(20)
    cases, past_k = 0, 0
    for i in range(76):
        seen.clear()
        if i < 60:
            q, j, window = rng.uniform(0.2, 0.9), rng.choice((2, 3)), rng.randint(3, 200)
            u = cmath.rect(10 ** rng.uniform(-3, 4), rng.uniform(-math.pi, math.pi))
            sv = qexp.lambda_laurent_eval(KindTag.from_j(j), u, window, QBase(q))
            au, (L, k, tail) = seen[-1]
            rows = qexp._lambda_coeffs(KindTag.from_j(j), L, QBase(q))
            with mpmath.workdps(40):
                exact = _lambda_oracle(mpmath, j, u, q)
        else:
            q, nu, family = rng.uniform(0.2, 0.7), rng.uniform(-2, 2), rng.choice("IJKY")
            u = q * 10 ** rng.uniform(0.3, 3)
            try:
                sv = bessel_type3_repr(family, nu, u, 20, QBase(q))
            except NegativeProduct:
                continue
            au, (L, k, tail) = seen[-1]
            rows = qbessel._type3_tables(nu, L, QBase(q))
            with mpmath.workdps(40):
                exact = _type3_oracle(mpmath, family, nu, u, q, L + 20)
        rest = _abs_rows_past(rows, au, k)
        assert rest <= tail, (i, q, u, L, k, rest, tail)
        assert float(abs(sv.value - exact)) <= sv.err_estimate, (i, q, u)
        cases, past_k = cases + 1, past_k + (k < L)
    assert cases >= 70 and past_k >= 40, (cases, past_k)


@pytest.mark.parametrize("q,max_terms", [(0.997, 50000), (0.9, 50)])
def test_table_nonconvergence_names_a_lower_bound(q, max_terms):
    # The type-1 Bessel table (nu = 1/4) at q = 0.997 needs at least
    # 66,282 terms, the first count tried; at q = 0.9 that first count,
    # 180, already holds.
    least = {0.997: 66282, 0.9: 180}[q]
    with pytest.raises(NonConvergence) as info:
        qbessel._laurent_tables(0.25, 20, QBase(q, max_terms=max_terms))
    assert str(info.value) == (
        f"coefficient table needs more than max_terms={max_terms} terms (at least {least})"
    )


def test_lambda1_beyond_the_doubles_is_a_domain_error():
    # (q;q)_inf^-2 is about e^650 at q = 0.995 and e^1087 at q = 0.997.
    qexp._lambda_coeffs.cache_clear()
    assert math.isfinite(qexp._lambda_coeffs(KindTag.from_j(1), 40, QBase(0.995))[0][0])
    with pytest.raises(DomainError):
        qexp._lambda_coeffs(KindTag.from_j(1), 40, QBase(0.997))
    with pytest.raises(DomainError):
        qexp.lambda_laurent_eval(KindTag.from_j(1), 0.998, 20, QBase(0.997))


@pytest.mark.parametrize(
    "j,u,most",
    [(2, 0.7, 3.5e-12), (2, 0.9, 3.5e-12), (2, 2.5, 3.5e-12), (3, 0.7, 2.1e-10), (3, 0.95, 1.5e-4)],
)
def test_two_sided_bounds_stay_informative_near_q_one(j, u, most):
    # At q = 0.99 and window 20 the a-priori row bound C = exp(x / ((1 -
    # q)(1 - x))) / (q;q)_inf gave relative bounds of 5.9e7 and 1.6e18
    # (Lambda_2 at 0.7 and 0.9), 2.2e-4 (Lambda_2 at 2.5), 287 and 8.1e25
    # (Lambda_3 at 0.7 and 0.95); the exact C of Lambda_2 and the
    # evaluated e3 of Lambda_3 keep the true error, 1e-14 to 4e-14 and
    # below 1e-15, within a bound of at most `most` of the value.
    mpmath = pytest.importorskip("mpmath")
    sv = qexp.lambda_laurent_eval(KindTag.from_j(j), u, 20, QBase(0.99))
    with mpmath.workdps(40):
        exact = _lambda_oracle(mpmath, j, u, 0.99)
        err = float(abs(sv.value - exact))
    assert err <= sv.err_estimate <= most * float(abs(exact))


def test_tables_build_at_orders_within_rounding_of_a_half_integer():
    # nu = c + d 2^-52 max(1, |c|) puts a factor of F within rounding of 0
    # at some orders; the growth bound of F then took the log of a ratio
    # that was exactly 0 and raised a bare ValueError (58 of these 3,888
    # tables, e.g. c = 1/2, d = 1 at q = 0.7).  Such a ratio adds no growth.
    raised = []
    for q in (0.1, 0.25, 0.5, 0.7, 0.8, 0.95):
        base = QBase(q)
        for c in (0.5, 1.5, 2.5, 3.5, -0.5, -1.5, -2.5, -3.5):
            for d in range(-40, 41):
                nu = c + d * 2.0**-52 * max(1.0, abs(c))
                try:
                    rows = qbessel._laurent_tables(nu, 8, base)
                except Exception as exc:  # noqa: BLE001 - any class is a failure here
                    raised.append((q, nu, type(exc).__name__))
                    continue
                assert all(map(math.isfinite, rows[0][2] + rows[1][2])), (q, nu)
    assert raised == []


def _exact_exponent_rows(mpmath, qm, nu, e_seqs, window, m):
    """Rows |l| <= window of the Bessel tables at the float order nu, for
    each exponential sequence in e_seqs, summed over m terms.  F's factors
    1 - q^e take q^e with its exponent e = nu + 1/2 + i or 1/2 - nu + i
    formed exactly, one pow each for i < 4, the only factors whose exponent
    can lie within 1/2 of 0 on the grid below; a product by q after that.
    So a factor is exactly 0 where its exponent is."""
    f, p = [], mpmath.mpf(1)
    half = mpmath.mpf(1) / 2
    for i in range(window + m):
        f.append(p)
        if i < 4:
            xa, xb = qm ** (nu + half + i), qm ** (half - nu + i)
        else:
            xa, xb = xa * qm, xb * qm
        p *= (1 - xa) * (1 - xb) / (1 - qm ** (2 * i + 2))
    qpow = [qm**i for i in range(m)]
    fq = [x * y for x, y in zip(f, qpow)]
    out = []
    for e in e_seqs:
        eq = [x * y for x, y in zip(e, qpow)]
        rows = {l: mpmath.fdot(e[l : l + m], fq) for l in range(window + 1)}
        rows.update({-l: qm**l * mpmath.fdot(f[l : l + m], eq) for l in range(1, window + 1)})
        out.append(rows)
    return out


def test_tables_near_a_half_integer_are_within_their_bound_of_the_oracle():
    # nu = c + d 2^-52 max(1, |c|) puts a factor of F within rounding of 0.
    # Formed as 1 - q^e, that factor read exactly 0 where it is a few 1e-17
    # (260 of these 7,072 rows under-reported, e.g. q = 0.7, nu = 1/2 + 1
    # ulp, type-1 row 1: 0 +- 4.8e-321 against -6.8e-17), and its
    # conditioning 1 / |1 - q^e| made other bounds larger than the rows.
    # Formed as -expm1(e ln q) with e exact, every row is within its bound,
    # and the bound is at most 1e-10 max(1, |c|) of max(1, |row|): rows of
    # a few thousand at q = 0.9 carry relative bounds below 1e-12, at exact
    # half-integers too.
    mpmath = pytest.importorskip("mpmath")
    window, bad, loose = 8, [], []
    with mpmath.workdps(40):
        for q in (0.25, 0.5, 0.7, 0.9):
            qm = mpmath.mpf(q)
            m = math.ceil(32 * math.log(10) / -math.log(q))
            e_seqs = [_oracle_sequences(mpmath, qm, w, None, window + m)[0] for w in (0, 1)]
            for c in (0.5, 1.5, 2.5, -1.5):
                for d in range(-6, 7):
                    nu = c + d * 2.0**-52 * max(1.0, abs(c))
                    exact = _exact_exponent_rows(mpmath, qm, mpmath.mpf(nu), e_seqs, window, m)
                    for j, (plus, minus, bp, bm) in enumerate(qbessel._laurent_tables(nu, window, QBase(q))):
                        got = {l: (plus[l], bp[l]) for l in range(window + 1)}
                        got.update({-l: (minus[l - 1], bm[l - 1]) for l in range(1, window + 1)})
                        for l, (value, bound) in got.items():
                            if not abs(mpmath.mpf(value) - exact[j][l]) <= bound:
                                bad.append((q, nu, j + 1, l, value, bound))
                            if bound > 1e-10 * max(1.0, abs(c)) * max(1.0, abs(value)):
                                loose.append((q, nu, j + 1, l, value, bound))
    assert bad == [] and loose == [], (bad[:5], loose[:5])


def _type1_cases():
    """The oracle grid's type-1 Bessel cases: (q, nu, rows)."""
    return [(q, nu, ls[:3] + ls[-2:]) for q, j, nu, ls in _oracle_grid() if j == 1 and nu is not None]


def test_type1_tail_remainder_is_within_its_second_order_bound():
    # Each type-1 row's tail past M terms is C1 + C2 + R with |R| <=
    # E_inf |F_inf| k q^(3M) (`qexp._cauchy_terms`).  The tail is summed
    # here in 40 digits, for sampled rows on both sides of the type-1
    # Bessel tables; C1 alone leaves more than that bound on some rows, so
    # the check sees C2.
    mpmath = pytest.importorskip("mpmath")
    bad, first_order_over = [], 0
    with mpmath.workdps(40):
        for q, nu, ls in _type1_cases():
            base = QBase(q)
            qm = mpmath.mpf(q)
            log_b = qbessel._phi_bound(nu, base)[0]
            ab = (q ** (nu + 0.5), q ** (0.5 - nu))
            a, b = qm ** (mpmath.mpf(nu) + 0.5), qm ** (0.5 - mpmath.mpf(nu))
            m = qexp._cauchy_terms(0.0, log_b, base, ab)
            n = m + _oracle_terms(q, 0)
            e, _ = _oracle_sequences(mpmath, qm, 0, None, max(ls) + n)
            e_inf = 1 / mpmath.qp(qm, qm)
            # F in exponent form, so that a factor 1 - q^0 is exactly 0
            # where Phi terminates (nu = 3/2), and F_inf from F's last entry
            # by the same identity as `_laurent_tables`.
            f, x, num = [mpmath.mpf(1)], mpmath.mpf(1), mpmath.mpf(nu)
            for i in range(max(ls) + n - 1):
                x *= (1 - qm ** (num + 0.5 + i)) * (1 - qm ** (0.5 - num + i)) / (1 - qm ** (2 * i + 2))
                f.append(x)
            k = len(f) - 1
            f_inf = f[k] * mpmath.qp(qm ** (num + 0.5 + k), qm) * mpmath.qp(qm ** (0.5 - num + k), qm)
            f_inf /= mpmath.qp(qm ** (2 * k + 2), qm * qm)
            g1 = (a + b) / (1 - qm)
            scale = e_inf * f_inf * qm ** (2 * m) / (1 - qm * qm)
            c1 = e_inf * f_inf * qm**m / (1 - qm)
            bound = float(e_inf * abs(f_inf)) * math.exp(qexp._tail_log_k(m, ab, q)) * q ** (3 * m)
            qpow = [qm**i for i in range(m, n)]
            for l in ls:
                asc = mpmath.fdot(e[l + m : l + n], [x * y for x, y in zip(f[m:n], qpow)])
                rows = [(asc, g1 - qm ** (l + 1) / (1 - qm))]
                if l:
                    desc = mpmath.fdot(f[l + m : l + n], [x * y for x, y in zip(e[m:n], qpow)])
                    rows.append((desc, g1 * qm**l - qm / (1 - qm)))
                for tail, d in rows:
                    first_order_over += float(abs(tail - c1)) > bound
                    r = float(abs(tail - c1 - scale * d))
                    if not r <= bound:
                        bad.append((q, nu, l, m, r, bound))
    assert bad == [], bad
    assert first_order_over > 0
