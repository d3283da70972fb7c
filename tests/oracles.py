"""Arbitrary-precision oracles that share no code with the library."""

import functools
from fractions import Fraction

import pytest

_ORACLE_BITS = 240


@functools.lru_cache(maxsize=None)
def qpoch_oracle(a, q):
    """(a;q)_inf to 40 digits, by a route that shares nothing with the library.

    a is a double, a complex or an mpmath number, q a double or a dyadic
    Fraction.  The factors
    with |a q^k| > (1 - q) / 1000 are multiplied in 240-bit fixed point on
    Python integers, from the binary values of a and q (mpmath's
    pure-Python products take about 8 times as long for the 15,000 factors
    q = 0.999 needs).  The rest, (x;q)_inf, is Euler's sum
    sum_n (-1)^n q^(n(n-1)/2) x^n / (q;q)_n (Gasper & Rahman (1.3.16)), whose
    term ratio is at most |x| / (1 - q) = 1e-3.
    """
    mpmath = pytest.importorskip("mpmath")
    bits = _ORACLE_BITS
    qf = Fraction(q)
    q_num, q_shift = qf.numerator, qf.denominator.bit_length() - 1
    with mpmath.workprec(2 * bits):
        fr = int(mpmath.ldexp(mpmath.re(a), bits))
        fi = int(mpmath.ldexp(mpmath.im(a), bits))
    stop = int((1 - qf) / 1000 * 2**bits) ** 2
    one = 1 << bits
    pr, pi, scale = one, 0, 0  # the prefix is (pr + i pi) 2^(scale - bits)
    while fr * fr + fi * fi > stop:
        gr = one - fr
        pr, pi = (pr * gr + pi * fi) >> bits, (pi * gr - pr * fi) >> bits
        n = max(abs(pr), abs(pi)).bit_length() - bits
        if n > 0:
            pr, pi, scale = pr >> n, pi >> n, scale + n
        elif n < -8:
            pr, pi, scale = pr << -n, pi << -n, scale + n
        fr, fi = (fr * q_num) >> q_shift, (fi * q_num) >> q_shift
    with mpmath.workdps(40):
        mq = _mpf(mpmath, qf)
        x = mpmath.mpc(mpmath.ldexp(fr, -bits), mpmath.ldexp(fi, -bits))
        s, t, n = mpmath.mpf(0), mpmath.mpf(1), 0
        while n < 2 or abs(t) > mpmath.mpf(10) ** -45 * abs(s):
            s += t
            t *= -x * mq**n / (1 - mq ** (n + 1))
            n += 1
        prefix = mpmath.mpc(mpmath.ldexp(pr, scale - bits), mpmath.ldexp(pi, scale - bits))
        return prefix * s


def _mpf(mpmath, f):
    """A Fraction as an mpmath number at the working precision."""
    return mpmath.mpf(f.numerator) / f.denominator


def qgamma_oracle(alpha, q):
    """Gamma_q(alpha) = (q;q)_inf / (q^alpha;q)_inf (1-q)^(1-alpha) to 40
    digits, q a double or a dyadic Fraction.  It agrees with
    mpmath.qgamma(alpha, q, maxterms=10**6) to 1e-41 at q = 0.99 and 0.998
    in a fraction of its time (mpmath's default raises NoConvergence from
    q = 0.99 on)."""
    mpmath = pytest.importorskip("mpmath")
    qf = Fraction(q)
    with mpmath.workdps(80):
        mq = _mpf(mpmath, qf)
        qa = mq**alpha
        return (qpoch_oracle(mq, qf) / qpoch_oracle(qa, qf) * (1 - mq) ** (1 - alpha)).real


def bessel_series_oracle(delta, family, nu, z, q):
    """The defining series of the J (family "J") or I q^2-Bessel function of
    exponent parameter delta at argument 2(1-q^2)z, to 40 digits:
    z^nu / Gamma_Q(nu+1) sum_n x^n Q^((2-delta) n(n-1)/2) / ((Q;Q)_n (Q^(nu+1);Q)_n),
    Q = q^2 (exact), x = -+(1-Q)^2 z^2 q^((2-delta)(1+nu)), real z > 0."""
    mpmath = pytest.importorskip("mpmath")
    qf = Fraction(q) ** 2
    with mpmath.workdps(40):
        mq = mpmath.mpf(q)
        Q = mq * mq
        sgn = -1 if family == "J" else 1
        x = sgn * (1 - Q) ** 2 * mpmath.mpf(z) ** 2 * mq ** ((2 - delta) * (1 + nu))
        s, t, n = mpmath.mpf(0), mpmath.mpf(1), 0
        while n < 2 or abs(t) > mpmath.mpf(10) ** -45 * abs(s):
            s += t
            t *= x * Q ** ((2 - delta) * n) / ((1 - Q ** (n + 1)) * (1 - Q ** (nu + 1 + n)))
            n += 1
        return mpmath.mpf(z) ** nu / qgamma_oracle(nu + 1, qf) * s


def bessel_oracle(delta, family, nu, z, q):
    """J, Y, I or K of exponent parameter delta at argument 2(1-q^2)z, real
    z > 0, to 40 digits: J and I by their defining series
    (`bessel_series_oracle`), Y and K at a non-integer order by their
    defining combinations, with P = q^(-nu^2+nu) Gamma_Q(nu) Gamma_Q(1-nu),
    Q = q^2 (exact):
      Y = P (cos(nu pi) J_nu - J_-nu) / pi,   K = P (I_-nu - I_nu) / 2."""
    mpmath = pytest.importorskip("mpmath")
    if family in ("J", "I"):
        return bessel_series_oracle(delta, family, nu, z, q)
    src = "J" if family == "Y" else "I"
    qf = Fraction(q) ** 2
    with mpmath.workdps(40):
        p = mpmath.mpf(q) ** (-nu * nu + nu) * qgamma_oracle(nu, qf) * qgamma_oracle(1 - nu, qf)
        plus = bessel_series_oracle(delta, src, nu, z, q)
        minus = bessel_series_oracle(delta, src, -nu, z, q)
        if family == "Y":
            return p * (mpmath.cos(nu * mpmath.pi) * plus - minus) / mpmath.pi
        return p * (minus - plus) / 2


def qseries_oracle(upper, lower, q, z, weight):
    """The sum of the package's summation kernel (`qcalc._qseries`),
    sum_n prod (a_i;q)_n / [(q;q)_n prod (b_j;q)_n] q^(weight n(n-1)/2) z^n,
    to 40 digits from the binary values of every input, as an mpmath
    number.  The terms are complex 240-bit fixed point on Python integers,
    as in `qpoch_oracle` (mpmath's own arithmetic takes about 15 times as
    long for the 1,000 terms a 2phi1 needs at q = z = 0.9); q^weight is
    formed once by mpmath.  Each step adds a few units of 2^-240 to a
    term.  It ends at an exactly vanishing term, or once a term is below
    2^-150 of the largest partial sum."""
    mpmath = pytest.importorskip("mpmath")
    bits = _ORACLE_BITS
    one = 1 << bits

    def fix(x):
        with mpmath.workprec(2 * bits):
            x = mpmath.mpc(x)
            return int(mpmath.ldexp(x.real, bits)), int(mpmath.ldexp(x.imag, bits))

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1]) >> bits, (x[0] * y[1] + x[1] * y[0]) >> bits

    def div(x, y):
        d = y[0] * y[0] + y[1] * y[1]
        return (
            ((x[0] * y[0] + x[1] * y[1]) << bits) // d,
            ((x[1] * y[0] - x[0] * y[1]) << bits) // d,
        )

    with mpmath.workprec(2 * bits):
        qw = fix(mpmath.mpf(q) ** weight)
    qf, zf = fix(q)[0], fix(z)
    up, lo = [fix(a) for a in upper], [fix(b) for b in lower]
    s, t, qn, g, big, n = (0, 0), (one, 0), one, (one, 0), one, 0
    while t != (0, 0) and (n < 2 or max(map(abs, t)) << 150 > big):
        s = s[0] + t[0], s[1] + t[1]
        big = max(big, abs(s[0]), abs(s[1]))
        num, den = mul(g, zf), (one - (qn * qf >> bits), 0)
        for a in up:
            num = mul(num, (one - (a[0] * qn >> bits), -(a[1] * qn >> bits)))
        for b in lo:
            den = mul(den, (one - (b[0] * qn >> bits), -(b[1] * qn >> bits)))
        t = div(mul(t, num), den)
        qn, g, n = qn * qf >> bits, mul(g, qw), n + 1
    with mpmath.workprec(2 * bits):
        return mpmath.mpc(mpmath.ldexp(s[0], -bits), mpmath.ldexp(s[1], -bits))


def pole_sum_oracle(w, e, q):
    """S(w, e) = sum_(m>=0) (-1)^m q^(m(m+1)/2 + m e) / (1 - q^m w), the
    Gaussian sum of the type-1 Lambda's pole expansion, to 50 digits from
    the binary values of w and q, as an mpmath number.  Its terms fall by
    q^(m+e) each; the sum ends once a term is below 1e-55 of it."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        mq, mw = mpmath.mpf(q), mpmath.mpc(w)
        small = mpmath.mpf(10) ** -55
        # g = (-1)^m q^(m(m+1)/2 + m e), x = q^m
        s, g, x, m = mpmath.mpc(0), mpmath.mpf(1), mpmath.mpf(1), 0
        while True:
            t = g / (1 - x * mw)
            s += t
            if abs(t) < small * abs(s):
                return s
            m += 1
            g, x = -g * mq ** (m + e), x * mq
