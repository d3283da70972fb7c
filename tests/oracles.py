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


def qseries_oracle(upper, lower, q, z, weight):
    """The sum of the package's summation kernel (`qcalc._qseries`),
    sum_n prod (a_i;q)_n / [(q;q)_n prod (b_j;q)_n] q^(weight n(n-1)/2) z^n,
    to 40 digits from the binary values of every input.  It ends at an
    exactly vanishing term, or once a term is below 1e-45 of the largest
    partial sum."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        mq, mz = mpmath.mpf(q), mpmath.mpc(z)
        up = [mpmath.mpc(a) for a in upper]
        lo = [mpmath.mpc(b) for b in lower]
        s, t, n, big = mpmath.mpc(0), mpmath.mpc(1), 0, mpmath.mpf(1)
        while t != 0 and (n < 2 or abs(t) > mpmath.mpf(10) ** -45 * big):
            s += t
            big = max(big, abs(s))
            qn = mq**n
            r = mq ** (weight * n) / (1 - qn * mq)
            for a in up:
                r *= 1 - a * qn
            for b in lo:
                r /= 1 - b * qn
            t *= r * mz
            n += 1
        return complex(s)
