"""Foundational q-calculus primitives.

Pochhammer symbols, the q-gamma function, basic hypergeometric series,
the q-difference operator, and multiplicative-lattice decomposition of
complex arguments.  Everything downstream is built on these.

Every term-ratio series in the package is one call of `_qseries(upper,
lower, base, z, weight)`, the sum of prod (a_i;q)_n / [(q;q)_n prod (b_j;q)_n]
q^(weight n(n-1)/2) z^n (Gasper & Rahman, Basic Hypergeometric Series,
ch. 1), with d = delta = 2, 0, 1 for types 1, 2, 3:

  caller                      upper           lower              weight   z
  basic_hyper (rPhis)         a_i             b_j                s-r+1    (-1)^(s-r+1) z
  qexp_eval type 3            -               -                  1/2      u
  _series (base q^2)          -               q^(2nu+2)          2-d      -+(1-q^2)^2 z^2 q^((2-d)(1+nu))
  _bessel_i_base_q            -               q^(l+1)            2-d      q^((2-d)(l+1)/2 + d/2)

The `_series` argument stays real when it is real: at real and at
purely imaginary z its imaginary part is exactly 0, and the kernel is
handed a float, so the sum runs in real arithmetic with the same roundings.

The coefficients c_n depend on the parameters and q, not on z, so the
kernel multiplies memoized coefficients by powers of z: it forms
t_(n+1) = t_n r_n z from the term ratios r_n = c_(n+1) / c_n held in one
bounded memo cell per (upper, lower, q, weight) (`_series_memo`), and
computes a ratio the cell lacks in the same loop.  It stops on a derived
bound: once |t_n| < tol |s|, a closed-form R >= sup_(k>=n) |r_k z| from
the parameters bounds the tail past t_n by |t_n| R / (1 - R), and the sum
ends when that is below tol |s| too; a first-order rounding bound is added.

The two-sided sums are one Horner evaluator (`qexp._laurent_sum`), whose
bounded value carries the window's tail, over coefficients summed to eps
whatever tol is: closed forms from product
identities for Lambda_1 and Lambda_2 (`qexp._lambda_coeffs`), dot
products of two precomputed sequences (`qexp._cauchy_table`) for the
rest; their window and tail come from the coefficients' a-priori bound
(`qexp._laurent_window`), not from the terms.  Lambda_1's own two-sided
value is its pole expansion summed whole.  Its Gaussian sums, for that
value and for a table's top row, are one routine (`qexp._pole_sum`),
not kernel calls: each term is one pow of q, and the term count comes
from one quadratic (`qexp._least_n`).

A bound is composed from the bounds of its parts by one product rule
(`_times`) and one sum rule (`_plus`) on bounded values, a `SeriesValue`
or the rules' own `_Ball` of the same fields; a constant enters them as
a bounded value that counts its own rounding (`_const`), q-gamma with
the error of its log forms (`_qgamma`).  The routines that sum in float
arithmetic (`_qseries`, `_log_poch`, `qexp._pole_sum`, `qexp._cauchy_table`,
`qexp._laurent_sum`) return a bound derived in their docstrings, and the
rules compose everything above them; the one radius still written by hand
is `qexp.qexp_eval`'s type-1 reciprocal.

An infinite product (a;q)_inf is the one other loop, and its native form
is its logarithm (`_log_poch`), O(sqrt(ln(1/eps) / ln(1/q))) work for
|a| <= 1: 52 terms for (0.5; 0.999)_inf, against 33,829 factors.
`qpoch_infinite` takes one exp of it; `qgamma` and the per-base constants
(`_base_poch`) stay in logs, which are doubles where the products are not.
(q;q)_inf itself needs no loop from q = 0.35 on: the Dedekind eta
transformation (`_eta_log_qq`) gives its log in closed form plus a series
in e^(-4 pi^2 / ln(1/q)), with a bound 90 to 140 times tighter than the
product's at q = 0.999 to 0.9995.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, NonConvergence, ParameterPole, PoleError

__all__ = [
    "QBase",
    "LatticePoint",
    "SeriesValue",
    "qpoch_finite",
    "qpoch_infinite",
    "qgamma",
    "basic_hyper",
    "qdiff_apply",
    "lattice_decompose",
    "lattice_reconstruct",
]

# Unit roundoff of a double, ln 2 and ln(1/eps).
_EPS = 2.0**-53
_LN2 = math.log(2.0)
_LOG_INV_EPS = 53.0 * _LN2
# ln of the smallest normal and of the largest double, the range of a log form.
_LOG_TINY, _LOG_HUGE = math.log(sys.float_info.min), math.log(sys.float_info.max)
# Term ratios stored per key of the series memo (`_series_memo`, 256 keys).
_SERIES_RATIOS = 2048
# |1 - a q^n| below which an upper parameter |a| >= 1 is q^(-n): a series that
# diverges without that end ends there.
_TERMINATES = 1e-12
# pi^2 / 6, 2 pi and 4 pi^2 of the eta transformation, and the least q it serves.
_PI2_6, _TAU, _FOUR_PI2 = math.pi**2 / 6.0, 2.0 * math.pi, 4.0 * math.pi**2
_ETA_Q = math.exp(-_TAU)


@dataclass(frozen=True)
class QBase:
    """The deformation parameter q in (0,1) plus evaluation tolerances.

    Every memo of the package is keyed on a base, so its hash is computed
    once, here, and 0 < tol < inf: a NaN field would make equal bases
    compare unequal, and tol = inf would switch the stop rule off.
    """

    q: float
    tol: float = 1e-12
    max_terms: int = 100000

    def __post_init__(self) -> None:
        q, tol, max_terms = self.q, self.tol, self.max_terms
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie strictly inside (0,1), got {q}")
        if not 0.0 < tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {tol}")
        if max_terms < 1:
            raise ValueError(f"max_terms must be at least 1, got {max_terms}")
        object.__setattr__(self, "_hash", hash((q, tol, max_terms)))

    def __hash__(self) -> int:
        return self._hash

    @functools.lru_cache(maxsize=256)
    def squared(self) -> "QBase":
        """The same tolerances with base q^2.

        Memoized per base, at most 256 entries process-wide, so every
        caller gets one object and the memos keyed on it (`qgamma`, `a_nu`,
        `_base_poch`) match it by identity.
        """
        return QBase(self.q * self.q, self.tol, self.max_terms)


@dataclass(frozen=True)
class SeriesValue:
    """A computed value with truncation-error estimate and term count."""

    value: complex
    err_estimate: float
    terms_used: int


class _Ball(NamedTuple):
    """A bounded value as the bound rules (`_times`, `_plus`) give it: the
    fields of a `SeriesValue`, which they take as well, in a named tuple.
    A public function turns the last one into a `SeriesValue` where it
    returns it."""

    value: complex
    err_estimate: float
    terms_used: int


# A `_Ball` from a (value, err_estimate, terms_used) tuple, built in C: about
# 0.17 us against 0.43 us for the named tuple's own constructor and 0.8 us
# for the frozen dataclass (timeit, Python 3.11).  The rules build one per
# composed value, over 11,000 in one pass of the suite.
_ball = functools.partial(tuple.__new__, _Ball)


def _times(a, b, what: str, at: complex) -> _Ball:
    """The product a b of two bounded values (`SeriesValue` or `_Ball`),
    good to |b| e_a + |a| e_b + e_a e_b + 4u |a b| (u = 2^-53, for the
    product's own rounding), with their terms added.  A product or bound
    that is not a finite double raises DomainError naming what and the
    point it was at.

    With `_plus` it is the one way a bound is composed from its parts'
    bounds, the midpoint-radius arithmetic of Johansson (Arb, IEEE Trans.
    Computers 66 (2017)) in double precision.  The value is a's value
    times b's, so a caller that keeps its operands' order keeps its values
    bit for bit."""
    v = a.value * b.value
    ma, mb = abs(a.value), abs(b.value)
    ea, eb = a.err_estimate, b.err_estimate
    err = mb * ea + ma * eb + ea * eb + 4.0 * _EPS * ma * mb
    if not (cmath.isfinite(v) and math.isfinite(err)):
        raise DomainError(f"{what}={at} is not a finite double")
    return _ball((v, err, a.terms_used + b.terms_used))


def _const(v: complex, rel: float) -> _Ball:
    """A constant v known to a relative rel, as a bounded value of no terms."""
    return _ball((v, abs(v) * rel, 0))


def _plus(a, b, what: str, at: complex, sub: bool = False) -> _Ball:
    """The sum a + b (a - b with sub) of two bounded values, good to e_a +
    e_b + u |a +- b|, the sum's own rounding (each part of a complex sum
    rounds once), with their terms added; a sum or bound that is not a
    finite double raises DomainError as `_times` does."""
    v = a.value - b.value if sub else a.value + b.value
    err = a.err_estimate + b.err_estimate + _EPS * abs(v)
    if not (cmath.isfinite(v) and math.isfinite(err)):
        raise DomainError(f"{what}={at} is not a finite double")
    return _ball((v, err, a.terms_used + b.terms_used))


@dataclass(frozen=True)
class LatticePoint:
    """A nonzero complex u decomposed as |u| = q^(n+lam), theta = arg u.

    n is an integer, lam lies in [0,1), and theta is the principal
    argument in (-pi, pi].
    """

    u: complex
    n: int
    lam: float
    theta: float


def qpoch_finite(a: complex, base: QBase, n: int) -> complex:
    """Finite Pochhammer product (a;q)_n = prod_{k<n} (1 - a q^k)."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    q = base.q
    p: complex = 1.0
    f = a
    for _ in range(n):
        p *= 1.0 - f
        f *= q
    return p


def _log_poch(
    a: complex, base: QBase, da: float = 0.0
) -> Tuple[complex, complex, float, int]:
    """(a;q)_inf = prod_{k>=0} (1 - a q^k) as (L, unit, dL, terms): the product
    is unit e^L, |unit| = 1 (+-1 for real a), and dL bounds the error of L
    for a known to a relative da (0: a is exact).

    The factor prefix takes the K factors (1 - a q^k) with |a q^k| > r(q) =
    exp(-sqrt(ln(1/eps) ln(1/q))), multiplied in blocks of 32 whose logs
    ln|p_b| are summed by `math.fsum` and whose phases p_b / |p_b| make the
    unit; only a block can leave the double range, which needs |a| > 4e9.
    The rest is (x;q)_inf, x = a q^K, whose log is the Lambert series
    -s = -sum_{m>=1} x^m / (m (1 - q^m)), summed until its tail bound
    |x|^(M+1) / ((M+1) (1 - q^(M+1)) (1 - |x|)) is below min(tol, eps).
    L is the fsum less s.  This r balances K ~ ln(|a|/r) / ln(1/q) against
    M ~ ln(1/eps) / ln(1/r), both about sqrt(ln(1/eps) / ln(1/q)) at
    |a| <= 1 (190 at q = 0.999); terms is K + M.

    dL is the tail plus a first-order rounding bound (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3), in units of u = 2^-53:
      * per factor f = a q^k, 3u + da for f (one pow, one product, and a's
        own error) amplified by |f| / |1 - f|, u for 1 - f and 3u for the
        product into its block;
      * per block, u for |p_b|, 2u |ln|p_b|| (one ulp) for its log and 5u
        for its phase and the product into the unit (exact for real a);
      * u times the fsum's modulus, and u |L| for the difference;
      * (7M + 12) u sum |t_m| for the series: x^m and its m-fold share of
        x's error, -expm1(m ln q), the quotient and the recursive sum, and
        M da sum |t_m| for the m-fold share of a's own error;
      * 4u for the one exp a caller takes and its product by the unit.
    dL bounds the relative error of the computed factors.  A factor that
    rounds to 0 enters L at (3u + da) |f|, its error and so the most it can be,
    and makes unit 0.  A non-finite a raises DomainError, either stage
    past max_terms NonConvergence.
    """
    if a == 0:
        return 0.0, 1.0, 0.0, 0
    if not cmath.isfinite(a):
        raise DomainError(f"infinite product needs a finite argument, got a={a}")
    q = base.q
    cap = base.max_terms
    lq = math.log(q)
    lr = -math.sqrt(_LOG_INV_EPS * -lq)  # ln r
    n_prefix = max(0, math.ceil((math.log(abs(a)) - lr) / -lq))
    if n_prefix > cap:
        raise NonConvergence(f"infinite product needs {n_prefix} prefix factors, more than {cap}")
    logs = []
    unit = 1.0
    sens = 0.0  # sum of |f| / |1 - f| over the prefix
    for lo in range(0, n_prefix, 32):
        p = 1.0
        for k in range(lo, min(lo + 32, n_prefix)):
            # One power per factor: the error of a q^k does not grow with k.
            f = a * q**k
            g = 1.0 - f
            if g:
                sens += abs(f) / abs(g)
            else:
                g = (3.0 * _EPS + da) * abs(f)
                unit = 0.0
            p *= g
        pa = abs(p)
        if not pa:
            raise DomainError(f"a block of the infinite product at a={a} underflows")
        logs.append(math.log(pa))
        unit *= p / pa
    x = a * q**n_prefix
    ax = abs(x)
    xa = ax  # |x|^m
    xm = x  # x^m
    s = 0.0  # the Lambert series of -log (x;q)_inf
    st = 0.0  # sum |t_m|
    # The stop test tail < min(tol, eps), with (1 - |x|) moved across.
    lim = min(base.tol, _EPS) * (1.0 - ax)
    expm1 = math.expm1
    d = -expm1(lq)  # 1 - q^m
    m = 1
    while True:
        md = m * d
        s += xm / md
        st += xa / md
        m += 1
        d = -expm1(m * lq)
        xa *= ax
        if xa < lim * m * d:
            break
        if m > cap:
            raise NonConvergence(f"infinite product log series did not converge within {cap} terms")
        xm *= x
    tail = xa / (m * d * (1.0 - ax))
    terms = m - 1
    sl = math.fsum(logs)
    lv = sl - s
    rho = 3.0 * sens + 4.0 * n_prefix + (7.0 * terms + 12.0) * st + 4.0
    rho += 6.0 * len(logs) + 2.0 * sum(map(abs, logs)) + abs(sl) + abs(lv)
    return lv, unit, tail + _EPS * rho + da * (sens + terms * st), n_prefix + terms


def qpoch_infinite(a: complex, base: QBase) -> SeriesValue:
    """Infinite Pochhammer product (a;q)_inf = prod_{k>=0} (1 - a q^k).

    v = unit e^L of the log form (`_log_poch`; `_base_poch` at a = q, which
    takes the eta transformation), err_estimate |v| expm1(dL).  A factor
    that rounds to 0 gives an exact 0 with err_estimate e^(Re L + dL): the
    rest of the product times the most that factor can be.  A non-finite a,
    or an e^L outside the normal doubles, raises DomainError.
    """
    # The float key: a complex a == q must not cache a complex log form.
    lv, unit, dl, terms = _base_poch(base.q, base) if a == base.q else _log_poch(a, base)
    if not _LOG_TINY <= lv.real < _LOG_HUGE:
        raise DomainError(f"infinite product at a={a}, q={base.q} is not a normal double")
    if not unit:
        return SeriesValue(0.0, math.exp(lv.real) * math.exp(dl), terms)
    v = unit * (cmath.exp(lv) if isinstance(lv, complex) else math.exp(lv))
    return SeriesValue(v, abs(v) * math.expm1(dl), terms)


def _eta_log_qq(base: QBase) -> Tuple[float, float, float, int]:
    """(q;q)_inf for q >= e^(-2 pi) in `_log_poch`'s form (L, 1.0, dL, terms),
    by the Dedekind eta transformation (Apostol, Modular Functions and
    Dirichlet Series in Number Theory, ch. 3): with t = ln(1/q), y = 4 pi^2 / t,
      ln (q;q)_inf = -pi^2 / (6t) + ln(2 pi / t) / 2 + t / 24 + ln (x;x)_inf,
    x = e^(-y).  As t <= 2 pi, x <= e^(-2 pi) < 1/500, and ln (x;x)_inf = -s,
    s = sum_(m>=1) x^m / (m (1 - x^m)), whose terms from m on sum to at most
    x^m / (m (1 - x)^2): the first M = terms of them put that below
    min(tol, eps), none at all from q = 0.35 on (y > 37.6, so x < eps), and
    near q -> 1 the constant costs no loop.

    dL is that tail plus a first-order rounding bound in units of u = 2^-53,
    with math.log and math.exp within one ulp (2u):
      * t carries 2u (one log), pi^2 / 6 and 4 pi^2 4u and 3u (the rounded
        pi, one square, one product), so a = pi^2 / (6t) is good to 7u a
        and y to 6u y;
      * 2 pi / t to 4u, whose log adds 2u of its size, so b = ln(2 pi / t) / 2
        is good to (2 + 2 |b|) u, and c = t / 24 to 3u c;
      * x to (6y + 2) u, the running x^m to m (6y + 2) u + (m - 1) u, which
        1 - x^m amplifies by less than 1/500, and the rest of a term and
        the sum of M terms (M + 2) u: s is good to (M (6y + 5) + 1) u s;
      * u (a + |b| + c + s) for each of the three sums that form L, and 4u
        for the one exp a caller takes (`_log_poch`).
    At q = 0.999 that is 10u a, 1.8e-12, against 1.6e-10 from `_log_poch`,
    whose Lambert series needs about 50 terms there.
    """
    q = base.q
    t = -math.log(q)
    y = _FOUR_PI2 / t
    a, b, c = _PI2_6 / t, 0.5 * math.log(_TAU / t), t / 24.0
    x = math.exp(-y)
    lim = min(base.tol, _EPS) * (1.0 - x) ** 2
    s = 0.0
    m, xm = 1, x  # x^m
    while xm > lim * m:
        s += xm / (m * (1.0 - xm))
        m += 1
        xm *= x
    terms = m - 1
    rho = 10.0 * a + 5.0 * abs(b) + 6.0 * c + (terms * (6.0 * y + 5.0) + 4.0) * s + 6.0
    return b + c - s - a, 1.0, xm / (m * (1.0 - x) ** 2) + _EPS * rho, terms


@functools.lru_cache(maxsize=256)
def _base_poch(a: float, base: QBase) -> Tuple[float, float, float, int]:
    """The log form of (q;q)_inf, read by q-gamma and every coefficient
    table, and of (sqrt(q);q)_inf, read by the type-3 leading term:
    memoized per (a, base), at most 256 entries, errors not cached.
    (q;q)_inf takes the eta transformation (`_eta_log_qq`) from q = e^(-2 pi)
    on, where its bound is below the product's; every other a, and q below
    that, takes `_log_poch`."""
    if a == base.q >= _ETA_Q:
        return _eta_log_qq(base)
    return _log_poch(a, base)


def qgamma(alpha: float, base: QBase) -> float:
    """The q-gamma function (q;q)_inf / (q^alpha;q)_inf * (1-q)^(1-alpha).

    The value of its bounded form (`_qgamma`), and memoized by that form's
    memo, bit-identical to an uncached call.  A pole
    raises PoleError, a value outside the normal doubles, a NaN alpha or a
    factor of (q^alpha;q)_inf that rounds to 0 DomainError.
    """
    return _qgamma(alpha, base)[0]


@functools.lru_cache(maxsize=256)
def _qgamma(alpha: float, base: QBase) -> Tuple[float, float]:
    """q-gamma with a bound on its relative error: exp(x) over the unit of
    (q^alpha;q)_inf, x = ln (q;q)_inf - ln (q^alpha;q)_inf + (1 - alpha)
    log1p(-q), from the log forms (`_base_poch`, `_log_poch`): no product,
    about e^-1640 each at q = 0.999, is formed.  Every reader takes it into
    a constant's relative bound, so it is a pair, not a `SeriesValue`.

    The bound is expm1(dx), dx the error of x; in units of u = 2^-53:
      * the two dL, one of them for q^alpha known to da = (2 + |alpha ln q|) u,
        one pow within an ulp and alpha's own rounding (u |alpha|) where its
        caller formed it, as nu + 1 or 1 - nu; each dL holds the exp and
        the division by the unit;
      * 4u |c| for c = (1 - alpha) log1p(-q) (the difference, log1p within
        an ulp, the product) and u |alpha log1p(-q)| for alpha's rounding;
      * u for each of the two additions, of the sizes of their results.
    Memoized per (alpha, base), at most 256 entries, the one memo of
    q-gamma: every Bessel prefactor reads it; errors are not cached.
    """
    if alpha <= 0 and float(alpha).is_integer():
        raise PoleError(f"q-gamma has a pole at nonpositive integer alpha={alpha}")
    q = base.q
    lq1 = math.log1p(-q)
    da = _EPS * (2.0 + abs(alpha * math.log(q)))
    lv, unit, dl, _ = _log_poch(q**alpha, base, da)
    if not unit:
        raise DomainError(f"q-gamma at alpha={alpha}, q={q} rounds onto its pole {round(alpha)}")
    lqq, _, dqq, _ = _base_poch(q, base)
    c = (1.0 - alpha) * lq1
    x = lqq - lv + c
    if not _LOG_TINY <= x < _LOG_HUGE:
        raise DomainError(f"q-gamma at alpha={alpha}, q={q} is not a normal double")
    g = math.exp(x) / unit
    dx = dl + dqq + _EPS * (abs(lqq - lv) + abs(x) + 4.0 * abs(c) + abs(alpha * lq1))
    return g, math.expm1(dx)


@functools.lru_cache(maxsize=256)
def _series_memo(
    upper: Tuple[complex, ...], lower: Tuple[complex, ...], q: float, weight: float
) -> List:
    """The memo cell [ratios, c, d, kappa, h, end, past] of one coefficient
    sequence of `_qseries`, keyed on (upper, lower, q, weight), at most 256
    keys: the ratios do not depend on the base's tolerances, and a float
    key is hashed without a call into Python.

    ratios is None until the key's second use, then a pair: the tuple of
    the term ratios r_n = c_(n+1) / c_n computed so far, at most
    _SERIES_RATIOS of them, and q^(weight n) at n = their count, the state
    of the running power that computes the next one.  A call that needs
    more ratios replaces the pair by one with a longer tuple and the same
    prefix, so the ratios a caller has read never change.

    c = 9 + 6P for P parameters, d = 3/2 (0 at weight 0), 3 kappa and
    h = 3 (1 + P) q / (1 - q) are the constants of the kernel's rounding
    bound.  kappa + (1 + P) H(N) bounds sum_k |x_k| / |1 - x_k| over the
    factors 1 - x_k of the first N ratios, x_k = q^(k+1) for (q;q) and
    p q^k for a parameter p, with H(N) = q (1 + ln N) / (1 - q) >=
    sum_(k=1..N) q^k / (1 - q^k), as 1 - q^k >= k q^(k-1) (1 - q).  Per
    parameter:
      * |p| < 1: |p| / (1 - |p|) for k = 0, and H(N) for the rest, where
        |x_k| <= q^k;
      * |p| >= 1, with j = floor(ln |p| / ln(1/q)) (|p| q^j >= 1 > |p|
        q^(j+1) up to the rounding of j): the factors k = j - 1 .. j + 2
        as computed, (j - 1) / (1 - q) for those before, where |x_k| >=
        1/q, and H(N) for those after, where |x_k| < q^(k-j-1).
    end, the first n with |1 - a q^n| < _TERMINATES for an upper |a| >= 1,
    is where the series ends (sys.maxsize: none); for 1 - q > 1e-12 it is
    one of the k above, so one pass per parameter (`_far_kappa`) finds end
    and kappa.  Only factors before end count, of every parameter; an
    exactly vanishing lower one before it, or a non-finite parameter, makes
    kappa infinite.  A convergent series ends only where a factor is
    exactly 0 (`_qseries`), so where the factor at end is not, past is
    (3 kappa', 3 sigma) for a sum that goes on: kappa' counts every factor
    before the first exactly vanishing upper one except that at end, and
    sigma = |x| / |1 - x| is that factor's own; else past is None.
    """
    params = upper + lower
    kappa, end, past = 0.0, sys.maxsize, None
    for p in params:
        a = abs(p)
        if not a < 1.0:  # a cell is built on every new key: most have no such p
            kappa, end, past = _far_kappa(params, len(upper), q)
            break
        kappa += a / (1.0 - a)
    n = len(params)
    h = 3.0 * (1 + n) * q / (1 - q)
    return [None, 9 + 6 * n, 1.5 if weight else 0.0, 3.0 * kappa, h, end, past]


def _far_kappa(
    params: Tuple[complex, ...], n_upper: int, q: float
) -> Tuple[float, int, Optional[Tuple[float, float]]]:
    """(kappa, end, past) of `_series_memo`, params[:n_upper] upper, from one
    pass per finite |p| >= 1 over its x_k = p q**k as the kernel forms them."""
    parts = []  # per parameter its part, or (lo, |x_k| / |1 - x_k| for k = lo ..)
    end = zero = sys.maxsize  # the first upper factor near 0, and exactly 0
    at = None  # (parameter, k) of the factor at end
    for i, p in enumerate(params):
        a = abs(p)
        if not 1.0 <= a < math.inf:
            parts.append(a / (1.0 - a) if a < 1.0 else math.inf)
            continue
        j = math.floor(math.log(a) / -math.log(q))
        lo = max(0, j - 1)
        sens = []
        for k in range(lo, j + 3):
            x = p * q**k
            f = abs(1.0 - x)
            if f < _TERMINATES and i < n_upper:
                if k < end:
                    end, at = k, (i, k)
                if not f:
                    zero = min(zero, k)
            sens.append(abs(x) / f if f else math.inf)
        parts.append((lo, sens))

    def before(stop: int, skip: Optional[Tuple[int, int]] = None) -> float:
        # The factors k < stop of every parameter, but the one at skip.
        kappa = 0.0
        for i, part in enumerate(parts):
            if type(part) is tuple:
                lo, sens = part
                part = lo / (1.0 - q) if stop >= lo else stop / (1.0 - q)
                for k, v in enumerate(sens[: max(0, stop - lo)], lo):
                    if (i, k) != skip:
                        part += v
            kappa += part
        return kappa

    past = None
    if end < zero:  # the factor at end is not exactly 0
        i, k = at
        past = (3.0 * before(zero, at), 3.0 * parts[i][1][k - parts[i][0]])
    return before(end), end, past


def _qseries(
    upper: Tuple[complex, ...],
    lower: Tuple[complex, ...],
    base: QBase,
    z: complex,
    weight: float,
) -> Tuple[complex, float, int]:
    """The one term-ratio summation loop of the package.

    Sums t_n = c_n z^n, c_n = prod (a_i;q)_n / [(q;q)_n prod (b_j;q)_n]
    q^(weight n(n-1)/2), as the running product t_(n+1) = t_n r_n z of the
    term ratios r_n = c_(n+1) / c_n.  The ratios depend on the key (upper,
    lower, q, weight) alone and are read from its memo cell
    (`_series_memo`); one the cell does not hold is computed in the same
    loop, from one power q^n and the running power q^(weight n), and
    appended when the cell stores it, so a warm call is bit-identical to a
    cold one.  The running product keeps each term in range where c_n or
    z^n alone would leave the doubles.

    The stop rule is derived, not guessed.  With m = n + 1, weight >= 0
    and every |b_j| q^m < 1, each factor of r_k, k >= m, has a bound:
    |1 - a q^k| <= 1 + |a| q^m, |1 - b q^k| >= 1 - |b| q^m, 1 - q^(k+1) >=
    1 - q^(m+1) and q^(weight k) <= q^(weight m).  So
      R = |z| q^(weight m) prod (1 + |a_i| q^m) / ((1 - q^(m+1)) prod (1 - |b_j| q^m))
    bounds every later |r_k z|, and the terms past t_(n+1) sum to at most
    |t_(n+1)| R / (1 - R) when R < 1.  The first n with |t_(n+1)| < tol |s|
    and that tail <= tol |s| returns (s + t_(n+1), bound, terms summed).
    R is computed once the first, cheap test passes, and kept once below 1,
    as it does not grow with m.  A lower parameter q^(-k) ahead keeps R
    undefined, so the sum runs on to it and raises ParameterPole, also when
    the terms underflow to 0 first.  An infinite or NaN term raises
    DomainError at once.  z = 0 ends the sum, and so does an upper factor
    that is exactly 0.  The cell's end index, an upper factor within
    _TERMINATES of 0, ends it only where no R < 1 exists (weight < 0, or 0
    with |z| >= 1): the factor there is taken as 0 (a lower factor 0 there
    still raises ParameterPole), and with no end such a series raises
    NonConvergence at once.  A series that converges sums on past a factor
    that is near 0 but not 0, which the rounded q-power of a caller's
    parameter makes of a true 0 or of a true factor of 1e-16: see the
    bound below.  A plain tuple, so that callers which rescale the sum
    build one bounded value, not two.

    The bound adds to the tail a first-order rounding bound (Higham,
    Accuracy and Stability of Numerical Algorithms, chs. 3-4), in units
    of u = 2^-53, times S = sum |t_n| over the N terms summed:
      * per ratio, u each for 1 - q^(n+1) and the division by it, and per
        parameter u for 1 - p q^n and 5u for the complex product or
        quotient into r (Smith's division); q^(weight n) is the n-th
        running product of q^weight, one pow, so 3nu (none at weight 0);
      * per step, 5u for the two complex products t_n r_n z, and 2u for
        each of the N - 1 complex additions into s (componentwise
        recursive summation);
      * so t_n is good to (n (7 + 6P) + d n (n - 1)) u relative for P
        parameters, and the sum to (N - 1) (9 + 6P + d N) u S,
    plus 3u (S - 1) (kappa + (1 + P) H(N)) (`_series_memo`): 3u is the
    error of x_k = p q^k (one power, one product), which 1 - x_k amplifies
    by |x_k| / |1 - x_k|, and every term after t_0 = 1 carries it.  A
    factor near 0 that the sum goes past has so large an amplification
    sigma that it is counted apart, as 3u sigma times the sum of |t_n|
    over the terms after it, the only ones that carry it; those terms are
    small by that factor itself.  A one-term sum is exact.
    """
    q = base.q
    tol = base.tol
    cell = _series_memo(upper, lower, q, weight)
    _, c, d, kappa, h, end, past = cell
    if weight <= 0 and z and (weight < 0 or abs(z) >= 1.0):
        if end == sys.maxsize:
            raise NonConvergence(
                f"non-terminating series of weight {weight} diverges at |z|={abs(z)}"
            )
        past = None  # the series ends at its end index
    elif past:
        kappa = past[0]
    sm = None  # sum |t_k|, k <= end, once the sum passes end
    if cell[0] is None:
        # A key's first use stores nothing: most keys of one-off calls are
        # never seen again.
        cell[0] = (), 1.0
        rs, g, cap = (), 1.0, 0
    else:
        (rs, g), cap = cell[0], _SERIES_RATIOS
    known = len(rs)
    lim = known if known < end else end
    qw = q**weight
    new = []
    s: complex = 0.0
    t: complex = 1.0  # t_n
    ta = 1.0  # |t_n|
    sa = 0.0  # sum |t_k|, k < n
    inf = rmax = math.inf  # rmax: R of the stop rule
    for n in range(base.max_terms):
        s += t
        sa += ta
        if n < lim:
            r = rs[n]
        else:
            if n < known:
                r = rs[n]
            else:
                # One power q^n per ratio, not a running product that drifts
                # by an ulp a term: the integer-order limit in
                # bessel_combination divides differences of these sums by 1e-5.
                qn = q**n
                r = g / (1.0 - qn * q)
                g *= qw  # q^(weight (n + 1))
                # The guards skip building an empty iterator on every term.
                if upper:
                    for a in upper:
                        r *= 1.0 - a * qn
                if lower:
                    for b in lower:
                        f = 1.0 - b * qn
                        if f == 0:
                            raise ParameterPole(
                                f"lower parameter {b} annihilates the denominator at n={n}"
                            )
                        r /= f
                if n < cap:
                    new.append(r)
                    top = g
            if n == end:
                if past:
                    sm = sa
                else:
                    r = 0.0  # the series ends at the cell's end index
        t = t * r * z  # t_(n+1)
        try:
            ta = abs(t)
        except OverflowError:  # finite parts whose modulus is not a double
            ta = inf
        if not 0.0 < ta < inf:
            if ta:
                raise DomainError(f"q-series term {n + 1} is not finite: {t}")
            if not (r and z):  # z = 0, or an upper factor 0
                terms, tail = n + 1, 0.0
                break
        if ta < tol * abs(s):
            # R only once a term is small, and only until one R is below 1.
            if not rmax < 1.0:
                qm = q ** (n + 1)
                rmax = abs(z) * qm**weight / (1.0 - qm * q) if weight >= 0 else inf
                for a in upper:
                    rmax *= 1.0 + abs(a) * qm
                for b in lower:
                    f = 1.0 - abs(b) * qm
                    rmax = rmax / f if f > 0 else inf
            if rmax < 1.0 and ta * rmax <= tol * abs(s) * (1.0 - rmax):
                s += t
                sa += ta
                terms, tail = n + 2, ta * rmax / (1.0 - rmax)
                break
    else:
        raise NonConvergence(f"q-series did not converge within {base.max_terms} terms")
    if new:
        cell[0] = rs + tuple(new), top
    steps = (terms - 1) * (c + d * terms) * sa
    if sm is not None:
        steps += past[1] * (sa - sm)
    return s, tail + _EPS * (steps + (kappa + h * (1.0 + math.log(terms))) * (sa - 1.0)), terms


def basic_hyper(
    upper: Sequence[complex],
    lower: Sequence[complex],
    base: QBase,
    z: complex,
) -> SeriesValue:
    """Basic hypergeometric series rPhis(upper; lower; q, z).

    Term n carries prod (a_i;q)_n / [(q;q)_n prod (b_i;q)_n] times
    ((-1)^n q^(n(n-1)/2))^(s-r+1) z^n.  A non-terminating series diverges
    for r > s + 1 and, balanced (s - r + 1 == 0), requires |z| < 1.
    """
    w = len(lower) - len(upper) + 1
    if z == 0:
        return SeriesValue(1.0, 0.0, 1)
    return SeriesValue(*_qseries(tuple(upper), tuple(lower), base, z * (-1.0) ** w, w))


def qdiff_apply(f: Callable[[complex], complex], z: complex, base: QBase) -> complex:
    """The q-difference operator (f(z) - f(qz)) / ((1-q^2) z)."""
    if z == 0:
        raise DomainError("q-difference operator is undefined at z = 0")
    q = base.q
    return (f(z) - f(q * z)) / ((1.0 - q * q) * z)


def lattice_decompose(u: complex, base: QBase) -> LatticePoint:
    """Decompose nonzero u as |u| = q^(n+lam), theta = arg u.

    Uses floor (not truncation toward zero) so lam is in [0,1) for all
    magnitudes.  A u that is 0 or not finite raises DomainError.
    """
    u = complex(u)
    if u == 0 or not cmath.isfinite(u):
        raise DomainError(f"cannot decompose u = {u} on the q-lattice")
    t = math.log(abs(u)) / math.log(base.q)
    n = math.floor(t)
    lam = t - n
    if lam >= 1.0:  # floating-point edge when t is an exact integer
        n += 1
        lam -= 1.0
    theta = math.atan2(u.imag, u.real)
    if theta <= -math.pi:
        theta = math.pi
    return LatticePoint(u=u, n=n, lam=lam, theta=theta)


def lattice_reconstruct(point: LatticePoint, base: QBase) -> complex:
    """Rebuild q^(n+lam) e^(i theta) from a lattice decomposition."""
    return base.q ** (point.n + point.lam) * cmath.exp(1j * point.theta)
