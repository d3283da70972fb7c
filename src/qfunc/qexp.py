"""The three q-exponentials and their multiplicative-lattice machinery.

Type 1 is the reciprocal infinite product 1/(u;q)_inf (meromorphic, simple
poles at u = q^(-m)), type 2 the entire product (-u;q)_inf, and type 3 an
entire series with Gaussian-decaying coefficients.  Each type j pairs with
an exponent parameter delta via j = -(3/2) delta^2 + (5/2) delta + 2, so
(j, delta) runs over (1,2), (2,0), (3,1).

The self-reciprocal products L(u) = e^(j)(u) e^(j)(q/u) admit two-sided
(Laurent) expansions, satisfy one-step functional equations (a four-term
relation for type 3), and have discrete closed forms on the lattice
|u| = q^(n+lam) that drive the large-argument asymptotics.

L_1 and L_2 have one closed form per coefficient, from their product
identities (`_lambda_coeffs`): the Jacobi triple product gives L_2's
a_l = q^(l(l-1)/2) / (q;q)_inf, and the pole expansion of L_1 gives a_l
as an alternating Gaussian sum over (q;q)_inf^2, summed for the top row
of a table and carried down by its exact recurrence.  Summed over l,
the same expansion is L_1's two-sided value, two Gaussian sums of one
routine (`_pole_sum`), so that value needs no table.  Every other
two-sided coefficient table, of L_3 and of the Bessel products e(u)
Phi(u) in `qbessel`, is one routine (`_cauchy_table`): the Laurent
product E(u) F(q/u) of two Taylor sequences built once, with each
coefficient a single C-level dot product over slices, cut at a term
count derived from a bound on the sequences (`_cauchy_terms`) so that
the truncation stays below min(tol, eps) of the sum of |terms|.  Type 1, whose E_k =
1/(q;q)_k has no Gaussian decay, adds every row's tail in closed form to
second order, from the sequences' limits and first Taylor coefficients
(Euler's product expansion), and so needs about a third of the terms:
its remainder falls as q^(3M), not q^M.  The coefficients are therefore
good to a rounding bound that does not depend on tol.

Two memos hold what many calls share: the Lambda rows per (kind, window,
base) (`_lambda_coeffs`, at most 32 entries), read by every Lambda
coefficient reader and by the two-sided sums of L_2 and L_3, and the
constant of the lattice leading term per (kind, lam, theta, base)
(`_leading_constant`, at most 256 entries), which does not depend on n
and so is shared by every row of one lattice table.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, replace
from itertools import accumulate
from operator import add, mul
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import DomainError, NonConvergence, PoleError
from .qcalc import (
    _EPS,
    _LN2,
    _LOG_HUGE,
    _LOG_TINY,
    LatticePoint,
    QBase,
    SeriesValue,
    _Ball,
    _ball,
    _base_poch,
    _const,
    _log_poch,
    _plus,
    _qseries,
    _times,
    lattice_decompose,
    qgamma,
    qpoch_infinite,
)

__all__ = [
    "KindTag",
    "LaurentTable",
    "AsymptoticEstimate",
    "qexp_eval",
    "classical_limit_check",
    "lambda_product",
    "lambda_laurent_coeff",
    "lambda_laurent_eval",
    "lambda_laurent_table",
    "lambda_closed_form",
    "qexp_functional_residual",
    "qexp_asymptotic",
]

_DELTAS = {1: 2, 2: 0, 3: 1}  # type j -> its exponent parameter delta


@dataclass(frozen=True)
class KindTag:
    """Type index j in {1,2,3} with its paired exponent parameter delta."""

    j: int
    delta: int

    def __post_init__(self) -> None:
        if _DELTAS.get(self.j) != self.delta:
            raise ValueError(
                f"(j, delta) must be one of {sorted(_DELTAS.items())}, "
                f"got ({self.j}, {self.delta})"
            )

    @classmethod
    def from_j(cls, j: int) -> "KindTag":
        if j not in _DELTAS:
            raise ValueError(f"kind j must be 1, 2 or 3, got {j}")
        return cls(j, _DELTAS[j])


@dataclass(frozen=True)
class LaurentTable:
    """Two-sided expansion coefficients a_l over the window |l| <= window."""

    kind: KindTag
    window: int
    coeffs: Dict[int, float]


@dataclass(frozen=True)
class AsymptoticEstimate:
    """A leading-order approximation split into scale, phase and constant.

    leading = q^scale_exponent * phase * constant, with N = n(n-1) + 2 lam n
    for the lattice point the estimate was built from.
    """

    leading: complex
    scale_exponent: float
    phase: complex
    constant: complex
    N: float


def qexp_eval(kind: KindTag, u: complex, base: QBase) -> SeriesValue:
    """Evaluate the q-exponential of the given type at u.

    Type 1 uses the reciprocal infinite product; its poles u = q^(-m) are
    decided by the product's own error bound alone: PoleError where that
    bound reaches |(u;q)_inf|, else 1/(u;q)_inf with the bound carried
    through the reciprocal.  Type 2 is the entire product and type 3 its
    everywhere-convergent series.  A non-finite u, or a value or error
    bound that overflows a double, raises DomainError.
    """
    u = complex(u)
    if not cmath.isfinite(u):
        raise DomainError(f"q-exponential needs a finite argument, got u={u}")
    if kind.j == 1:
        prod = qpoch_infinite(u, base)
        p, e = prod.value, prod.err_estimate
        if e >= abs(p):
            raise PoleError(f"u={u} is within the error bound of a pole of the reciprocal product")
        v = 1.0 / p
        sv = SeriesValue(v, abs(v) * e / (abs(p) - e), prod.terms_used)
    elif kind.j == 2:
        sv = qpoch_infinite(-u, base)
    else:
        # Type 3 series: sum q^(n(n-1)/4) u^n / (q;q)_n.
        sv = SeriesValue(*_qseries((), (), base, u, 0.5))
    if not (cmath.isfinite(sv.value) and math.isfinite(sv.err_estimate)):
        raise DomainError(f"type-{kind.j} q-exponential overflows a double at u={u}")
    return sv


def classical_limit_check(
    kind: KindTag, z: complex, q_sequence: Sequence[float]
) -> List[float]:
    """Distances |e_q(kind)((1-q^2) z) - e^(2z)| along a sequence of q values.

    Used to confirm monotone decay toward the classical exponential as
    q increases to 1.
    """
    target = cmath.exp(2.0 * z)
    out = []
    for q in q_sequence:
        base = QBase(q)
        u = (1.0 - q * q) * z
        out.append(abs(qexp_eval(kind, u, base).value - target))
    return out


def _lambda_value(kind: KindTag, u: complex, base: QBase) -> _Ball:
    """Lambda(u) = e(u) e(q/u), bounded by the product rule (`_times`)."""
    if u == 0:
        raise DomainError("lambda product is undefined at u = 0")
    a, b = (qexp_eval(kind, w, base) for w in (u, base.q / u))
    return _times(a, b, "lambda product at u", u)


def lambda_product(kind: KindTag, u: complex, base: QBase) -> complex:
    """The self-reciprocal product e^(j)(u) * e^(j)(q/u) (`_lambda_value`)."""
    return _lambda_value(kind, u, base).value


def _bessel_i_base_q(kind: KindTag, l: int, base: QBase) -> float:
    """Modified Bessel value I_l(2 q^(delta/4); q) taken at base q.

    Same series shape as the q^2-Bessel I family but with base q and the
    fixed argument that appears in the two-sided expansion coefficients.
    """
    q = base.q
    d = kind.delta
    y = q ** (d / 4.0) / (1.0 - q)
    x = (1.0 - q) ** 2 * y * y * q ** ((2 - d) * (l + 1) / 2.0)
    s = _qseries((), (q ** (l + 1),), replace(base, tol=min(base.tol, _EPS)), x, 2 - d)[0]
    return y**l / qgamma(l + 1, base) * s


def _two_sum(a: float, b: float) -> Tuple[float, float]:
    """(s, r) with s = fl(a + b) and s + r = a + b exactly (TwoSum; Higham,
    Accuracy and Stability of Numerical Algorithms, 4.3)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _poch_table(a: float, b: float, step: int, q: float, n: int) -> Tuple[List[float], float]:
    """(q^c; q^step)_k for k < n, c = a + b, and a bound on their relative
    rounding error in units of u = 2^-53.

    Factor i is 1 - q^e = -expm1(x), x = e ln q, with the exponent e = a +
    b + step i.  TwoSum (`_two_sum`) finds the rounding r of c = fl(a + b)
    exactly; s = fl(c + step i) is within u of c + step i, and exact where
    that sum cancels, and where r is not 0 one more TwoSum folds it into s
    as s' + r' = s + r, |r'| <= u |s'|.  So x = s' ln q + r' ln q is within
    5u of e ln q: u for the sum, 2u for the log, within one ulp, and u for
    each product and the last sum.  d ln |expm1(x)| / d ln |x| is sigma(x)
    = x / (1 - e^-x), at most 1 for x < 0 and 1 + x above, and -expm1 is
    within one ulp, so the factor is good to (2 + 5 sigma) u whatever its
    size, and the product adds u per factor.  sigma = |x| (1 - f) / |f|
    from the factor f, and 1 where x = 0: a factor is exactly 0 only where
    its exponent is, and then every later entry is exactly 0 too.  Factors
    with q^e < 2^-60 are 1.0 in double and are not formed, which adds 2^-7
    / (1 - q^step).
    """
    lq = math.log(q)
    c, r = _two_sum(a, b)
    k0 = min(n - 1, max(0, math.ceil((60.0 * _LN2 / -lq - c) / step)))
    sums = [c + step * i for i in range(k0)]
    if r:
        xs = [lq * s + lq * t for s, t in (_two_sum(s, r) for s in sums)]
    else:
        xs = [lq * s for s in sums]
    fs = [-math.expm1(x) for x in xs]
    p = list(accumulate(fs, mul, initial=1.0))
    p += p[-1:] * (n - 1 - k0)
    sigma = sum([abs(x) * (1.0 - f) / abs(f) if f else 1.0 for x, f in zip(xs, fs)])
    return p, 3.0 * k0 + 5.0 * sigma + 2.0**-7 / (1.0 - q**step)


def _exp_table(w: float, q: float, p: Sequence[float]) -> List[float]:
    """E_k = q^(w k(k-1)/2) / (q;q)_k from p = ((q;q)_k) (`_poch_table`).

    With w = (2 - delta) / 2 (0, 1, 1/2 for types 1, 2, 3) these are the
    Taylor coefficients of the type's exponential, good to p's relative
    rounding bound plus 3 eps.  The caller has checked that (q;q)_inf is a
    normal double, so no division overflows.
    """
    return [q ** (w * (k * (k - 1) // 2)) / x for k, x in enumerate(p)]


def _abs_sum(a: Sequence[float], bq: Sequence[float], l: int, c: float, k: int) -> float:
    """sum_i |a_(l+i) bq_i| of the dot product c = sum_i a_(l+i) bq_i whose
    terms share one sign from i = k > 0 on: the first k terms, plus |c|
    less their sum."""
    head = [a[l + i] * bq[i] for i in range(min(k, len(bq)))]
    return sum(map(abs, head)) + abs(c - sum(head))


def _tail_log_k(m: int, ab: Sequence[float], q: float) -> float:
    """ln k of the type-1 tail past m terms (`_cauchy_terms`): k = (r +
    s^2 e^(s x) / 2) / (1 - q^3) at x = q^m, s = c1 + r x, with c1 and r(x)
    as derived there; x may underflow to 0, which gives k's limit."""
    x = q**m
    g1 = sum(ab) / (1.0 - q)
    c1 = max(g1, q / (1.0 - q) - min(g1, 0.0))
    r = sum([p * p / (2.0 * (1.0 - abs(p) * x)) for p in ab])
    r = (r + q * q / (1.0 - q * q * x * x) + q * q / (2.0 * (1.0 - q * x))) / (1.0 - q * q)
    s = c1 + r * x
    return math.log(r + 0.5 * s * s * math.exp(s * x)) - math.log1p(-(q**3))


def _cauchy_terms(w: float, log_bound: float, base: QBase, ab: Sequence[float] = ()) -> int:
    """The number of terms M of every dot product of a coefficient table.

    A table is the Laurent product E(u) F(q/u) of two Taylor series, E an
    exponential's (`_cauchy_table`).  Every ratio of E's entries obeys
    |E_(k+i) / E_k| <= q^(w_E i(i-1)/2) / (q;q)_inf, w_E = (2 - delta) / 2,
    as (q^(k+1);q)_i >= (q;q)_inf; with B_F q^(w_F i(i-1)/2) bounding F's
    ratios the same way, every term of a coefficient is |t_i| <= |t_0|
    e^log_bound q^(w i(i-1)/2 + i), w = w_E + w_F, log_bound = ln(B_E B_F).
    Phi's F has no Gaussian (w_F = 0); Lambda_3's F = E carries its own,
    so that table takes w = 1, not 1/2, and a quarter fewer terms per row
    (11, 26 and 62 at q = 0.5, 0.85 and 0.95, against 14, 36 and 87).
    For w > 0 the tail past M terms is then below |t_0|
    e^log_bound q^(w M(M-1)/2 + M) / (1 - q), and M is the least count
    that puts it at min(tol, eps) |t_0| <= min(tol, eps) sum |t_i|.

    Type 1 (w = 0) has no Gaussian, so the table adds its tail in closed
    form to second order (`_cauchy_table`), and M falls to about two
    thirds of what the first-order tail needs: the remainder falls as
    q^(3M), not q^(2M).  By Euler's product expansion (Gasper & Rahman,
    Basic Hypergeometric Series, 1.3), E_k = E_inf (q^(k+1);q)_inf with
    E_inf = 1/(q;q)_inf.  F is Phi's, F_i = (a;q)_i (b;q)_i /
    (q^2;q^2)_i, and ab = (a, b).  So F_i = F_inf g(q^i), g(x) =
    (q^2 x^2;q^2)_inf / ((a x;q)_inf (b x;q)_inf).  A term of row l is
    E_inf F_inf q^i P, P = (y;q)_inf g(x') with x = q^i, and x' = x,
    y = q^(l+1) x ascending (e_(l+i) f_i), x' = q^l x, y = q x descending
    (f_(l+i) e_i); so x' <= x and y <= q x.  With ln (y;q)_inf = -sum_n y^n / (n (1 - q^n)) and
    ln g(x) = sum_n ((a^n + b^n) x^n / (1 - q^n) - q^(2n) x^(2n) / (1 -
    q^(2n))) / n, ln P = lambda1 + rho: lambda1 = g1 x' - y / (1 - q),
    g1 = (a + b) / (1 - q) the first Taylor coefficient of g, and, as 1 -
    q^n >= 1 - q^2 for n >= 2, |rho| <= r(x) x^2, r(x) = (sum_p p^2 / (2
    (1 - |p| x)) + q^2 / (1 - q^2 x^2) + q^2 / (2 (1 - q x))) / (1 - q^2).  As
    |lambda1| <= c1 x, c1 = max(g1, q / (1 - q) - min(g1, 0)), and
    |e^t - 1 - t| <= t^2 e^|t| / 2, |P - 1 - lambda1| <= K(x) x^2, K = r +
    s^2 e^(s x) / 2, s = c1 + r x, which grows with x.  Summing q^i (1 +
    lambda1) over i >= M gives each row's tail, sum_i e_(l+i) f_i q^i
    ascending and sum_i f_(l+i) e_i q^i descending (l >= 0), as C1 + C2 +
    R: C1 = E_inf F_inf q^M / (1 - q), C2 = E_inf F_inf q^(2M) / (1 - q^2)
    times g1 - q^(l+1) / (1 - q) ascending or g1 q^l - q / (1 - q)
    descending, and |R| <= E_inf |F_inf| k q^(3M), k = K(q^M) / (1 - q^3)
    (`_tail_log_k`).  As E_inf |F_inf| <= |t_0| e^log_bound, M is the
    least count with e^log_bound k q^(3M) <= min(tol, eps), from h on,
    the least index with max |p| q^h <= 1/2, which keeps every |p| x and
    so every log series above convergent.  k falls with M towards K(0) /
    (1 - q^3), which gives the first count tried.  A terminating Phi, b =
    q^(1-N) with F_i = 0 from i = N on, has h >= N, so its tail is exactly
    0.

    More than max_terms raises NonConvergence, which gives the least count
    known, a lower bound on the need; a (q;q)_inf below the
    smallest normal double (q ~ 0.998 on), which the table's divisors
    (q;q)_k approach, DomainError.
    """
    q = base.q
    if _base_poch(q, base)[0] < _LOG_TINY:
        raise DomainError(f"coefficient table at q={q}: (q;q)_inf is below the normal doubles")
    if w == 0:
        lq = -math.log(q)
        lt = math.log(min(base.tol, _EPS)) - log_bound
        c = max(map(abs, ab), default=0.0)
        h = max(0, math.ceil(math.log(2.0 * c) / lq)) if c else 0
        m = max(h, math.ceil((_tail_log_k(sys.maxsize, ab, q) - lt) / (3.0 * lq)))
        while _tail_log_k(m, ab, q) - 3.0 * m * lq > lt and m <= base.max_terms:
            m += 1
    else:
        y = (log_bound - math.log((1.0 - q) * min(base.tol, _EPS))) / -math.log(q)
        m = _least_n(w / 2.0, 1.0, y)  # w M(M-1)/2 + M >= y
    if m > base.max_terms:
        raise NonConvergence(
            f"coefficient table needs more than max_terms={base.max_terms} terms (at least {m})"
        )
    return max(1, m)


def _cauchy_table(
    e: Sequence[float],
    f: Sequence[float],
    rel: float,
    m: int,
    log_bound: float,
    q: float,
    ls: range,
    lm: range,
    h: int,
    lim: Tuple[float, float, float, Sequence[float]] = (0.0, 0.0, 0.0, ()),
) -> Tuple[List[float], List[float], List[float], List[float]]:
    """The one coefficient routine: the Laurent product E(u) F(q/u).

    Returns (ascending, descending, their bounds): c_l = sum_i e_(l+i) f_i
    q^i for l in ls and c_(-l) = q^l sum_i f_(l+i) e_i q^i for l in lm,
    each one C-level dot product over slices of M = m terms
    (`_cauchy_terms`) plus, for type 1, the closed-form tail C1 + C2 of
    every row, C1 = E_inf F_inf q^M / (1 - q) and C2 = c2 d_l, c2 =
    E_inf F_inf q^(2M) / (1 - q^2), d_l = g1 - q^(l+1) / (1 - q)
    ascending, g1 q^l - q / (1 - q) descending, g1 = (a + b) / (1 - q).
    lim = (L, unit, dL, (a, b)) gives E_inf F_inf = unit e^L with |ln|
    error dL (unit 0: no tail), so C1 is good to |C1| (expm1(dL1) + 2 eps),
    dL1 = dL + 4 eps (|L| + M ln(1/q) + ln(1/(1 - q))) for the rounding
    of its exponent, and c2 to |c2| (expm1(dL2) + 2 eps), dL2 likewise.
    |d_l| <= G = (|a| + |b| + q) / (1 - q); a and b each carry one ulp of
    pow and |ln |p|| eps from their rounded exponent, and the rest of d_l
    and the product c2 d_l 8 eps of G, so C2 is good to |c2| (G (expm1(dL2)
    + 10 eps) + eps sum_p |p| (1 + |ln |p||) / (1 - q)).  The bound of
    each row is kappa eps (sum |t| + |C1| + |c2| G) + those + eta: kappa
    adds rel (both sequences' rounding), 2 for the pow q^i, 2 for the
    products, M - 1 for the sum, 1 for the truncation or the tail's
    remainder R and 3 for q^l, C1 and C2 counting as one more term each,
    and eta = M e^log_bound 2^-1074 covers terms that underflow.  f's
    entries share one sign from index h on (`_abs_sum`).  A non-finite
    coefficient raises DomainError.
    """
    qpow = [q**i for i in range(m)]
    eq = list(map(mul, e, qpow))
    fq = list(map(mul, f, qpow))
    plus = [sum(map(mul, e[l : l + m], fq)) for l in ls]
    minus = [sum(map(mul, f[l : l + m], eq)) for l in lm]
    ql = [q**l for l in lm]
    lc, unit, dl, ab = lim
    kappa = (rel + m + 7.0) * _EPS
    tp, tm, at, dt = [0.0] * len(ls), [0.0] * len(lm), 0.0, 0.0  # the tails and their bounds
    if unit:
        lq, l1q, l1q2 = math.log(q), math.log1p(-q), math.log1p(-q * q)
        x1, x2 = lc + m * lq - l1q, lc + 2 * m * lq - l1q2  # ln |C1|, ln |c2|
        if x1 >= _LOG_HUGE:
            raise DomainError("two-sided coefficients overflow a double")
        c1, c2 = unit * math.exp(x1), unit * math.exp(x2)
        g1, u = sum(ab) / (1.0 - q), q / (1.0 - q)
        big = (sum(map(abs, ab)) + q) / (1.0 - q)
        ex1 = math.expm1(dl + 4.0 * _EPS * (abs(lc) - m * lq - l1q))
        ex2 = math.expm1(dl + 4.0 * _EPS * (abs(lc) - 2 * m * lq - l1q2))
        dg = sum([abs(p) * (1.0 + abs(math.log(abs(p)))) for p in ab if p]) / (1.0 - q)
        tp = [c1 + c2 * (g1 - u * q**l) for l in ls]
        tm = [c1 + c2 * (g1 * x - u) for x in ql]
        at = abs(c1) + abs(c2) * big
        dt = abs(c1) * (ex1 + 2.0 * _EPS) + abs(c2) * (big * (ex2 + 10.0 * _EPS) + _EPS * dg)
        kappa += _EPS
    vp = list(map(add, plus, tp))
    vm = [x * (s + t) for x, s, t in zip(ql, minus, tm)]
    if not all(map(math.isfinite, vp + vm)):
        raise DomainError("two-sided coefficients overflow a double")
    eta = math.exp(log_bound + math.log(m) - 1074.0 * _LN2)
    # sum |t| of each row: only rows with terms before F's sign index h
    # need more than |c|.
    ap = [_abs_sum(e, fq, l, s, h) for l, s in zip(ls, plus)] if h > 0 else list(map(abs, plus))
    j = max(0, min(len(lm), h - lm.start))
    am = [_abs_sum(f, eq, l, s, h - l) for l, s in zip(lm[:j], minus)] + list(map(abs, minus[j:]))
    bp = [kappa * (a + at) + dt + eta for a in ap]
    bm = [kappa * x * (a + at) + x * dt + eta for x, a in zip(ql, am)]
    return vp, vm, bp, bm


_Rows = Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[float, ...], Tuple[float, ...]]


def _coeff_window(l: int) -> int:
    """The table window a single-coefficient reader of row l requests: the
    least power of two at or above max(l, 8).  A coefficient does not
    depend on the window of its table, so a loop over l = 0..40 reads four
    memoized tables (windows 8, 16, 32 and 64) instead of building 41."""
    return 1 << (max(l, 8) - 1).bit_length()


def _inv_qq(power: int, base: QBase) -> Tuple[float, float]:
    """(q;q)_inf^-power, the prefactor of the Lambda_1 (power 2) and Lambda_2
    (power 1) coefficients, and its relative error expm1(power dL): dL
    bounds the error of ln (q;q)_inf and counts the one exp (`_base_poch`).
    A (q;q)_inf^power below the normal doubles raises DomainError."""
    lqq, _, dl, _ = _base_poch(base.q, base)
    if power * lqq < _LOG_TINY:
        raise DomainError(f"(q;q)_inf^{power} at q={base.q} is below the normal doubles")
    return math.exp(-power * lqq), math.expm1(power * dl)


def _pole_sum(w: complex, e: int, q: float, dw: float = 0.0) -> _Ball:
    """S(w, e) = sum_(m>=0) (-1)^m g_m / (1 - q^m w), g_m = q^(m(m+1)/2 + m e),
    for |w| < 1 and e >= 0, with w known to a relative dw: the Gaussian sum
    of Lambda_1's pole expansion (`_lambda_coeffs`, `lambda_laurent_eval`).

    As |1 - q^m w| >= 1 - |w| and g_(m+1) / g_m = q^(m+1+e), the terms past
    the first M are at most g_M / ((1 - |w|) (1 - q^(M+1+e))), and M is the
    least count with g_M <= u (`_least_n`), u = 2^-53, whatever tol is.
    Rounding, relative to each term t_m: g_m and q^m one pow each (2u), so
    q^m w is good to 3u + dw of its size, at most |w|, which 1 - q^m w
    amplifies by at most |w| / (1 - |w|); the subtraction adds u and the
    quotient 5u.  `math.fsum` sums the real and the imaginary parts, each
    correctly rounded, so S is good to kappa sum |t_m| + u |S| plus the
    truncation, kappa = 8u + (3u + dw) |w| / (1 - |w|).  A pow that
    underflows is within 2^-1074, not 2u, of its value: (M + 1) 2^-1074 /
    (1 - |w|) covers those of g_m and g_M.  terms_used is M.
    """
    aw = abs(w)
    m = _least_n(0.5, e + 1.0, math.log(_EPS) / math.log(q))
    g = [q ** (i * (i + 1) // 2 + i * e) for i in range(m + 1)]
    t = [(-x if i % 2 else x) / (1.0 - q**i * w) for i, x in enumerate(g[:m])]
    s = complex(math.fsum([x.real for x in t]), math.fsum([x.imag for x in t]))
    kappa = 8.0 * _EPS + (3.0 * _EPS + dw) * aw / (1.0 - aw)
    rest = (g[m] / (1.0 - q ** (m + 1 + e)) + (m + 1) * 2.0**-1074) / (1.0 - aw)
    return _ball((s, kappa * sum(map(abs, t)) + _EPS * abs(s) + rest, m))


@functools.lru_cache(maxsize=32)
def _lambda_coeffs(kind: KindTag, window: int, base: QBase) -> _Rows:
    """Rows l <= window of Lambda(u) = e(u) e(q/u) in `_cauchy_table`'s layout.

    Every a_l is positive and a_(-l) = q^l a_l.  Types 1 and 2 come from
    product identities, one formula per coefficient; u = 2^-53 below, and
    a pow of the exact q at an integer exponent is within one ulp (2u).

    Lambda_2 = (-u;q)_inf (-q/u;q)_inf = sum_l q^(l(l-1)/2) u^l / (q;q)_inf
    by the Jacobi triple product (Gasper & Rahman, Basic Hypergeometric
    Series, 1.6.1), the identity `_theta_ratio` reads at base sqrt(q): a_l
    = q^(l(l-1)/2) P, P = 1/(q;q)_inf (`_inv_qq`), and a_(-l) = a_(l+1).
    The power n = l(l-1)/2 is taken as q^min(n, N) P q^max(0, n - N), N
    the least n with q^n P <= 1: so q^min(n, N) P lies in (q, P], and only
    the last pow and product can underflow, by at most 2^-1074 and 2^-1075,
    where a_l itself is below the normal doubles.  Two pows and two
    products add 6u to P's error, so each row is good to a_l (expm1(dL) +
    7u) + 2^-1073.

    Lambda_1 = 1/((u;q)_inf (q/u;q)_inf) = (q;q)_inf^-2 sum_(m in Z) (-1)^m
    q^(m(m+1)/2) / (1 - u q^m), its pole expansion; on q < |u| < 1 it gives
    a_l = P S_l for l >= 0, P = (q;q)_inf^-2, S_l = S(0, l) = sum_(m>=0)
    (-1)^m q^(m(m+1)/2 + m l), the Gaussian sum `_pole_sum` at w = 0.
    Shifting m by one gives S_l = 1 - q^(l+1) S_(l+1) exactly, so only the
    top row, l = W = window, is summed, to within its bound e_W.  The
    recurrence runs down from there and contracts: as 0 < S_l <= 1, the
    product q^(l+1) S_(l+1) < 1 takes 3u (one pow, one product) and the
    difference u, so e_l <= q^(l+1) e_(l+1) + 4u, and an underflow of the
    product, at most 2^-1074, is inside that.  a_l is good to P e_l plus
    a_l (expm1(2 dL) + 2u).  a_(-l) = q^l a_l adds 3u of a_(-l) and (1 +
    a_l) 2^-1074 for a q^l or a product that underflows.  A (q;q)_inf^2
    below the normal doubles (q between 0.995 and 0.997 on) raises
    DomainError.

    Type 3 is the coefficient table with F = E, log_bound = -2 ln
    (q;q)_inf, and the Gaussian of both sequences (`_cauchy_terms` at w =
    1).  Memoized per (kind, window, base), at most 32 entries
    process-wide; the rows are tuples because every caller shares the
    cached object.
    """
    q = base.q
    tiny = 2.0**-1074
    if kind.j == 2:
        p, rel = _inv_qq(1, base)
        top = math.ceil(math.log(p) / -math.log(q))
        ns = [l * (l - 1) // 2 for l in range(window + 2)]
        a = [q ** min(n, top) * p * q ** max(0, n - top) for n in ns]
        b = [x * (rel + 7.0 * _EPS) + 2.0 * tiny for x in a]
        return tuple(a[: window + 1]), tuple(a[2:]), tuple(b[: window + 1]), tuple(b[2:])
    ql = [q**l for l in range(1, window + 1)]
    if kind.j == 1:
        p, rel = _inv_qq(2, base)
        top = _pole_sum(0.0, window, q)
        s, e = top.value.real, top.err_estimate
        rows = [(s, e)]
        for x in reversed(ql):  # q^(l+1) for l = W - 1 .. 0
            s, e = 1.0 - x * s, x * e + 4.0 * _EPS
            rows.append((s, e))
        a = [p * s for s, _ in reversed(rows)]
        b = [p * e + x * (rel + 2.0 * _EPS) for (_, e), x in zip(reversed(rows), a)]
        bminus = [x * (y + 3.0 * _EPS * c) + (1.0 + c) * tiny for x, c, y in zip(ql, a[1:], b[1:])]
    else:
        log_b = -2.0 * _base_poch(q, base)[0]
        m = _cauchy_terms(1.0, log_b, base)
        pq, rel = _poch_table(1.0, 0.0, 1, q, window + m)
        e = _exp_table(0.5, q, pq)
        ls = range(window + 1)
        a, _, b, _ = _cauchy_table(e, e, 2.0 * (rel + 3.0), m, log_b, q, ls, range(0), 0)
        # The product q^l a_l can underflow: its bound keeps that 2^-1074.
        bminus = [x * y + tiny for x, y in zip(ql, b[1:])]
    return tuple(a), tuple(map(mul, ql, a[1:])), tuple(b), tuple(bminus)


def _laurent_sum(
    rows: Tuple[Sequence[float], Sequence[float], Sequence[float], Sequence[float]],
    w: complex,
    k: int,
    tail: float,
) -> _Ball:
    """The two-sided sum at w as a bounded value of 2k + 1 terms: the value
    sum_(l<=k) plus_l w^l + sum_(1<=l<=k) minus_l w^(-l) by Horner's rule in
    w and in 1/w, over rows (plus, minus, bplus, bminus) in `_cauchy_table`'s
    layout, and the bound sum_(l<=k) (b_l + g |c_l|) |w|^l + tail.
    g = 10 (k + 1) eps covers Horner's rule (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 5): at most 4 eps per step for the complex
    product and sum, 6 eps per power of 1/w.  Rows past k are not summed:
    tail, the caller's bound from k + 1 on (`_laurent_window`), covers them.
    A sum or bound that overflows raises DomainError.
    """
    plus, minus, bplus, bminus = rows
    g = 10.0 * (k + 1) * _EPS
    v = 1.0 / w
    aw = abs(w)
    s: complex = 0.0
    r = 0.0
    for c, b in zip(reversed(plus[: k + 1]), reversed(bplus[: k + 1])):
        s = s * w + c
        r = r * aw + b + g * abs(c)
    t: complex = 0.0
    rt = 0.0
    for c, b in zip(reversed(minus[:k]), reversed(bminus[:k])):
        t = (t + c) * v
        rt = (rt + b + g * abs(c)) / aw
    if not (cmath.isfinite(s + t) and math.isfinite(r + rt + tail)):
        raise DomainError(f"two-sided sum at |w|={aw} overflows a double")
    return _ball((s + t, r + rt + tail, 2 * k + 1))


def _least_n(a: float, b: float, y: float) -> int:
    """The least n past the vertex with a n(n-1) + b n >= y (b > 0 if a = 0)."""
    if a == 0:
        return math.ceil(y / b)
    return math.ceil((math.sqrt(max(0.0, (b - a) ** 2 + 4.0 * a * y)) + a - b) / (2.0 * a))


def _least_window(a: float, b: float, y: float) -> int:
    """The least L at which a side's tail from L + 1 on, term L + 1 over
    (1 - its ratio), is at most e^-y times C: the quadratic formula of
    `_least_n`, solved again with the ratio at its first root."""
    return _least_n(a, b, y - math.log(-math.expm1(-2.0 * a * _least_n(a, b, y) - b))) - 1


def _laurent_window(
    ws: Tuple[float, float], log_c: Callable[[int], float], window: int, au: float, base: QBase
) -> Tuple[int, int, float]:
    """The one window rule of the two-sided sums: (L, k, the tail past k at |w| = au).

    The caller's C = e^log_c(n) bounds every row from n on:
    |c_l| <= C q^(w l(l-1)/2) and |c_(-l)| <= C q^(v l(l-1)/2 + l), (w, v) = ws.
    So each side's terms are at most C e^(-a n(n-1) - b n): a = w ln(1/q) / 2
    and b = -ln au ascending, a = v ln(1/q) / 2 and b = ln(au / q)
    descending.  Past the parabola's vertex the ratio e^(-2 a n - b) falls,
    and the tail from term n on is at most term n over (1 - its ratio).
    `_least_window` gives the least window that puts each side's tail below
    t times the parabola's peak, as `_cauchy_terms` gives a term count.
    L >= window is that window at t = tol, the rows of the table to build
    (the caller's window only sizes that shared, memoized table); k <= L is
    it at t = min(tol, eps), the last row `_laurent_sum` sums, and the tail
    bound from k + 1 on covers every later row, in the table or past it.
    A non-finite au or a peak beyond the double range raises DomainError,
    L above max_terms NonConvergence.
    """
    if not math.isfinite(au):
        raise DomainError(f"two-sided series at non-finite |u|={au}")
    lq = -math.log(base.q)
    sides = [(ws[0] * lq / 2.0, -math.log(au)), (ws[1] * lq / 2.0, math.log(au) + lq)]
    peak = 0.0
    for a, b in sides:
        if a:
            n = max(0, round(0.5 - b / (2.0 * a)))
            peak = max(peak, -a * n * (n - 1) - b * n)
    y, ye = -peak - math.log(base.tol), -peak - math.log(min(base.tol, _EPS))
    L, k = window, 0
    for a, b in sides:
        L = max(L, _least_window(a, b, y))
        k = max(k, _least_window(a, b, ye))
    k = min(k, L)
    c = log_c(k + 1)
    if c + peak > math.log(sys.float_info.max):
        raise DomainError(f"two-sided series at |u|={au} overflows a double")
    if L > base.max_terms:
        raise NonConvergence(f"two-sided series needs window {L}, more than {base.max_terms}")
    n = k + 1
    tail = sum(
        math.exp(c - a * n * (n - 1) - b * n - math.log(-math.expm1(-2.0 * a * n - b)))
        for a, b in sides
    )
    return L, k, tail


def lambda_laurent_coeff(
    kind: KindTag, l: int, base: QBase, method: str = "sum"
) -> float:
    """Coefficient a_l of u^l in the two-sided expansion of the product.

    method "sum" reads one entry of the coefficient table
    (`_lambda_coeffs`, at the window `_coeff_window`); method "bessel"
    routes through the equivalent modified-Bessel value at base q, summed
    to min(tol, eps) as the table is.  Their agreement is a test elsewhere.
    """
    if method == "sum":
        plus, minus = _lambda_coeffs(kind, _coeff_window(abs(l)), base)[:2]
        return plus[l] if l >= 0 else minus[-l - 1]
    if method != "bessel":
        raise ValueError(f"unknown method {method!r}")
    if l < 0:
        # Mirror symmetry: a_(-l) = q^l * a_l.
        return base.q ** (-l) * lambda_laurent_coeff(kind, -l, base, method)
    d = kind.delta
    return base.q ** ((2 - d) / 4.0 * l * l - l / 2.0) * _bessel_i_base_q(kind, l, base)


def lambda_laurent_table(kind: KindTag, window: int, base: QBase) -> LaurentTable:
    """Tabulate coefficients a_l for |l| <= window; window < 1 raises ValueError."""
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    plus, minus, _, _ = _lambda_coeffs(kind, window, base)
    coeffs: Dict[int, float] = dict(enumerate(plus))
    coeffs.update((-l, c) for l, c in enumerate(minus, 1))
    return LaurentTable(kind=kind, window=window, coeffs=coeffs)


def lambda_laurent_eval(
    kind: KindTag, u: complex, window: int, base: QBase
) -> SeriesValue:
    """Evaluate the two-sided expansion sum_l a_l u^l.

    Types 2 and 3 are one `_laurent_sum` of the rows |l| <= k of
    `_laurent_window`, from a table of at least `window` rows, whose bound
    carries the window's tail from k + 1 on; the tail's row bound C is
    exact for type 2 and an evaluated e3 for type 3.  Every a_l is
    positive, so the bound's rounding term is 10 (k + 1) eps Lambda(|u|),
    which near arg u = pi can exceed |Lambda(u)| by orders of magnitude;
    terms_used is 2k + 1.

    Type 1 sums all its rows at once: summed over l, the pole expansion of
    its coefficients (`_lambda_coeffs`) is Lambda_1(u) = (q;q)_inf^-2 (S(u,
    0) + w S(w, 1)), w = q/u, two Gaussian sums (`_pole_sum`), so its value
    does not depend on `window`, and terms_used is their two term counts.
    w = q/u is good to 6u (CPython's complex quotient: 3u for its
    denominator, then up to 3u more per part), which `_pole_sum` carries
    through 1 - q^m w; the product w S(w, 1) and the prefactor are bounded
    by the product rule (`_times`), the sum of the two parts by the sum
    rule (`_plus`).
    A window below 1 raises ValueError.
    """
    if u == 0:
        raise DomainError("two-sided expansion is undefined at u = 0")
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    au = abs(u)
    q = base.q
    if kind.j == 1:
        w = q / u
        if not (q < au < 1.0 and abs(w) < 1.0):
            raise DomainError(
                f"type-1 two-sided expansion requires q < |u| < 1, got |u|={au}"
            )
        what, dw = "type-1 two-sided sum at u", 6.0 * _EPS
        s0 = _pole_sum(u, 0, q)
        s1 = _times(_const(w, dw), _pole_sum(w, 1, q, dw), what, u)
        p, rel = _inv_qq(2, base)
        return SeriesValue(*_times(_const(p, rel), _plus(s0, s1, what, u), what, u))
    w = (2 - kind.delta) / 2.0
    log_qq = _base_poch(q, base)[0]

    def log_c(n: int) -> float:
        # Type 2: a_l = q^(l(l-1)/2) / (q;q)_inf exactly (`_lambda_coeffs`).
        # Type 3: for l >= n, (q;q)_(l+i) >= (q;q)_inf and q^(w i(i-1)/2) <= 1
        # give a_l <= q^(w l(l-1)/2) e(x) / (q;q)_inf, x = q^(1 + w n), and
        # e(x) is at most its evaluated value plus err_estimate.
        if kind.j == 2:
            return -log_qq
        sv = qexp_eval(kind, q ** (1.0 + w * n), base)
        return math.log(abs(sv.value) + sv.err_estimate) - log_qq

    L, k, tail = _laurent_window((w, w), log_c, window, au, base)
    return SeriesValue(*_laurent_sum(_lambda_coeffs(kind, L, base), u, k, tail))


def lambda_closed_form(kind: KindTag, u: complex, base: QBase) -> complex:
    """Lattice form of the self-reciprocal product: the leading term of
    `qexp_asymptotic` at u's lattice point, for every type.

    For types 1 and 2 this is an exact identity.  For type 3 it is the
    leading term of e3(u), which tends to Lambda_3(u) as n -> -inf, where
    e3(q/u) tends to 1; Lambda_3 has no one-step quasi-periodicity to build
    an exact form from, since e3 only satisfies e3(u) - e3(qu) = u e3(sqrt(q) u).
    """
    return qexp_asymptotic(kind, lattice_decompose(u, base), base).leading


def qexp_functional_residual(kind: KindTag, u: complex, base: QBase) -> float:
    """Normalized residual of the kind's functional equation at u.

    Type 1: L(qu) + u L(u) = 0.  Type 2: u L(qu) - L(u) = 0.  Type 3
    satisfies a four-term relation built from the type-3 exponential
    itself, at six points, each evaluated once.
    """
    if u == 0:
        raise DomainError("functional equation is undefined at u = 0")
    q = base.q
    if kind.j == 1:
        t1 = lambda_product(kind, q * u, base)
        t2 = u * lambda_product(kind, u, base)
        return abs(t1 + t2) / max(abs(t1), abs(t2))
    if kind.j == 2:
        t1 = u * lambda_product(kind, q * u, base)
        t2 = lambda_product(kind, u, base)
        return abs(t1 - t2) / max(abs(t1), abs(t2))
    e = lambda w: qexp_eval(kind, w, base).value
    rq = math.sqrt(q)
    eu = e(u)
    t1 = eu * e(q / u)
    t2 = e(q * u) * (einv := e(1.0 / u))
    t3 = u * e(rq * u) * einv
    t4 = eu * e(rq / u) / u
    scale = max(abs(t1), abs(t2), abs(t3), abs(t4))
    return abs(t1 - t2 - t3 + t4) / scale


def _theta_ratio(w: complex, base: QBase) -> complex:
    """Theta(w) / (q;q)_inf, Theta(w) = sum_{k in Z} q^(k(k-1)/4) w^k, as three products.

    With p = sqrt(q), Theta(w) = (p;p)_inf (-w;p)_inf (-p/w;p)_inf (Jacobi
    triple product; Gasper & Rahman, Basic Hypergeometric Series, 1.6) and
    (p;p)_inf = (p;q)_inf (q;q)_inf (odd and even powers of p), summed as
    logs (`_log_poch`); a value outside the normal doubles, 0 where a factor
    rounds to 0 among them, raises DomainError."""
    pb = QBase(math.sqrt(base.q), base.tol, base.max_terms)
    p = pb.q
    l1, u1, _, _ = _log_poch(-w, pb)
    l2, u2, _, _ = _log_poch(-p / w, pb)
    lv = l1 + l2 + _base_poch(p, base)[0]
    if not (u1 * u2 and _LOG_TINY <= lv.real < _LOG_HUGE):
        raise DomainError(f"type-3 leading constant at w={w} is not a normal double")
    return u1 * u2 * cmath.exp(lv)


@functools.lru_cache(maxsize=256)
def _leading_constant(kind: KindTag, lam: float, theta: float, base: QBase) -> complex:
    """The constant c of `qexp_asymptotic`'s leading term at u0 = q^lam
    e^(i theta): Theta(u0) / (q;q)_inf (`_theta_ratio`) for type 3 and
    Lambda(u0) (`lambda_product`) for types 1 and 2.

    It does not depend on n, so every row of one lattice table, and every
    family point of `qbessel.bessel_asymptotic` on it, shares one
    computation.  Memoized per (kind, lam, theta, base), at most 256
    entries process-wide; a hit is the value an uncached call computed,
    and errors are not cached.
    """
    u0 = base.q**lam * cmath.exp(1j * theta)
    if kind.j == 3:
        return _theta_ratio(u0, base)
    return lambda_product(kind, u0, base)


def qexp_asymptotic(kind: KindTag, point: LatticePoint, base: QBase) -> AsymptoticEstimate:
    """Leading-order lattice approximation of the q-exponential at point.

    With u = q^(n+lam) e^(i theta), u0 = q^lam e^(i theta) and
    N = n(n-1) + 2 lam n, types 1 and 2 use the exact lattice form of
    Lambda(u) = e(u) e(q/u): the dropped factor e(q/u) tends to 1 as
    n -> -inf.  For type 3 the terms of sum q^(k(k-1)/4) u^k/(q;q)_k peak
    at k ~ -2(n+lam), where (q;q)_k ~ (q;q)_inf, so e3(u) ~
    q^(-N-n/2) e^(-2i theta n) Theta(u0)/(q;q)_inf (see `_theta_ratio`);
    its relative error shrinks by about q^2 per step in n.  The constant
    depends on u0 alone and is memoized (`_leading_constant`).  A
    non-finite leading term raises DomainError.
    """
    q = base.q
    n, lam, th = point.n, point.lam, point.theta
    big_n = n * (n - 1) + 2.0 * lam * n
    c = _leading_constant(kind, lam, th, base)
    if kind.j == 3:
        scale = -big_n - n / 2.0
        phase = cmath.exp(-2j * th * n)
    elif kind.j == 1:
        scale = big_n / 2.0
        phase = cmath.exp(1j * (th + math.pi) * n)
    else:
        scale = -big_n / 2.0
        phase = cmath.exp(-1j * th * n)
    try:
        leading = q**scale * phase * c
    except OverflowError:  # q^scale alone is beyond the doubles
        leading = math.inf
    if not cmath.isfinite(leading):
        raise DomainError(f"leading term at n={n} is not a finite double")
    return AsymptoticEstimate(
        leading=leading, scale_exponent=scale, phase=phase, constant=c, N=big_n
    )
