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

Every two-sided coefficient table of the package, of L here and of the
Bessel products e(u) Phi(u) in `qbessel`, is one routine
(`_cauchy_table`): the Laurent product E(u) F(q/u) of two Taylor
sequences built once, with each coefficient a single C-level dot product
over slices, cut at a term count derived from a bound on the sequences
(`_cauchy_terms`) so that the truncation stays below min(tol, eps) of the
sum of |terms|.  The coefficients are therefore good to a rounding bound
that does not depend on tol.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .errors import DomainError, NonConvergence, PoleError
from .qcalc import (
    _EPS,
    _LN2,
    _RHO_CAP,
    LatticePoint,
    QBase,
    SeriesValue,
    _qseries,
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

_VALID_PAIRS = {(1, 2), (2, 0), (3, 1)}


@dataclass(frozen=True)
class KindTag:
    """Type index j in {1,2,3} with its paired exponent parameter delta."""

    j: int
    delta: int

    def __post_init__(self) -> None:
        if (self.j, self.delta) not in _VALID_PAIRS:
            raise ValueError(
                f"(j, delta) must be one of {(sorted(_VALID_PAIRS))}, "
                f"got ({self.j}, {self.delta})"
            )

    @classmethod
    def from_j(cls, j: int) -> "KindTag":
        deltas = {1: 2, 2: 0, 3: 1}
        if j not in deltas:
            raise ValueError(f"kind j must be 1, 2 or 3, got {j}")
        return cls(j, deltas[j])


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


def _nearest_pole_index(u: complex, q: float) -> int:
    """Index m >= 0 of the reciprocal-product pole q^(-m) nearest to |u|."""
    r = abs(u)
    if r <= 0:
        return 0
    return max(0, round(-math.log(r) / math.log(q)))


def qexp_eval(kind: KindTag, u: complex, base: QBase) -> SeriesValue:
    """Evaluate the q-exponential of the given type at u.

    Type 1 uses the reciprocal infinite product (valid for every non-pole
    u); type 2 the entire product; type 3 its everywhere-convergent series.
    A non-finite u, or a value or error bound that overflows a double,
    raises DomainError.
    """
    q = base.q
    u = complex(u)
    if not cmath.isfinite(u):
        raise DomainError(f"q-exponential needs a finite argument, got u={u}")
    if kind.j == 1:
        m = _nearest_pole_index(u, q)
        pole = q ** (-m)
        if abs(u - pole) < 1e-8 * pole:
            raise PoleError(f"u={u} is within the guard band of the pole q^-{m}")
        prod = qpoch_infinite(u, base)
        if prod.value == 0:
            raise PoleError(f"u={u} lies on a pole of the reciprocal product")
        v = 1.0 / prod.value
        sv = SeriesValue(v, abs(v) * prod.err_estimate / abs(prod.value), prod.terms_used)
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


def lambda_product(kind: KindTag, u: complex, base: QBase) -> complex:
    """The self-reciprocal product e^(j)(u) * e^(j)(q/u)."""
    if u == 0:
        raise DomainError("lambda product is undefined at u = 0")
    return qexp_eval(kind, u, base).value * qexp_eval(kind, base.q / u, base).value


def _bessel_i_base_q(kind: KindTag, l: int, base: QBase) -> float:
    """Modified Bessel value I_l(2 q^(delta/4); q) taken at base q.

    Same series shape as the q^2-Bessel I family but with base q and the
    fixed argument that appears in the two-sided expansion coefficients.
    """
    q = base.q
    d = kind.delta
    y = q ** (d / 4.0) / (1.0 - q)
    x = (1.0 - q) ** 2 * y * y * q ** ((2 - d) * (l + 1) / 2.0)
    s = _qseries((), (q ** (l + 1),), base, x, 2 - d)[0]
    return y**l / qgamma(l + 1, base) * s


def _poch_table(c: float, step: int, q: float, n: int) -> Tuple[List[float], float]:
    """(q^c; q^step)_k for k < n, and a bound on their relative rounding error.

    Factor i is 1 - x_i with x_i = q^(c + step i), one pow of the exact q.
    In units of eps its relative error is at most 2 (the subtraction and
    the running product) plus (2 + |ln q| (|c| + |c + step i|)) |x_i| /
    |1 - x_i|: the pow, within one ulp, and its rounded exponent,
    amplified by the factor's sensitivity.  Factors with x_i < 2^-60 are 1.0 in double and are not
    formed, which adds 2^-7 / (1 - q^step).  A factor that is exactly 0
    makes every later entry an exact 0.
    """
    lq = -math.log(q)
    k0 = min(n - 1, max(0, math.ceil((60.0 * _LN2 / lq - c) / step)))
    exps = [c + step * i for i in range(k0)]
    xs = [q**e for e in exps]
    fs = [1.0 - x for x in xs]
    p = list(accumulate(fs, mul, initial=1.0))
    p += p[-1:] * (n - 1 - k0)
    sens = sum((2.0 + lq * (abs(c) + abs(e))) * x / abs(f) for e, x, f in zip(exps, xs, fs) if f)
    return p, 2.0 * k0 + sens + 2.0**-7 / (1.0 - q**step)


def _exp_table(w: float, q: float, n: int) -> Tuple[List[float], float]:
    """E_k = q^(w k(k-1)/2) / (q;q)_k for k < n, and their relative rounding
    bound in units of eps.

    With w = (2 - delta) / 2 (0, 1, 1/2 for types 1, 2, 3) these are the
    Taylor coefficients of the type's exponential.  The caller has checked
    that (q;q)_inf is a normal double, so no division overflows.
    """
    p, rel = _poch_table(1.0, 1, q, n)
    return [q ** (w * (k * (k - 1) // 2)) / x for k, x in enumerate(p)], rel + 3.0


def _abs_sum(a: Sequence[float], bq: Sequence[float], l: int, c: float, k: int) -> float:
    """sum_i |a_(l+i) bq_i| of the dot product c = sum_i a_(l+i) bq_i whose
    terms share one sign from i = k on: the first k terms, plus |c| less
    their sum."""
    if k <= 0:
        return abs(c)
    head = [a[l + i] * bq[i] for i in range(min(k, len(bq)))]
    return sum(map(abs, head)) + abs(c - sum(head))


def _cauchy_terms(w: float, log_bound: float, base: QBase) -> int:
    """The number of terms M of every dot product of a coefficient table.

    A table is the Laurent product E(u) F(q/u) of two Taylor series, E an
    exponential's (`_cauchy_table`).  Every ratio of E's entries obeys
    |E_(k+i) / E_k| <= q^(w i(i-1)/2) / (q;q)_inf, as
    (q^(k+1);q)_i >= (q;q)_inf; with B_F bounding F's ratios the same
    way, without the Gaussian, every term of a coefficient is
    |t_i| <= |t_0| e^log_bound q^(w i(i-1)/2 + i), log_bound =
    ln(B_E B_F).  The tail past M terms is then below |t_0| e^log_bound
    q^(w M(M-1)/2 + M) / (1 - q), and M is the least count that puts it
    at min(tol, eps) |t_0| <= min(tol, eps) sum |t_i|.  More than
    max_terms raises NonConvergence.
    """
    q = base.q
    y = (log_bound - math.log((1.0 - q) * min(base.tol, _EPS))) / -math.log(q)
    if w == 0:
        m = math.ceil(y)
    else:
        b = 1.0 - w / 2.0  # w M(M-1)/2 + M = (w/2) M^2 + b M
        m = math.ceil((math.sqrt(b * b + 2.0 * w * y) - b) / w)
    if m > base.max_terms:
        raise NonConvergence(f"coefficient table needs {m} terms, more than {base.max_terms}")
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
) -> Tuple[List[float], List[float], List[float], List[float]]:
    """The one coefficient routine: the Laurent product E(u) F(q/u).

    Returns (ascending, descending, their bounds): c_l = sum_i e_(l+i) f_i
    q^i for l in ls and c_(-l) = q^l sum_i f_(l+i) e_i q^i for l in lm,
    each one C-level dot product over slices of M = m terms
    (`_cauchy_terms`).  The bound of each is kappa eps sum |t| + eta:
    kappa adds rel (both sequences' rounding), 2 for the pow q^i, 2 for
    the products, M - 1 for the sum, 1 for the truncation and 3 for q^l, and
    eta = M e^log_bound 2^-1074 covers terms that underflow.  f's entries
    share one sign from index h on (`_abs_sum`).  A non-finite
    coefficient raises DomainError.
    """
    qpow = [q**i for i in range(m)]
    eq = list(map(mul, e, qpow))
    fq = list(map(mul, f, qpow))
    plus = [sum(map(mul, e[l : l + m], fq)) for l in ls]
    minus = [sum(map(mul, f[l : l + m], eq)) for l in lm]
    if not all(map(math.isfinite, plus + minus)):
        raise DomainError("two-sided coefficients overflow a double")
    kappa = (rel + m + 7.0) * _EPS
    eta = math.exp(log_bound + math.log(m) - 1074.0 * _LN2)
    bp = [kappa * _abs_sum(e, fq, l, c, h) + eta for l, c in zip(ls, plus)]
    bm = [kappa * q**l * _abs_sum(f, eq, l, c, h - l) + eta for l, c in zip(lm, minus)]
    return plus, [q**l * c for l, c in zip(lm, minus)], bp, bm


def _lambda_coeffs(
    kind: KindTag, lo: int, hi: int, base: QBase
) -> Tuple[List[float], List[float]]:
    """Coefficients a_l, l = lo..hi, of Lambda(u) = e(u) e(q/u), and their bounds.

    The coefficient table with F = E, so log_bound = -2 ln (q;q)_inf and
    every term is positive.  A product (q;q)_inf below the smallest
    normal double (q near 1) raises DomainError.
    """
    q = base.q
    w = (2 - kind.delta) / 2.0
    log_b = -2.0 * math.log(qpoch_infinite(q, base).value.real)
    m = _cauchy_terms(w, log_b, base)
    e, rel = _exp_table(w, q, hi + m)
    a, _, b, _ = _cauchy_table(e, e, 2.0 * rel, m, log_b, q, range(lo, hi + 1), range(0), 0)
    return a, b


def lambda_laurent_coeff(
    kind: KindTag, l: int, base: QBase, method: str = "sum"
) -> float:
    """Coefficient a_l of u^l in the two-sided expansion of the product.

    method "sum" reads one entry of the coefficient table
    (`_lambda_coeffs`); method "bessel" routes through the equivalent
    modified-Bessel value at base q.  The two agree and their equality is
    a test elsewhere.
    """
    if l < 0:
        # Mirror symmetry: a_(-l) = q^l * a_l.
        return base.q ** (-l) * lambda_laurent_coeff(kind, -l, base, method)
    q = base.q
    d = kind.delta
    if method == "bessel":
        return q ** ((2 - d) / 4.0 * l * l - l / 2.0) * _bessel_i_base_q(kind, l, base)
    if method != "sum":
        raise ValueError(f"unknown method {method!r}")
    return _lambda_coeffs(kind, l, l, base)[0][0]


def _lambda_table(
    kind: KindTag, window: int, base: QBase
) -> Tuple[LaurentTable, List[float]]:
    """The table of a_l, |l| <= window, with the bounds of a_0..a_window."""
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    a, bounds = _lambda_coeffs(kind, 0, window, base)
    coeffs: Dict[int, float] = {0: a[0]}
    for l in range(1, window + 1):
        coeffs[l] = a[l]
        coeffs[-l] = base.q**l * a[l]
    return LaurentTable(kind=kind, window=window, coeffs=coeffs), bounds


def lambda_laurent_table(kind: KindTag, window: int, base: QBase) -> LaurentTable:
    """Tabulate coefficients a_l for |l| <= window; window < 1 raises ValueError.

    One coefficient table: a_(-l) = q^l a_l, since with F = E the
    descending dot products repeat the ascending ones term for term.
    """
    return _lambda_table(kind, window, base)[0]


def _type1_tail(u: complex, window: int, base: QBase) -> SeriesValue:
    """The type-1 expansion beyond the window, sum_{|l|>window} a_l u^l.

    The coefficients have the pole expansion
    a_l = (q;q)_inf^-2 sum_{m>=0} (-1)^m q^(m(m+1)/2 + m l) for l >= 0, and
    a_(-l) = q^l a_l, so each geometric series in l sums in closed form:
    x^(W+1)/(1-x) with x = q^m u, and y^(W+1)/(1-y) with y = q^(m+1)/u.
    The remaining sum over m decays like a Gaussian.
    """
    q = base.q
    e = window + 1
    s: complex = 0.0
    prev = 0.0
    m = 0
    while m < base.max_terms:
        x = q**m * u
        y = q ** (m + 1) / u
        t = (-1) ** m * q ** (m * (m + 1) / 2.0) * (x**e / (1.0 - x) + y**e / (1.0 - y))
        s += t
        ta = abs(t)
        m += 1
        if ta <= base.tol * abs(s):
            rho = ta / prev if prev else 0.0
            if rho >= _RHO_CAP:
                raise NonConvergence(f"type-1 tail beyond window {window} is not yet geometric")
            qq = qpoch_infinite(q, base)
            inv = 1.0 / qq.value.real**2
            err = inv * (ta * rho / (1.0 - rho) + abs(s) * 2.0 * qq.err_estimate / qq.value.real)
            return SeriesValue(s * inv, err, m)
        prev = ta
    raise NonConvergence(f"type-1 tail did not converge within {base.max_terms} terms")


def lambda_laurent_eval(
    kind: KindTag, u: complex, window: int, base: QBase
) -> SeriesValue:
    """Evaluate the two-sided expansion sum_l a_l u^l.

    The coefficients |l| <= window come from the coefficient table
    (`_lambda_table`).  For types 2 and 3 they decay like a Gaussian, and
    the part beyond the window is bounded from the decay of the outermost
    bands.  Type-1 coefficients tend to (q;q)_inf^-2, so that part is
    summed in closed form instead (`_type1_tail`).  err_estimate adds
    sum_l b_l |u|^l for the coefficients' own bounds b_l, which do not
    depend on tol, and (2 window + 3) eps Lambda(|u|) for the rounding of
    the sum and of q^l a_l: every a_l is positive, so
    sum |a_l u^l| = Lambda(|u|).  Near arg u = pi that term can exceed
    |Lambda(u)| by orders of magnitude.  A window below 1 raises
    ValueError.
    """
    if u == 0:
        raise DomainError("two-sided expansion is undefined at u = 0")
    q = base.q
    if kind.j == 1 and not q < abs(u) < 1.0:
        raise DomainError(
            f"type-1 two-sided expansion requires q < |u| < 1, got |u|={abs(u)}"
        )
    table, bounds = _lambda_table(kind, window, base)
    s: complex = 0.0
    for l in range(-window, window + 1):
        s += table.coeffs[l] * u**l
    terms = 2 * window + 1
    au = abs(u)
    err = (terms + 2) * _EPS * lambda_product(kind, au, base).real
    err += bounds[0] + sum(b * (au**l + (q / au) ** l) for l, b in enumerate(bounds[1:], 1))
    if kind.j == 1:
        tail = _type1_tail(u, window, base)
        return SeriesValue(s + tail.value, err + tail.err_estimate, terms + tail.terms_used)
    # Tail estimate from the decay of the outermost bands.
    for hi, lo in ((window, window - 1), (-window, -(window - 1))):
        t_hi = abs(table.coeffs[hi] * u**hi)
        t_lo = abs(table.coeffs[lo] * u**lo)
        if t_hi == 0:
            continue
        if t_lo == 0 or t_hi / t_lo >= _RHO_CAP:
            raise NonConvergence(
                f"coefficient decay is not yet geometric at window {window}"
            )
        rho = t_hi / t_lo
        err += t_hi * rho / (1.0 - rho)
    return SeriesValue(s, err, terms)


def lambda_closed_form(kind: KindTag, u: complex, base: QBase) -> complex:
    """Discrete lattice realization of the self-reciprocal product.

    For types 1 and 2 this is an exact identity.  For type 3 it is the
    growth-envelope model with the q^(-1/24) normalization, and it is not
    even an order-of-magnitude scale: at 50 random lattice points with
    q in (0.2, 0.8) and n in [-8, 3], |closed/direct| spans 6.6e-11 to
    546.  Lambda_3 has no one-step quasi-periodicity to build an exact
    form from, since e3 satisfies only e3(u) - e3(qu) = u e3(sqrt(q) u).
    """
    q = base.q
    p = lattice_decompose(u, base)
    n, lam, th = p.n, p.lam, p.theta
    u0 = q**lam * cmath.exp(1j * th)
    c = lambda_product(kind, u0, base)
    if kind.j == 1:
        return c * cmath.exp(1j * (th + math.pi) * n) * q ** (n * (n - 1) / 2.0 + lam * n)
    if kind.j == 2:
        return c * cmath.exp(-1j * th * n) * q ** (-n * (n - 1) / 2.0 - lam * n)
    c3 = q ** (-1.0 / 24.0) * c
    return c3 * q ** (-2.0 / 3.0 * n * (n - 1) - 4.0 / 3.0 * n * lam) * cmath.exp(
        -4j * th * n / 3.0
    )


def qexp_functional_residual(kind: KindTag, u: complex, base: QBase) -> float:
    """Normalized residual of the kind's functional equation at u.

    Type 1: L(qu) + u L(u) = 0.  Type 2: u L(qu) - L(u) = 0.  Type 3
    satisfies a four-term relation built from the type-3 exponential
    itself.
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
    t1 = e(u) * e(q / u)
    t2 = e(q * u) * e(1.0 / u)
    t3 = u * e(rq * u) * e(1.0 / u)
    t4 = e(u) * e(rq / u) / u
    scale = max(abs(t1), abs(t2), abs(t3), abs(t4))
    return abs(t1 - t2 - t3 + t4) / scale


def _jacobi_theta(w: complex, base: QBase) -> complex:
    """Theta(w) = sum_{k in Z} q^(k(k-1)/4) w^k as a Jacobi triple product.

    With p = sqrt(q), Theta(w) = (p;p)_inf (-w;p)_inf (-p/w;p)_inf
    (Gasper & Rahman, Basic Hypergeometric Series, section 1.6).
    """
    pb = QBase(math.sqrt(base.q), base.tol, base.max_terms)
    p = pb.q
    return (
        qpoch_infinite(p, pb).value
        * qpoch_infinite(-w, pb).value
        * qpoch_infinite(-p / w, pb).value
    )


def qexp_asymptotic(kind: KindTag, point: LatticePoint, base: QBase) -> AsymptoticEstimate:
    """Leading-order lattice approximation of the q-exponential at point.

    With u = q^(n+lam) e^(i theta), u0 = q^lam e^(i theta) and
    N = n(n-1) + 2 lam n, types 1 and 2 use the exact lattice form of
    Lambda(u) = e(u) e(q/u): the dropped factor e(q/u) tends to 1 as
    n -> -inf.  For type 3 the terms of sum q^(k(k-1)/4) u^k/(q;q)_k peak
    at k ~ -2(n+lam), where (q;q)_k ~ (q;q)_inf, so e3(u) ~
    q^(-N-n/2) e^(-2i theta n) Theta(u0)/(q;q)_inf (see `_jacobi_theta`);
    its relative error shrinks by about q^2 per step in n.
    """
    q = base.q
    n, lam, th = point.n, point.lam, point.theta
    big_n = n * (n - 1) + 2.0 * lam * n
    u0 = q**lam * cmath.exp(1j * th)
    if kind.j == 3:
        scale = -big_n - n / 2.0
        phase = cmath.exp(-2j * th * n)
        c = _jacobi_theta(u0, base) / qpoch_infinite(q, base).value
    else:
        c = lambda_product(kind, u0, base)
        if kind.j == 1:
            scale = big_n / 2.0
            phase = cmath.exp(1j * (th + math.pi) * n)
        else:
            scale = -big_n / 2.0
            phase = cmath.exp(-1j * th * n)
    leading = q**scale * phase * c
    return AsymptoticEstimate(
        leading=leading, scale_exponent=scale, phase=phase, constant=c, N=big_n
    )
