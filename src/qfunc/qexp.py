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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from .errors import DomainError, NonConvergence, PoleError
from .qcalc import (
    _EPS,
    _RHO_CAP,
    LatticePoint,
    QBase,
    SeriesValue,
    _qseries,
    lattice_decompose,
    qgamma,
    qpoch_finite,
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


def lambda_laurent_coeff(
    kind: KindTag, l: int, base: QBase, method: str = "sum"
) -> float:
    """Coefficient a_l of u^l in the two-sided expansion of the product.

    method "sum" evaluates the explicit inner sum directly; method
    "bessel" routes through the equivalent modified-Bessel value at base
    q.  The two agree and their equality is a test elsewhere.
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
    outer = q ** ((2 - d) / 4.0 * l * (l - 1)) / qpoch_finite(q, base, l).real
    x = q ** ((2 - d) * (l + 1) / 2.0 + d / 2.0)
    return outer * _qseries((), (q ** (l + 1),), base, x, 2 - d)[0]


def lambda_laurent_table(kind: KindTag, window: int, base: QBase) -> LaurentTable:
    """Tabulate coefficients a_l for |l| <= window; window < 1 raises ValueError."""
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    coeffs: Dict[int, float] = {}
    for l in range(window + 1):
        a = lambda_laurent_coeff(kind, l, base)
        coeffs[l] = a
        if l > 0:
            coeffs[-l] = base.q**l * a
    return LaurentTable(kind=kind, window=window, coeffs=coeffs)


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

    The coefficients |l| <= window come from `lambda_laurent_coeff`.  For
    types 2 and 3 they decay like a Gaussian, and the part beyond the
    window is bounded from the decay of the outermost bands.  Type-1
    coefficients tend to (q;q)_inf^-2, so that part is summed in closed
    form instead (`_type1_tail`).  Every a_l is positive, so
    sum |a_l u^l| = Lambda(|u|); err_estimate adds
    (tol + (2 window + 1) eps) Lambda(|u|) for the coefficients' relative
    error and the rounding of the sum.  Near arg u = pi that term can
    exceed |Lambda(u)| by orders of magnitude.  A window below 1 raises
    ValueError.
    """
    if u == 0:
        raise DomainError("two-sided expansion is undefined at u = 0")
    q = base.q
    if kind.j == 1 and not q < abs(u) < 1.0:
        raise DomainError(
            f"type-1 two-sided expansion requires q < |u| < 1, got |u|={abs(u)}"
        )
    table = lambda_laurent_table(kind, window, base)
    s: complex = 0.0
    for l in range(-window, window + 1):
        s += table.coeffs[l] * u**l
    terms = 2 * window + 1
    err = (base.tol + terms * _EPS) * lambda_product(kind, abs(u), base).real
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
