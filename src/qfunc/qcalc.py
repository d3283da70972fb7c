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
  bessel_series (base q^2)    -               q^(2nu+2)          2-d      -+(1-q^2)^2 z^2 q^((2-d)(1+nu))
  lambda_laurent_coeff,       -               q^(l+1)            2-d      q^((2-d)(l+1)/2 + d/2)
    _bessel_i_base_q
  bessel_laurent_coeff minus  q^(-+nu+1/2+l)  q^(l+1), -q^(l+1)  (2-d)/2  q
  bessel_laurent_coeff plus   q^(-+nu+1/2)    q^(l+1), -q        (2-d)/2  q^((2-d)l/2 + 1)

The kernel stops at the first n >= 2 with |t_n| < tol |s| and term ratio
rho = |t_n / t_(n-1)| < 0.99, returns s + t_n, and bounds the tail past
t_n by |t_n| rho / (1 - rho).  That bound assumes the ratio has settled
and carries no rounding term.  The two-sided sums (qexp._type1_tail,
lambda_laurent_eval, bessel_type3_repr) keep their own loops.  Infinite
products bound the log-tail by sum |a q^k| <= |a q^K| / (1 - q).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

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

# Term ratios above this are treated as "not yet geometric".
_RHO_CAP = 0.99


@dataclass(frozen=True)
class QBase:
    """The deformation parameter q in (0,1) plus evaluation tolerances."""

    q: float
    tol: float = 1e-12
    max_terms: int = 100000

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie strictly inside (0,1), got {self.q}")
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be at least 1, got {self.max_terms}")

    def squared(self) -> "QBase":
        """The same tolerances with base q^2."""
        return QBase(self.q * self.q, self.tol, self.max_terms)


@dataclass(frozen=True)
class SeriesValue:
    """A computed value with truncation-error estimate and term count."""

    value: complex
    err_estimate: float
    terms_used: int


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


def qpoch_infinite(a: complex, base: QBase) -> SeriesValue:
    """Infinite Pochhammer product (a;q)_inf = prod_{k>=0} (1 - a q^k)."""
    if a == 0:
        return SeriesValue(1.0, 0.0, 0)
    q = base.q
    p: complex = 1.0
    f = a
    k = 0
    while k < base.max_terms:
        if f == 1.0:
            # A factor vanishes exactly; the product is identically zero.
            return SeriesValue(0.0, 0.0, k + 1)
        p *= 1.0 - f
        f *= q
        k += 1
        tail = abs(f) / (1.0 - q)
        if tail <= base.tol:
            err = abs(p) * math.expm1(tail) if tail < 1.0 else math.inf
            return SeriesValue(p, err, k)
    raise NonConvergence(
        f"infinite product did not meet its tail bound within {base.max_terms} factors"
    )


@functools.lru_cache(maxsize=256)
def qgamma(alpha: float, base: QBase) -> float:
    """The q-gamma function (q;q)_inf / (q^alpha;q)_inf * (1-q)^(1-alpha).

    Memoized per (alpha, base) in a process-wide cache bounded to 256
    entries; a hit returns the float an uncached call computes, bit for
    bit.  A pole raises PoleError on every call, as errors are not cached.
    A product below the smallest normal double (q near 1: (q;q)_inf is
    about exp(-pi^2 / (6 (1-q)))) has lost its digits, so it raises
    DomainError instead of returning a wrong value.
    """
    if alpha <= 0 and float(alpha).is_integer():
        raise PoleError(f"q-gamma has a pole at nonpositive integer alpha={alpha}")
    q = base.q
    num = qpoch_infinite(q, base).value.real
    den = qpoch_infinite(q**alpha, base).value.real
    if min(abs(num), abs(den)) < sys.float_info.min:
        raise DomainError(f"q-gamma products underflow a double at q={q}, alpha={alpha}")
    return num / den * (1.0 - q) ** (1.0 - alpha)


def _is_terminating(upper: Sequence[complex], base: QBase) -> bool:
    """Whether some upper parameter equals q^(-m), making the series finite."""
    q = base.q
    for a in upper:
        r = abs(a)
        if r < 1.0 or a == 0:
            continue
        m = round(-math.log(r) / math.log(q))
        if m >= 0 and abs(a * q**m - 1.0) < 1e-12:
            return True
    return False


def _qseries(
    upper: Sequence[complex],
    lower: Sequence[complex],
    base: QBase,
    z: complex,
    weight: float,
) -> Tuple[complex, float, int]:
    """The one term-ratio summation loop of the package.

    Sums t_n = prod (a_i;q)_n / [(q;q)_n prod (b_j;q)_n] q^(weight n(n-1)/2) z^n
    until n >= 2, |t_n| < tol |s| and rho = |t_n / t_(n-1)| < _RHO_CAP,
    and returns (s + t_n, |t_n| rho / (1 - rho), terms summed): the tail
    past t_n is bounded as geometric.  An infinite or NaN term raises
    DomainError at once.  A plain tuple, so that callers which rescale
    the sum build one SeriesValue, not two.
    """
    q = base.q
    tol = base.tol
    qw = q**weight
    g = z  # z q^(weight n), a running product
    s: complex = 0.0
    t: complex = 1.0  # t_n
    ta = 1.0
    inf = math.inf
    for n in range(base.max_terms):
        s += t
        # One power per term, not a running product that drifts by an ulp
        # a term: the integer-order limit in bessel_combination divides
        # differences of these sums by an order offset of 1e-5.
        qn = q**n
        num: complex = g
        den: complex = 1.0 - qn * q
        # The guards skip building an empty iterator on every term.
        if upper:
            for a in upper:
                num *= 1.0 - a * qn
        if lower:
            for b in lower:
                f = 1.0 - b * qn
                if f == 0:
                    raise ParameterPole(
                        f"lower parameter {b} annihilates the denominator at n={n}"
                    )
                den *= f
        prev = ta
        t = t * num / den  # t_(n+1)
        ta = abs(t)
        if not 0.0 < ta < inf:
            if ta == 0:
                return s, 0.0, n + 1
            raise DomainError(f"q-series term {n + 1} is not finite: {t}")
        if ta < tol * abs(s) and n >= 1 and ta < _RHO_CAP * prev:
            rho = ta / prev
            return s + t, ta * rho / (1.0 - rho), n + 2
        g *= qw
    raise NonConvergence(f"q-series did not converge within {base.max_terms} terms")


def basic_hyper(
    upper: Sequence[complex],
    lower: Sequence[complex],
    base: QBase,
    z: complex,
) -> SeriesValue:
    """Basic hypergeometric series rPhis(upper; lower; q, z).

    Term n carries prod (a_i;q)_n / [(q;q)_n prod (b_i;q)_n] times
    ((-1)^n q^(n(n-1)/2))^(s-r+1) z^n.  For the balanced non-terminating
    case (s - r + 1 == 0) the series requires |z| < 1.
    """
    w = len(lower) - len(upper) + 1
    if z == 0:
        return SeriesValue(1.0, 0.0, 1)
    if w == 0 and abs(z) >= 1.0 and not _is_terminating(upper, base):
        raise NonConvergence(
            f"balanced non-terminating series requires |z| < 1, got |z|={abs(z)}"
        )
    return SeriesValue(*_qseries(upper, lower, base, z * (-1.0) ** w, w))


def qdiff_apply(f: Callable[[complex], complex], z: complex, base: QBase) -> complex:
    """The q-difference operator (f(z) - f(qz)) / ((1-q^2) z)."""
    if z == 0:
        raise DomainError("q-difference operator is undefined at z = 0")
    q = base.q
    return (f(z) - f(q * z)) / ((1.0 - q * q) * z)


def lattice_decompose(u: complex, base: QBase) -> LatticePoint:
    """Decompose nonzero u as |u| = q^(n+lam), theta = arg u.

    Uses floor (not truncation toward zero) so lam is in [0,1) for all
    magnitudes.
    """
    u = complex(u)
    if u == 0:
        raise DomainError("cannot decompose u = 0 on the q-lattice")
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
