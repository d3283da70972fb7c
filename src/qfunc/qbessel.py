"""q^2-Bessel functions of types 1-3: J, Y, I and K families.

Series definitions, the Y/K combinations with their integer-order limit
procedure, two-sided expansion coefficients (one memoized table of the
type-1 and type-2 rows per (nu, window, q), `_laurent_tables`, whose rows
every coefficient reader indexes; the type-3 rows are their geometric
mean, `_type3_tables`), difference equations and Wronskians.

Every second-solution representation and every large-argument leading
term is one family map, `_family`: the J/Y/I/K combination of a factor
f(w) taken at w = +-u (I), -u (K) or +-iu (J, Y).  The callers differ only
in f, a bounded value: e(w) Phi(w) for `bessel_phi_repr`, the two-sided
type-3 series for `bessel_type3_repr`, and the lattice leading term of
e(w) from `qexp.qexp_asymptotic`, with Phi replaced by 1, for
`bessel_asymptotic` (all three types; `type3_asymptotic_bracket` adds the
sampled bracket).

Every bound here is composed by `qcalc`'s product and sum rules (`_times`,
`_plus`) from the bounds of the series and of the constants in front of
them: the series prefactor z^nu / Gamma_(q^2)(nu+1) (`_series`), the Y/K
constant q^(-nu^2+nu) Gamma_(q^2)(nu) Gamma_(q^2)(1-nu) (`_combination_raw`),
the integer-order limit's two weights (`bessel_combination`, from the four
combinations it extrapolates) and the family map's c_w, one constant per
point w (`_family`).  Each constant counts its own rounding, and q-gamma's
error (`qcalc._qgamma`); a two-sided f is one bounded value of
`qexp._laurent_sum`, its window's tail included.

Argument convention: public entry points taking z mean F(2(1-q^2)z; q^2);
representation-based operations take u = (1-q^2)z.  The conversion lives
at the API boundary and nowhere else.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from operator import add, mul
from typing import Callable, List, Sequence, Tuple

from .errors import (
    DomainError,
    LimitUnstable,
    NegativeProduct,
    NonConvergence,
    ParameterPole,
)
from .qcalc import (
    _EPS,
    LatticePoint,
    _Ball,
    QBase,
    SeriesValue,
    _ball,
    _base_poch,
    _const,
    _log_poch,
    _plus,
    _qgamma,
    _qseries,
    _times,
    basic_hyper,
)
from .qexp import (
    AsymptoticEstimate,
    KindTag,
    _Rows,
    _cauchy_table,
    _cauchy_terms,
    _coeff_window,
    _exp_table,
    _laurent_sum,
    _laurent_window,
    _poch_table,
    qexp_asymptotic,
    qexp_eval,
)

__all__ = [
    "BesselSpec",
    "CoeffPair",
    "PhiBracket",
    "a_nu",
    "phi_nu",
    "bessel_series",
    "bessel_combination",
    "bessel_value",
    "bessel_reference",
    "bessel_phi_repr",
    "bessel_laurent_coeff",
    "type3_coeff",
    "bessel_type3_repr",
    "bessel_diffeq_residual",
    "wronskian",
    "wronskian_closed",
    "bessel_asymptotic",
    "type3_asymptotic_bracket",
]

_FAMILIES = ("J", "Y", "I", "K")

# Offsets for the integer-order limit of the Y and K combinations.
_LIMIT_EPS = (1e-4, 1e-5)
# Samples per side of the type-3 phi bracket, and their offset from the ends.
_PHI_GRID, _PHI_OFFSET = 64, 1e-6


@dataclass(frozen=True)
class BesselSpec:
    """A (type, family, order) selector for one q^2-Bessel function."""

    kind: KindTag
    family: str
    nu: float

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        _check_order(self.nu)


def _check_order(nu: float) -> None:
    """DomainError naming nu unless the order is finite."""
    if not math.isfinite(nu):
        raise DomainError(f"q^2-Bessel functions need a finite order, got nu={nu}")


@dataclass(frozen=True)
class CoeffPair:
    """Two-sided expansion coefficients of types 1 and 2 with their geometric mean."""

    l: int
    sign: str
    c1: float
    c2: float
    c3: float


@dataclass(frozen=True)
class PhiBracket:
    """Numerical bracket for the mean-value factor phi1(alpha)*phi2(beta)."""

    phi_min: float
    phi_max: float
    samples: Tuple[Tuple[str, float, float], ...]


def _cpow(z: complex, s: float) -> Tuple[complex, float]:
    """Principal-branch power z^s, theta = arg z in (-pi, pi], for z != 0,
    with its relative rounding bound: exp(s (ln|z| + i theta)), where |z|
    (hypot), its log and theta (atan2) are each within an ulp (2 eps, eps
    = 2^-53) and the product by s adds eps, so the exponent is good to |s|
    (2 + 3 |ln|z|| + 3 |theta|) eps, and the exp to 5 eps (an exp, a cos
    or sin and a product per part)."""
    z = complex(z)
    theta = math.atan2(z.imag, z.real)
    if theta <= -math.pi:
        theta = math.pi
    lz = math.log(abs(z))
    rel = 5.0 + abs(s) * (2.0 + 3.0 * abs(lz) + 3.0 * abs(theta))
    return cmath.exp(s * (lz + 1j * theta)), rel * _EPS


def _qpow_rel(q: float, nu: float, c: float) -> float:
    """The relative rounding bound of q ** (-nu * nu + c): the exponent's
    product and sum, eps nu^2 and eps |-nu^2 + c| (eps = 2^-53), scaled by
    |ln q|, and the pow within an ulp (2 eps)."""
    return (2.0 + abs(math.log(q)) * (nu * nu + abs(c - nu * nu))) * _EPS


def a_nu(nu: float, base: QBase) -> complex:
    """Normalization constant of the second-solution representations.

    Real positive for small positive orders; complex permitted when the
    defining square is negative.  Integer orders take their own branch.
    The value of its bounded form (`_a_nu`), and memoized by that form's
    memo, bit-identical to an uncached call.
    """
    return _a_nu(nu, base)[0]


@functools.lru_cache(maxsize=256)
def _a_nu(nu: float, base: QBase) -> Tuple[complex, float]:
    """a_nu = sqrt(sq) with a bound on its relative error, which the family
    map (`_family`) takes into its prefactor's.  Every family map reads
    it, so it is memoized per (nu, base), at most 256 entries process-wide,
    the one memo of a_nu; errors are not cached.

    In units of eps = 2^-53, with pow, log, sin and sqrt within an ulp (2):
      * non-integer nu, sq = q^(-nu+1/2) (1 - q^2) / (2 G_nu G_(1-nu)
        sin(nu pi)), G at base q^2 (`qcalc._qgamma`): q^(-nu+1/2) to 2 + |ln
        q| |1/2 - nu|; 1 - q^2 to 1 / (1 - q^2), from q^2's rounding and the
        difference; sin(nu pi) to 2 + 2 |nu pi cot(nu pi)|, from nu pi's two
        roundings (pi's own and the product); 1 for each of the four
        products and quotients; and the two G's relative bounds;
      * integer nu, sq = q^(-nu^2+1/2) ln(q^-2) / (2 pi): the power as
        `_qpow_rel`, the log to 2 + 2 / |ln q^-2| (q^-2 one pow), 2 pi to 1,
        and 1 each for the product and the quotient;
      * the square root halves sq's relative error and adds 2.
    """
    q = base.q
    if float(nu).is_integer():
        lg = math.log(q**-2.0)
        sq = q ** (-nu * nu + 0.5) * lg / (2.0 * math.pi)
        rel = _qpow_rel(q, nu, 0.5) + (5.0 + 2.0 / abs(lg)) * _EPS
    else:
        b2 = base.squared()
        (g, rg), (h, rh) = _qgamma(nu, b2), _qgamma(1.0 - nu, b2)
        t = nu * math.pi
        sq = q ** (-nu + 0.5) * (1.0 - q * q) / (2.0 * g * h * math.sin(t))
        rel = rg + rh + _EPS * (
            8.0 + abs(math.log(q) * (0.5 - nu)) + 1.0 / (1.0 - q * q) + 2.0 * abs(t / math.tan(t))
        )
    return cmath.sqrt(sq), 0.5 * rel + 2.0 * _EPS


def phi_nu(nu: float, u: complex, base: QBase) -> SeriesValue:
    """The 2Phi1 factor with argument q/u; requires |u| > q."""
    q = base.q
    if abs(u) <= q:
        raise NonConvergence(f"phi factor requires |u| > q, got |u|={abs(u)}")
    upper = [q ** (nu + 0.5), q ** (-nu + 0.5)]
    return basic_hyper(upper, [-q], base, q / u)


def bessel_series(spec: BesselSpec, z: complex, base: QBase) -> SeriesValue:
    """Defining series of the J or I family at argument 2(1-q^2)z.

    Type 1 requires |z| < 1/(1-q^2).  The order prefactor z^nu uses the
    principal branch.
    """
    if spec.family not in ("J", "I"):
        raise ValueError(f"bessel_series handles J and I only, got {spec.family!r}")
    return SeriesValue(*_series(spec.kind, spec.family, spec.nu, z, base, base.squared()))


def _series(
    kind: KindTag, family: str, nu: float, z: complex, base: QBase, b2: QBase
) -> _Ball:
    """The J or I series of `bessel_series`, for a base b2 = base.squared().

    The scaled argument x has an exactly zero imaginary part at real and
    at purely imaginary z; the kernel then sums x.real in real arithmetic,
    whose roundings are those of the complex sum's real part.

    The prefactor z^nu / G_(nu+1), G at base q^2 (`qcalc._qgamma`), is a
    bounded value: `_cpow`'s bound, eps for the quotient and G's relative
    bound; the product rule (`qcalc._times`) joins it to the kernel's sum.
    """
    q = base.q
    d = kind.delta
    if float(nu).is_integer() and nu <= -1:
        raise ParameterPole(f"series prefactor has a pole at order nu={nu}")
    if kind.j == 1 and abs(z) >= 1.0 / (1.0 - q * q):
        raise NonConvergence(
            f"type-1 series requires |z| < 1/(1-q^2), got |z|={abs(z)}"
        )
    z = complex(z)
    if z == 0:
        if nu > 0:
            return _Ball(0.0, 0.0, 0)
        if nu == 0:
            return _Ball(1.0, 0.0, 1)
        raise DomainError("negative-order series is singular at z = 0")
    sgn = -1.0 if family == "J" else 1.0
    g, rg = _qgamma(nu + 1.0, b2)
    zn, rel = _cpow(z, nu)
    pref = _const(zn / g, rel + rg + _EPS)
    x = sgn * (1.0 - q * q) ** 2 * z * z * q ** ((2 - d) * (1.0 + nu))
    s = _ball(_qseries((), (q ** (2 * nu + 2),), b2, x if x.imag else x.real, 2 - d))
    return _times(pref, s, "q^2-Bessel series at z", z)


def _combination_raw(
    family: str, nu: float, p: _Ball, m: _Ball, base: QBase, b2: QBase
) -> _Ball:
    """The defining Y/K combination at a non-integer order nu, from p and m,
    the J (for Y) or I (for K) series at orders nu and -nu:

      Y = c (cos(nu pi) p - m) / pi,  K = c (m - p) / 2,
      c = q^(-nu^2+nu) G_nu G_(1-nu), G at base q^2 (`qcalc._qgamma`).

    c / pi and c / 2 are one bounded value each: q^(-nu^2+nu) as
    `_qpow_rel`, G's relative bounds, eps for each of the two products, and
    2 eps more for / pi (pi's own rounding and the quotient; / 2 is exact).
    cos(nu pi) is good to 2 eps (|cos| + |nu pi|), from nu pi's two roundings
    and the cos within an ulp.  The product (`qcalc._times`) and sum
    (`qcalc._plus`) rules compose them with the two series in the order of
    the value, so the bound carries G's error and the rounding of the
    difference."""
    q = base.q
    (g, rg), (h, rh) = _qgamma(nu, b2), _qgamma(1.0 - nu, b2)
    gg = g * h
    e, rel = q ** (-nu * nu + nu), _qpow_rel(q, nu, nu) + rg + rh + 2.0 * _EPS
    what = "Y/K combination at nu"
    if family == "Y":
        pref = _const(e / math.pi * gg, rel + 2.0 * _EPS)
        t = nu * math.pi
        c = math.cos(t)
        cp = _times(_Ball(c, 2.0 * _EPS * (abs(c) + abs(t)), 0), p, what, nu)
        diff = _plus(cp, m, what, nu, sub=True)
    else:
        pref = _const(e / 2.0 * gg, rel)
        diff = _plus(m, p, what, nu, sub=True)
    return _times(pref, diff, what, nu)


def bessel_combination(
    family: str, kind: KindTag, nu: float, z: complex, base: QBase
) -> SeriesValue:
    """Y or K at argument 2(1-q^2)z.

    Non-integer orders use the defining combination directly.  Integer
    orders are obtained by evaluating at nu = m +- eps for two offsets,
    averaging the one-sided pair (which cancels the odd term), and
    extrapolating linearly in eps^2; the per-offset estimates g_i must
    agree, to within 1e5 tol max(1, |value|), or LimitUnstable is raised.
    Each distinct order's series is summed once per call: at m = 0 the
    orders +-(m + eps) and +-(m - eps) are the same two, so 4 series serve
    where m != 0 needs 8.  terms_used counts the terms of those series.

    The extrapolant is w_2 s_2 - w_1 s_1, s_i = 2 g_i the pair's sum at
    eps_i, w_i = eps_(3-i)^2 / (2 (eps_1^2 - eps_2^2)), composed by the
    product (`qcalc._times`) and sum (`qcalc._plus`) rules from the four
    combinations' bounds.  Each weight enters as a constant good to 5
    units of 2^-53: 1 for its square, 3 for the difference of the two
    squares (eps_2 = eps_1 / 10, so it does not cancel) and 1 for the
    quotient; the doubling is exact.  The bound is that composed bound
    plus the spread |g_1 - g_2|, which stands for the extrapolation's own
    truncation.
    """
    if family not in ("Y", "K"):
        raise ValueError(f"bessel_combination handles Y and K only, got {family!r}")
    b2 = base.squared()
    inner = "J" if family == "Y" else "I"
    if not float(nu).is_integer():
        p, m = _series(kind, inner, nu, z, base, b2), _series(kind, inner, -nu, z, base, b2)
        return SeriesValue(*_combination_raw(family, nu, p, m, base, b2))
    e1, e2 = _LIMIT_EPS
    orders = [s for eps in _LIMIT_EPS for o in (nu + eps, nu - eps) for s in (o, -o)]
    summed = {s: _series(kind, inner, s, z, base, b2) for s in dict.fromkeys(orders)}
    what = "integer-order limit at nu"
    raw = {o: _combination_raw(family, o, summed[o], summed[-o], base, b2) for o in orders[::2]}
    s1, s2 = (_plus(raw[nu + eps], raw[nu - eps], what, nu) for eps in _LIMIT_EPS)
    d = 2.0 * (e1 * e1 - e2 * e2)
    w1, w2 = (_const(e * e / d, 5.0 * _EPS) for e in (e2, e1))
    ext = _plus(_times(w2, s2, what, nu), _times(w1, s1, what, nu), what, nu, sub=True)
    spread = 0.5 * abs(s1.value - s2.value)
    if spread > 1e5 * base.tol * max(1.0, abs(ext.value)):
        raise LimitUnstable(f"integer-order extrapolants disagree by {spread:.3e} at nu={nu}")
    terms = sum(sv.terms_used for sv in summed.values())
    return SeriesValue(ext.value, ext.err_estimate + spread, terms)


def bessel_value(spec: BesselSpec, z: complex, base: QBase) -> SeriesValue:
    """Dispatch to the series (J, I) or combination (Y, K) path.

    A non-finite z raises DomainError.
    """
    if not cmath.isfinite(z):
        raise DomainError(f"q^2-Bessel functions need a finite argument, got z={z}")
    if spec.family in ("J", "I"):
        return bessel_series(spec, z, base)
    return bessel_combination(spec.family, spec.kind, spec.nu, z, base)


def _family(
    family: str,
    nu: float,
    u: complex,
    f: Callable[[complex], _Ball],
    base: QBase,
) -> _Ball:
    """The family map: sum_w c_w f(w), each c_w one bounded constant, a
    common prefactor times a unit-modulus rotation.  With r = sqrt(2u),
    k = q^(-nu^2+1/2) (1-q^2) / (2 a_nu r) and alpha = (2nu+1) pi/4:

      I: a_nu/r at w = u, and (a_nu/r) i e^(i nu pi) at w = -u;
      K: k at w = -u;
      J: (a_nu/r) e^(-+i alpha) at w = +-iu;
      Y: -+i (k/pi) e^(-+i alpha) at w = +-iu.

    For u > 0, real a_nu and an f with real Taylor coefficients, the two
    +-iu terms are conjugate and J and Y are real.

    f(w) is a bounded value.  Each term c_w f(w) takes the product rule
    (`qcalc._times`), and the two terms of I, J and Y the sum rule
    (`qcalc._plus`): K is one product, the others two products and a sum.
    c_w is known to a relative bound that, in units of eps = 2^-53, counts:
      * a_nu as `_a_nu` bounds it; r to 4 (cmath.sqrt, whose two parts take
        a hypot, a sum, a square root and a quotient) and 6 for the complex
        quotient, so a_nu / r is good to 10 more than a_nu;
      * for k, 10 more still, and its numerator's factors: q^(-nu^2+1/2) as
        `_qpow_rel`, 1 - q^2 to 1 / (1 - q^2), 1 for their product, 4 for
        each product of the denominator (two with pi) and 1 for 2 pi;
      * the rotation to 2 + 3 (pi/4 + |nu| pi): its angle nu pi or alpha
        from the rounded pi, a product and for alpha a sum, then cmath.exp
        within an ulp per part; multiplying by +-i is exact;
      * 4 for the complex product of prefactor and rotation, as `_times`
        counts a product.
    The product of the prefactor's and the rotation's relative bounds, of
    second order, is left out.
    """
    q = base.q
    an, rel = _a_nu(nu, base)
    r = cmath.sqrt(2.0 * u)
    rel += (16.0 + 3.0 * (math.pi / 4.0 + abs(nu) * math.pi)) * _EPS
    if family in ("I", "J"):
        pref = an / r
    else:
        rel += _qpow_rel(q, nu, 0.5) + (10.0 + 1.0 / (1.0 - q * q)) * _EPS
        den = 2.0 * an if family == "K" else 2.0 * math.pi * an
        pref = q ** (-nu * nu + 0.5) * (1.0 - q * q) / (den * r)
    if family == "I":
        points = ((u, 1.0), (-u, 1j * cmath.exp(1j * nu * math.pi)))
    elif family == "K":
        points = ((-u, 1.0),)
    else:
        alpha = math.pi / 4.0 + nu * math.pi / 2.0
        minus, plus = cmath.exp(-1j * alpha), cmath.exp(1j * alpha)
        if family == "J":
            points = ((1j * u, minus), (-1j * u, plus))
        else:
            points = ((1j * u, -1j * minus), (-1j * u, 1j * plus))
    what = "family map at u"
    terms = [_times(_const(pref * rot, rel), f(w), what, u) for w, rot in points]
    return terms[0] if family == "K" else _plus(*terms, what, u)


def bessel_phi_repr(spec: BesselSpec, u: complex, base: QBase) -> SeriesValue:
    """Second-solution representation at u = (1-q^2)z, types 1 and 2 only.

    The family map of f(w) = e(w) Phi_nu(w), bounded by the product rule
    (`qcalc._times`) from the bounds of e and Phi.  Exact only at
    half-integer orders.  At other orders sqrt(u) I_nu and sqrt(u) K_nu
    carry u^(+-nu+1/2) and are not single-valued around 0, while this
    representation is single-valued on its annulus, so every family
    carries a connection error that oscillates in u.  At nu = 1/4 it
    reaches about 6e-5 for K at q = 0.25 and 4e-9 at q = 0.5, and 7e-2 for
    I at q = 0.25.
    """
    if spec.kind.j not in (1, 2):
        raise ValueError("phi representation exists for types 1 and 2 only")

    def f(w: complex) -> _Ball:
        phi = phi_nu(spec.nu, w, base)
        return _times(qexp_eval(spec.kind, w, base), phi, "phi representation factor at w", w)

    return SeriesValue(*_family(spec.family, spec.nu, u, f, base))


def _phi_table(nu: float, q: float, n: int) -> Tuple[List[float], float]:
    """F_m = (q^(nu+1/2);q)_m (q^(-nu+1/2);q)_m / (q^2;q^2)_m for m < n, the
    coefficients of Phi_nu in (q/u)^m, and their relative rounding bound
    in units of eps.  The caller has checked that (q^2;q^2)_inf is a
    normal double."""
    pa, ra = _poch_table(nu, 0.5, 1, q, n)
    pm, rm = _poch_table(0.5, -nu, 1, q, n)
    p2, r2 = _poch_table(2.0, 0.0, 2, q, n)
    return [x * y / z for x, y, z in zip(pa, pm, p2)], ra + rm + r2 + 2.0


def _phi_bound(nu: float, base: QBase) -> Tuple[float, int]:
    """(log_bound, h) of the coefficient tables of e(u) Phi_nu(u).

    F's step ratio r_i = |1 - a x||1 - b x| / (1 - q^2 x^2), x = q^i,
    a = q^(nu+1/2), b = q^(-nu+1/2), is at most 1 once a x and b x are:
    then its numerator is 1 - (a + b) x + q x^2, as a b = q, and
    a + b >= 2 sqrt(q) >= q + q^2.  That happens from i = h =
    ceil(|nu| - 1/2) on, so the product B_F of max(1, r_i) over i < h
    bounds every |F_(k+m) / F_k|, and every F_m from m = h on has one
    sign.  log_bound = ln(B_F / (q;q)_inf), as `qexp._cauchy_terms` takes it.
    Every coefficient reader comes through here, so a non-finite nu raises
    DomainError here.
    """
    _check_order(nu)
    q = base.q
    a, b = q ** (nu + 0.5), q ** (0.5 - nu)
    h = max(0, math.ceil(abs(nu) - 0.5))
    log_b = -_base_poch(q, base)[0]
    for i in range(h):
        x = q**i
        log_b += math.log(max(1.0, abs((1.0 - a * x) * (1.0 - b * x)) / (1.0 - q * q * x * x)))
    return log_b, h


@functools.lru_cache(maxsize=32)
def _laurent_tables(nu: float, window: int, base: QBase) -> Tuple[_Rows, _Rows]:
    """Two-sided coefficients of e(u) Phi_nu(u) for types 1 and 2.

    Per type: (ascending, descending, their bounds), the ascending c_l for
    l = 0..window and the descending c_(-l) for l = 1..window, from the
    coefficient table (`qexp._cauchy_table`) of the exponential's
    coefficients E and Phi's F (`_phi_table`), with the bound of
    `_phi_bound`.  (q;q)_k is built once for both exponentials, and the
    type-2 E only to the window plus its own term count.  The type-1 rows
    add the closed-form tail of `qexp._cauchy_terms`, from E_inf =
    1/(q;q)_inf (`_base_poch`) and F_inf = F_(n-1) G, G = (a x;q)_inf
    (b x;q)_inf / (q^2 x^2;q^2)_inf at x = q^(n-1), n - 1 the table's last
    index: so F_inf carries the table's own rounding, which kappa counts,
    and is exactly 0 where Phi terminates.  Every coefficient reader
    indexes these rows.  Memoized per (nu, window, base), at most 32
    entries process-wide; the rows are tuples because every caller shares
    the cached object.
    """
    q = base.q
    log_b, h = _phi_bound(nu, base)
    ab = q ** (nu + 0.5), q ** (0.5 - nu)
    m1, m2 = _cauchy_terms(0.0, log_b, base, ab), _cauchy_terms(1.0, log_b, base)
    n = window + max(m1, m2)
    f, rel_f = _phi_table(nu, q, n)
    lim = (0.0, 0.0, 0.0, ())
    if f[-1]:  # Phi does not terminate
        x, sq = q ** (n - 1), base.squared()
        (la, ua, da, _), (lb, ub, db, _) = (_log_poch(c * x, base) for c in ab)
        l2, _, d2, _ = _log_poch(sq.q * x * x, sq)
        lqq, _, dqq, _ = _base_poch(q, base)
        logs = (math.log(abs(f[-1])), la, lb, -l2, -lqq)
        unit = ua * ub * math.copysign(1.0, f[-1])
        lim = (sum(logs), unit, da + db + d2 + dqq + 3.0 * _EPS * sum(map(abs, logs)), ab)
    p, rel_p = _poch_table(1.0, 0.0, 1, q, n)  # (q;q)_k, shared by both exponentials
    rel = rel_p + 3.0 + rel_f
    ls, lm = range(window + 1), range(1, window + 1)
    e1, e2 = _exp_table(0.0, q, p), _exp_table(1.0, q, p[: window + m2])
    t1 = _cauchy_table(e1, f, rel, m1, log_b, q, ls, lm, h, lim)
    t2 = _cauchy_table(e2, f, rel, m2, log_b, q, ls, lm, h)
    return tuple(map(tuple, t1)), tuple(map(tuple, t2))


def _check_index(l: int, sign: str) -> None:
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if sign == "minus" and l < 1:
        raise ValueError("descending coefficients require l >= 1")
    if sign == "plus" and l < 0:
        raise ValueError("ascending coefficients require l >= 0")


def bessel_laurent_coeff(
    kind: KindTag, l: int, sign: str, nu: float, base: QBase
) -> float:
    """Two-sided expansion coefficient c_{l+-} of the type-1 or type-2
    product e(u) Phi(u): one entry of the coefficient table
    (`_laurent_tables`, at the window `qexp._coeff_window`)."""
    if kind.j not in (1, 2):
        raise ValueError("expansion coefficients exist for types 1 and 2 only")
    _check_index(l, sign)
    plus, minus = _laurent_tables(nu, _coeff_window(l), base)[kind.j - 1][:2]
    return plus[l] if sign == "plus" else minus[l - 1]


def _geometric_rows(
    c1: Sequence[float],
    c2: Sequence[float],
    e1: Sequence[float],
    e2: Sequence[float],
    l0: int,
    sign: str,
    nu: float,
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """c3 = sqrt(c1 c2) with its bound, row by row from l = l0, from c1 and
    c2 known to within e1 and e2.

    The true product lies between max(0, |c1| - e1) max(0, |c2| - e2) and
    (|c1| + e1)(|c2| + e2); the bound is the larger distance of c3 from the
    square roots of the two, plus 4 eps of the upper one for rounding.
    The first c1 c2 < 0 raises NegativeProduct (finite rows have no NaN
    product, so min finds it).
    """
    prod = list(map(mul, c1, c2))
    if prod and min(prod) < 0:
        i = next(i for i, p in enumerate(prod) if p < 0)
        raise NegativeProduct(
            f"coefficient product c1*c2 = {prod[i]} < 0 at (l={l0 + i}, sign={sign}, nu={nu})"
        )
    c3 = list(map(math.sqrt, prod))
    a1, a2 = list(map(abs, c1)), list(map(abs, c2))
    hi = list(map(math.sqrt, map(mul, map(add, a1, e1), map(add, a2, e2))))
    lo = [math.sqrt(max(0.0, x - dx) * max(0.0, y - dy)) for x, dx, y, dy in zip(a1, e1, a2, e2)]
    return tuple(c3), tuple([max(h - c, c - w) + 4.0 * _EPS * h for c, h, w in zip(c3, hi, lo)])


def type3_coeff(l: int, sign: str, nu: float, base: QBase) -> CoeffPair:
    """The type-1 and type-2 coefficients with their geometric mean c3.

    c3 = sqrt(c1 c2) is what the type-3 series of the library is made of:
    the family map of sum_l c3_l w^l reproduces the type-3 `bessel_series`
    (delta = 1) to within 7e-16 at nu = 1/2, 3/2 and 5/2 (I and J, u = 2
    and 3 e^(0.7i), q = 0.5), while the Laurent coefficients of e3(u)
    Phi(u), the other candidate, miss it by 0.14 to 0.28 at nu = 3/2.
    Why the geometric mean is exact is open (ROADMAP item 8).
    """
    _check_index(l, sign)
    (p1, m1, _, _), (p2, m2, _, _) = _laurent_tables(nu, _coeff_window(l), base)
    c1, c2 = (p1[l], p2[l]) if sign == "plus" else (m1[l - 1], m2[l - 1])
    c3 = _geometric_rows((c1,), (c2,), (0.0,), (0.0,), l, sign, nu)[0][0]
    return CoeffPair(l=l, sign=sign, c1=c1, c2=c2, c3=c3)


def _type3_tables(nu: float, window: int, base: QBase) -> _Rows:
    """Geometric-mean rows l <= window in `qexp._cauchy_table`'s layout.

    Derived from the type-1 and type-2 rows of `_laurent_tables`;
    NegativeProduct at the first descending, then ascending, l with
    c1 c2 < 0.
    """
    (p1, m1, ep1, em1), (p2, m2, ep2, em2) = _laurent_tables(nu, window, base)
    cm, em = _geometric_rows(m1, m2, em1, em2, 1, "minus", nu)
    cp, ep = _geometric_rows(p1, p2, ep1, ep2, 0, "plus", nu)
    return cp, cm, ep, em


def bessel_type3_repr(
    family: str, nu: float, u: complex, window: int, base: QBase
) -> SeriesValue:
    """Two-sided type-3 series at u = (1-q^2)z; requires |u| > q.

    The family map of f(w) = sum_l c_l w^l over the geometric-mean tables
    (`_type3_tables`, of the window of `qexp._laurent_window`, at least
    max(2, window)): f is `qexp._laurent_sum` over the rows |l| <= k of
    that rule, a bounded value whose bound carries the tail from k + 1 on,
    and terms_used counts the 2k + 1 rows summed.  As c_l^2 = c1_l c2_l,
    the rows obey the type-2 Gaussian at half its weight ascending and the
    type-1 decay q^l descending.  The bound grows with the cancellation in
    f, as for K, whose single point w = -u alternates the signs.  The
    connection error at orders other than half-integers (`bessel_phi_repr`)
    stays outside it.  A window below 1 raises ValueError.
    """
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {_FAMILIES}, got {family!r}")
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    au = abs(u)
    if au <= base.q:
        raise DomainError(f"two-sided series requires |u| > q, got |u|={au}")
    if family == "Y" and float(nu).is_integer():
        raise DomainError("integer-order Y has no direct two-sided form here")
    # |E_k| <= q^(w k(k-1)/2) / (q;q)_inf and |F_m| <= B_F bound every row of
    # both tables by C q^(w l(l-1)/2) and C q^l, C = e^log_bound / (1 - q).
    log_c = _phi_bound(nu, base)[0] - math.log1p(-base.q)
    L, k, tail = _laurent_window((0.5, 0.0), lambda n: log_c, max(2, window), au, base)
    f = functools.partial(_laurent_sum, _type3_tables(nu, L, base), k=k, tail=tail)
    v, err, _ = _family(family, nu, u, f, base)
    return SeriesValue(v, err, 2 * k + 1)


def bessel_diffeq_residual(spec: BesselSpec, z: complex, base: QBase) -> float:
    """Normalized residual of the three-point difference equation at z.

    The J/Y families carry the oscillatory sign, I/K the modified sign,
    on the q^(-delta) (1-q^2)^2 z^2 coupling term.  The coupling point
    q^(1-delta) z is one of the three points z/q, z, qz, entry 2 - delta,
    so the function is evaluated three times.
    """
    q = base.q
    nu = spec.nu
    d = spec.kind.delta
    sgn = -1.0 if spec.family in ("J", "Y") else 1.0
    f = [bessel_value(spec, w, base).value for w in (z / q, z, q * z)]
    t1 = f[0]
    t2 = (q**-nu + q**nu) * f[1]
    t3 = f[2]
    t4 = sgn * q ** (-d) * (1.0 - q * q) ** 2 * z * z * f[2 - d]
    scale = max(abs(t1), abs(t2), abs(t3), abs(t4))
    if scale == 0:
        return 0.0
    return abs(t1 - t2 + t3 - t4) / scale


def wronskian(
    f1: Callable[[complex], complex],
    f2: Callable[[complex], complex],
    z: complex,
    base: QBase,
) -> complex:
    """Discrete Wronskian f1(z) f2(qz) - f1(qz) f2(z)."""
    q = base.q
    return f1(z) * f2(q * z) - f1(q * z) * f2(z)


def wronskian_closed(
    kind: KindTag, pair: str, nu: float, z: complex, base: QBase
) -> complex:
    """Closed form of the Wronskian of the (J,Y) or (I,K) pair.

    Constant in z for delta=1; for delta=2 and delta=0 weighted by the
    kind's own q-exponential (`qexp_eval`) at base q^2, so a type-1 pole
    raises PoleError.
    """
    if pair not in ("JY", "IK"):
        raise ValueError(f"pair must be 'JY' or 'IK', got {pair!r}")
    q = base.q
    d = kind.delta
    b2 = base.squared()
    x = (1.0 - q * q) ** 2 * z * z
    const = q ** (-nu * nu) * (1.0 - q * q)
    if pair == "JY":
        pref = -const / math.pi
        arg = -x if d == 2 else q * q * x
    else:
        pref = const / 2.0
        arg = x if d == 2 else -q * q * x
    if d == 1:
        return pref
    return pref * qexp_eval(kind, arg, b2).value


def bessel_asymptotic(
    spec: BesselSpec, point: LatticePoint, base: QBase
) -> AsymptoticEstimate:
    """Leading-order value of any type at a real positive lattice point.

    The family map of the lattice leading term of e(w) (`qexp_asymptotic`)
    at w = +-u, +-iu, with Phi replaced by 1.  Every w shares |w|, so the
    scale q^(scale_exponent) is common: N/2 for type 1, -N/2 for type 2
    and -N - n/2 for type 3, N = n(n-1) + 2 lam n.  For types 1 and 2 the
    term at w is the exact lattice form of e(w) e(q/w).
    """
    if abs(point.theta) > 1e-12:
        raise DomainError("leading terms are defined for real positive u only")
    n, lam = point.n, point.lam
    ests: List[AsymptoticEstimate] = []

    def f(w: complex) -> _Ball:
        est = qexp_asymptotic(spec.kind, LatticePoint(w, n, lam, cmath.phase(w)), base)
        ests.append(est)
        return _Ball(est.phase * est.constant, 0.0, 0)

    c = _family(spec.family, spec.nu, base.q ** (n + lam), f, base).value
    est = ests[0]
    return replace(est, leading=base.q**est.scale_exponent * c, phase=1.0, constant=c)


def bessel_reference(spec: BesselSpec, u: complex, base: QBase) -> complex:
    """Reference value at u = (1-q^2)z for asymptotic comparisons.

    Type 2 always has a convergent series/combination path.  Type 1 uses
    its series inside the convergence disc and the representation-based
    continuation outside it.  The K family switches to the representation
    for large arguments regardless of type: its defining combination
    cancels catastrophically in double precision once the function is
    exponentially small against the two modified series.
    """
    q = base.q
    z = u / (1.0 - q * q)
    if spec.family == "K" and abs(u) > 1.0:
        return bessel_phi_repr(spec, u, base).value
    if spec.kind.j == 2 or abs(u) < 0.5:
        return bessel_value(spec, z, base).value
    return bessel_phi_repr(spec, u, base).value


def type3_asymptotic_bracket(
    family: str, nu: float, point: LatticePoint, base: QBase
) -> Tuple[AsymptoticEstimate, PhiBracket]:
    """The type-3 leading term (`bessel_asymptotic`) with the sampled
    mean-value bracket (`_phi_bracket`).

    The leading term replaces Phi by 1; the bracket locates the mean-value
    factor, and membership of the exact-to-leading ratio in it is the
    testable claim.  The bracket depends on (nu, q) only, so the points of
    one table share one memoized computation.
    """
    spec = BesselSpec(KindTag.from_j(3), family, nu)
    return bessel_asymptotic(spec, point, base), _phi_bracket(nu, base)


@functools.lru_cache(maxsize=32)
def _phi_bracket(nu: float, base: QBase) -> PhiBracket:
    """Sample phi1 over alpha and phi2 over beta and bracket their product.

    No connection bound has been derived that could replace the sampling.
    One end of the bracket is sqrt(Phi_inf), Phi_inf =
    2phi1(q^(nu+1/2), q^(-nu+1/2); -q; q, q), the limit of the geometric-mean
    representation: phi_min at nu = 1/4 to within 7e-8 and phi_max at
    nu = 3/4 to within 1.2e-7 (about `_PHI_OFFSET`) at q = 0.25, 0.5 and 0.8.

    The bracket depends on (nu, q) only, not on the lattice point, so it
    is memoized per (nu, base) in a process-wide cache of at most 32
    entries and every point of one table shares one computation of its
    128 basic_hyper sums.  A hit returns the object an uncached call
    built, so results are bit-identical; NegativeProduct is raised again
    on every call, as errors are not cached.
    """
    q = base.q
    upper = [q ** (nu + 0.5), q ** (-nu + 0.5)]
    # Per side: (name, first and last sample, lower parameters, sign of z).
    # phi1's series needs alpha*q < 1; cap the sampled range so the series
    # still converges at double precision near that edge.
    sides = (
        ("alpha", 1.0 + _PHI_OFFSET, min(1.0 / (1.0 - q), 0.97 / q) - _PHI_OFFSET, [-q], 1.0),
        ("beta", _PHI_OFFSET, 1.0 / (1.0 - q) - _PHI_OFFSET, [-q, 0.0], -1.0),
    )
    samples: List[Tuple[str, float, float]] = []
    for k, (name, lo, hi, lower, sgn) in enumerate(sides, 1):
        for i in range(_PHI_GRID):
            x = lo + (hi - lo) * i / (_PHI_GRID - 1)
            v2 = basic_hyper(upper, lower, base, sgn * x * q).value.real
            if v2 < 0:
                raise NegativeProduct(f"phi{k} square negative at {name}={x}")
            samples.append((name, x, math.sqrt(v2)))
    p1, p2 = [s[2] for s in samples[:_PHI_GRID]], [s[2] for s in samples[_PHI_GRID:]]
    return PhiBracket(
        phi_min=min(p1) * min(p2), phi_max=max(p1) * max(p2), samples=tuple(samples)
    )
