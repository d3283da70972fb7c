"""Property-test suite turning the library's identities, inequalities and
asymptotic claims into runnable checks with machine-readable results.

Every identity residual is normalized by the largest magnitude among its
terms so that a single scale-free tolerance governs all checks.  The
runner never aborts on a failing check; failures (including evaluation
errors) are reported as results.  All sampling is driven by the config
seed, so identical configs yield identical reports.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .qcalc import LatticePoint, QBase, lattice_decompose, qgamma
from .qexp import (
    KindTag,
    classical_limit_check,
    lambda_closed_form,
    lambda_laurent_coeff,
    lambda_laurent_eval,
    lambda_laurent_table,
    lambda_product,
    qexp_asymptotic,
    qexp_eval,
    qexp_functional_residual,
)
from .qbessel import (
    BesselSpec,
    _combination_raw,
    _laurent_tables,
    _series,
    _type3_tables,
    bessel_asymptotic,
    bessel_diffeq_residual,
    bessel_phi_repr,
    bessel_reference,
    bessel_series,
    bessel_type3_repr,
    bessel_value,
    type3_asymptotic_bracket,
    wronskian,
    wronskian_closed,
)

__all__ = [
    "SuiteConfig",
    "CheckResult",
    "run_suite",
    "asymptotic_decay_report",
]

_FAMILIES = ("J", "Y", "I", "K")


@dataclass(frozen=True)
class SuiteConfig:
    """Grids, tolerance and seed governing one suite run."""

    q_grid: Sequence[float] = (0.25, 0.5, 0.8)
    nu_grid: Sequence[float] = (0.25, 0.5, 1.5)
    lattice_points: Sequence[Tuple[int, float]] = ((-2, 0.3), (-4, 0.3), (-6, 0.5))
    tol_pass: float = 1e-8
    seed: int = 20260823

    def __post_init__(self) -> None:
        for q in self.q_grid:
            if not 0.0 < q < 1.0:
                raise ValueError(f"q_grid entries must lie in (0,1), got {q}")
        for n, lam in self.lattice_points:
            if not 0.0 <= lam < 1.0:
                raise ValueError(f"lattice offsets must lie in [0,1), got {lam}")
        if not 0.0 < self.tol_pass < math.inf:
            raise ValueError(f"tol_pass must be positive and finite, got {self.tol_pass}")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: worst residual, where, and pass/fail."""

    check_id: str
    worst_residual: float
    location: str
    passed: bool


class _Worst:
    """Tracks the worst residual and the location that achieved it."""

    def __init__(self) -> None:
        self.residual = 0.0
        self.location = "n/a"

    def feed(self, residual: float, location: str) -> None:
        if residual > self.residual or math.isnan(residual):
            self.residual = residual
            self.location = location


def _rel(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0:
        return 0.0
    return abs(a - b) / scale


# ---------------------------------------------------------------------------
# Individual checks.  Each takes (config, rng, fault) and returns a _Worst.
# `fault` multiplies one side of every identity so a relative perturbation
# of size |fault - 1| is provably detectable.
# ---------------------------------------------------------------------------


def _qexp_samples(j: int, q: float, rng: random.Random) -> List[complex]:
    """In-domain sample arguments for the self-reciprocal product of type j."""
    out: List[complex] = []
    for _ in range(4):
        lam = 0.1 + 0.8 * rng.random()
        theta = 0.3 + 2.4 * rng.random()
        n = rng.choice([-3, -2, -1, 0, 1])
        r = q ** (n + lam)
        out.append(r * cmath.exp(1j * theta))
        out.append(q ** (0.1 + 0.8 * rng.random()))  # real, inside (q,1)
    return out


def _check_qexp_functional(cfg: SuiteConfig, rng: random.Random, fault: float) -> _Worst:
    w = _Worst()
    for q in cfg.q_grid:
        base = QBase(q)
        for j in (1, 2, 3):
            kind = KindTag.from_j(j)
            for u in _qexp_samples(j, q, rng):
                r = qexp_functional_residual(kind, fault * u, base)
                if fault != 1.0:
                    # Perturb one term of the relation rather than the point.
                    r = abs(r * fault + (fault - 1.0))
                w.feed(r, f"j={j}, q={q}, u={u:.6g}")
    return w


def _check_laurent_vs_product(cfg: SuiteConfig, rng: random.Random, fault: float) -> _Worst:
    w = _Worst()
    for q in cfg.q_grid:
        base = QBase(q)
        for j in (1, 2, 3):
            kind = KindTag.from_j(j)
            for _ in range(5):
                lam = 0.1 + 0.8 * rng.random()
                theta = math.pi * (2.0 * rng.random() - 1.0)
                if j == 1:
                    u = q**lam * cmath.exp(1j * theta)  # annulus q < |u| < 1
                else:
                    n = rng.choice([-2, -1, 0, 1])
                    u = q ** (n + lam) * cmath.exp(1j * theta)
                direct = lambda_product(kind, u, base)
                two_sided = lambda_laurent_eval(kind, u, 40, base).value
                # Every a_l is positive, so sum |a_l u^l| = Lambda(|u|).
                scale = max(abs(two_sided), abs(direct), lambda_product(kind, abs(u), base).real)
                w.feed(abs(fault * two_sided - direct) / scale, f"j={j}, q={q}, u={u:.6g}")
    return w


def _check_laurent_coeff_methods(cfg: SuiteConfig, rng: random.Random, fault: float) -> _Worst:
    w = _Worst()
    for q in cfg.q_grid:
        base = QBase(q)
        for j in (1, 2, 3):
            kind = KindTag.from_j(j)
            table = lambda_laurent_table(kind, 10, base).coeffs
            for l in range(0, 11):
                a = table[l]
                b = lambda_laurent_coeff(kind, l, base, method="bessel")
                w.feed(_rel(fault * a, b), f"j={j}, q={q}, l={l}")
    return w


def _check_closed_form(
    cfg: SuiteConfig, rng: random.Random, fault: float, kinds: Tuple[int, ...]
) -> _Worst:
    w = _Worst()
    for q in cfg.q_grid:
        base = QBase(q)
        for j in kinds:
            kind = KindTag.from_j(j)
            for _ in range(8):
                n = rng.choice([-5, -4, -3, -2, -1, 0, 1, 2])
                lam = 0.1 + 0.8 * rng.random()
                theta = 0.3 + 2.4 * rng.random() * rng.choice([1.0, -1.0])
                u = q ** (n + lam) * cmath.exp(1j * theta)
                closed = lambda_closed_form(kind, u, base)
                direct = lambda_product(kind, u, base)
                w.feed(_rel(fault * closed, direct), f"j={j}, q={q}, u={u:.6g}")
    return w


def _check_ordering(cfg: SuiteConfig, rng: random.Random, fault: float) -> _Worst:
    # Pointwise ordering of the three self-reciprocal products on the
    # positive reals: type2 <= type3 <= type1 inside (q,1), type2 <= type3
    # beyond.  Violations are reported relative to the larger member.
    w = _Worst()
    for q in cfg.q_grid:
        base = QBase(q)
        for _ in range(6):
            u = q ** (0.05 + 0.9 * rng.random())
            l1 = lambda_product(KindTag.from_j(1), u, base).real
            l2 = lambda_product(KindTag.from_j(2), u, base).real
            l3 = fault * lambda_product(KindTag.from_j(3), u, base).real
            w.feed(max(0.0, (l2 - l3) / abs(l3)), f"q={q}, u={u:.6g} (2<=3)")
            w.feed(max(0.0, (l3 - l1) / abs(l1)), f"q={q}, u={u:.6g} (3<=1)")
        for _ in range(4):
            u = q ** (-(0.1 + 2.0 * rng.random()))
            l2 = lambda_product(KindTag.from_j(2), u, base).real
            l3 = fault * lambda_product(KindTag.from_j(3), u, base).real
            w.feed(max(0.0, (l2 - l3) / abs(l3)), f"q={q}, u={u:.6g} (2<=3)")
    return w


def _check_classical_limit(cfg: SuiteConfig, rng: random.Random, fault: float) -> _Worst:
    w = _Worst()
    q_seq = (0.9, 0.99, 0.999)
    for j in (1, 2, 3):
        for z in (0.1, 0.5):
            d = classical_limit_check(KindTag.from_j(j), z, q_seq)
            d = [fault * d[0]] + list(d[1:])
            for i in range(len(d) - 1):
                w.feed(
                    max(0.0, (d[i + 1] - d[i]) / d[i]),
                    f"j={j}, z={z}, q={q_seq[i]}->{q_seq[i+1]}",
                )
    return w


def _check_rotation(cfg: SuiteConfig, rng: random.Random, fault: float) -> _Worst:
    # J at z equals e^(-i nu pi/2) I at iz, type by type.
    w = _Worst()
    for q in cfg.q_grid:
        base = QBase(q)
        zmax = 0.9 / (1.0 - q * q)
        for j in (1, 2, 3):
            kind = KindTag.from_j(j)
            for nu in cfg.nu_grid:
                for _ in range(3):
                    z = zmax * (0.2 + 0.7 * rng.random())
                    jv = bessel_series(BesselSpec(kind, "J", nu), z, base).value
                    iv = bessel_series(BesselSpec(kind, "I", nu), 1j * z, base).value
                    w.feed(
                        _rel(fault * jv, cmath.exp(-1j * nu * math.pi / 2.0) * iv),
                        f"j={j}, q={q}, nu={nu}, z={z:.6g}",
                    )
    return w


def _check_diffeq(cfg: SuiteConfig, rng: random.Random, fault: float) -> _Worst:
    w = _Worst()
    for q in cfg.q_grid:
        base = QBase(q)
        for j in (1, 2, 3):
            kind = KindTag.from_j(j)
            # Keep z/q inside the type-1 convergence disc.
            zmax = 0.9 * q / (1.0 - q * q) if j == 1 else 2.0
            for family in _FAMILIES:
                for nu in cfg.nu_grid:
                    for _ in range(2):
                        z = zmax * (0.2 + 0.7 * rng.random())
                        r = bessel_diffeq_residual(BesselSpec(kind, family, nu), z, base)
                        if fault != 1.0:
                            r = abs(r + (fault - 1.0))
                        w.feed(r, f"j={j}, {family}, q={q}, nu={nu}, z={z:.6g}")
    return w


def _pair_functions(
    kind: KindTag, pair: str, nu: float, base: QBase
) -> Tuple[Callable[[complex], complex], Callable[[complex], complex]]:
    """f1 and f2 of a Wronskian pair at a non-integer order: J and Y (pair
    "JY") or I and K ("IK").  Y (K) is the combination of the J (I) series
    at orders nu and -nu (`qbessel._combination_raw`), so both values at a
    point come from that one pair of series, summed once per point, and
    equal what `bessel_value` returns for each family."""
    fam1, fam2 = pair
    b2 = base.squared()
    summed = {}

    def at(t: complex) -> Tuple[complex, complex]:
        if t not in summed:
            p, m = _series(kind, fam1, nu, t, base, b2), _series(kind, fam1, -nu, t, base, b2)
            summed[t] = p.value, _combination_raw(fam2, nu, p, m, base, b2).value
        return summed[t]

    return (lambda t: at(t)[0]), (lambda t: at(t)[1])


def _check_wronskian(cfg: SuiteConfig, rng: random.Random, fault: float) -> _Worst:
    w = _Worst()
    for q in cfg.q_grid:
        base = QBase(q)
        zmax = 0.9 * q / (1.0 - q * q)
        for j in (1, 2, 3):
            kind = KindTag.from_j(j)
            for nu in cfg.nu_grid:
                if float(nu).is_integer():
                    continue
                for pair in ("JY", "IK"):
                    f1, f2 = _pair_functions(kind, pair, nu, base)
                    for frac in (0.45, 0.8):
                        z = zmax * frac
                        wd = wronskian(f1, f2, z, base)
                        wc = wronskian_closed(kind, pair, nu, z, base)
                        w.feed(_rel(fault * wd, wc), f"j={j}, {pair}, q={q}, nu={nu}, z={z:.6g}")
                    if j == 3:
                        # Scale-free Wronskian: constant across a z-grid.
                        vals = [
                            wronskian(f1, f2, zmax * f3, base)
                            for f3 in (0.3, 0.5, 0.7, 0.9)
                        ]
                        for v in vals[1:]:
                            w.feed(_rel(fault * vals[0], v), f"j=3, {pair}, q={q}, nu={nu} (const)")
    return w


def _check_repr_halfinteger(cfg: SuiteConfig, rng: random.Random, fault: float) -> _Worst:
    # Representation vs series/combination at half-integer order, where
    # the terminating hypergeometric factor makes the identity exact.
    w = _Worst()
    for q in cfg.q_grid:
        base = QBase(q)
        for j in (1, 2):
            kind = KindTag.from_j(j)
            u_list = [0.5 * (1.0 + q)]  # inside both the annulus and the disc
            if j == 2:
                u_list.append(3.0)
            for u in u_list:
                z = u / (1.0 - q * q)
                for family in _FAMILIES:
                    rep = bessel_phi_repr(BesselSpec(kind, family, 0.5), u, base).value
                    ref = bessel_value(BesselSpec(kind, family, 0.5), z, base).value
                    scale = max(abs(rep), abs(ref), _combination_term_scale(family, kind, 0.5, z, base))
                    w.feed(
                        abs(fault * rep - ref) / scale,
                        f"j={j}, {family}, q={q}, nu=0.5, u={u:.6g}",
                    )
    return w


def _combination_term_scale(
    family: str, kind: KindTag, nu: float, z: complex, base: QBase
) -> float:
    """Magnitude of the largest term inside a Y/K defining combination.

    The K combination is a difference of two exponentially larger modified
    series, so its double-precision value carries absolute rounding at
    this scale; identity residuals are normalized by it.
    """
    if family not in ("Y", "K"):
        return 0.0
    q = base.q
    b2 = base.squared()
    pref = q ** (-nu * nu + nu) * qgamma(nu, b2) * qgamma(1.0 - nu, b2)
    src = "J" if family == "Y" else "I"
    a = bessel_series(BesselSpec(kind, src, nu), z, base).value
    b = bessel_series(BesselSpec(kind, src, -nu), z, base).value
    return abs(pref) * max(abs(a), abs(b))


def _check_repr_macdonald(cfg: SuiteConfig, rng: random.Random, fault: float) -> _Worst:
    # K-family representation vs defining combination at general order.
    w = _Worst()
    for q in cfg.q_grid:
        base = QBase(q)
        for j in (1, 2):
            kind = KindTag.from_j(j)
            u_list = [0.5 * (1.0 + q)]
            if j == 2:
                u_list.append(3.0)
            for u in u_list:
                z = u / (1.0 - q * q)
                for nu in cfg.nu_grid:
                    if (2.0 * nu) == round(2.0 * nu):
                        continue
                    rep = bessel_phi_repr(BesselSpec(kind, "K", nu), u, base).value
                    ref = bessel_value(BesselSpec(kind, "K", nu), z, base).value
                    ts = _combination_term_scale("K", kind, nu, z, base)
                    if ts > 1e4 * abs(ref):
                        continue  # the reference itself has lost too many digits
                    w.feed(_rel(fault * rep, ref), f"j={j}, K, q={q}, nu={nu}, u={u:.6g}")
    return w


def _recursion_residuals(
    j: int, nu: float, base: QBase, kmax: int, scale: float
) -> List[Tuple[int, float]]:
    """Residuals of the two-step coefficient recursion for one type.

    b_k for k >= 0 are the ascending coefficients, b_(-l) the descending
    ones, all read from one table; the recursion steps k -> k-2 with the
    delta-weighted factor.
    """
    q = base.q
    d = KindTag.from_j(j).delta
    n = kmax + 2
    rows = _type3_tables(nu, n, base) if j == 3 else _laurent_tables(nu, n, base)[j - 1]
    plus, minus = rows[:2]
    # A uniform rescale of all coefficients would cancel out of the
    # homogeneous two-step recursion, so corruption targets one entry.
    coeff = lambda k: (scale if k == 0 else 1.0) * (plus[k] if k >= 0 else minus[-k - 1])
    out = []
    for k in range(-kmax, kmax + 1):
        den = (1.0 - q ** (-nu + k - 0.5)) * (1.0 - q ** (nu + k - 0.5))
        if den == 0:
            continue
        lhs = coeff(k)
        rhs = coeff(k - 2) * q ** ((2 - d) * (k - 1.5)) / den
        out.append((k, _rel(lhs, rhs)))
    return out


def _check_recursion(
    cfg: SuiteConfig, rng: random.Random, fault: float, j: int, c3_scale: float
) -> _Worst:
    w = _Worst()
    for q in cfg.q_grid:
        base = QBase(q)
        for nu in cfg.nu_grid:
            if (2.0 * nu) == round(2.0 * nu):
                continue  # half-integer orders annihilate the denominator
            for k, r in _recursion_residuals(j, nu, base, 8, c3_scale):
                if fault != 1.0 and k % 2 == 0:
                    r = abs(r + (fault - 1.0))
                w.feed(r, f"j={j}, q={q}, nu={nu}, k={k}")
    return w


def _check_coeff_bound(cfg: SuiteConfig, rng: random.Random, fault: float) -> _Worst:
    # Descending-coefficient bound: the geometric mean is dominated by an
    # explicit Pochhammer expression times sqrt of the two exponential
    # products at u = q.
    w = _Worst()
    for q in cfg.q_grid:
        base = QBase(q)
        e1 = qexp_eval(KindTag.from_j(1), q, base).value.real
        e2 = qexp_eval(KindTag.from_j(2), q, base).value.real
        front = math.sqrt(e1 * e2)
        for nu in cfg.nu_grid:
            if (2.0 * nu) == round(2.0 * nu):
                continue  # half-integer orders make both sides vanish
            p1 = 1.0
            p2 = 1.0
            p3 = 1.0
            c3 = _type3_tables(nu, 20, base)[1]
            for l in range(1, 21):
                p1 *= 1.0 - q ** (-nu + 0.5) * q ** (l - 1)
                p2 *= 1.0 - q ** (nu + 0.5) * q ** (l - 1)
                p3 *= 1.0 - q ** (2 * l)
                lhs = fault * c3[l - 1]
                rhs = front * abs(p1) * abs(p2) * q**l / p3
                w.feed(max(0.0, (lhs - rhs) / rhs), f"q={q}, nu={nu}, l={l}")
    return w


def _check_type3_twosided(cfg: SuiteConfig, rng: random.Random, fault: float) -> _Worst:
    # Two-sided type-3 series vs the direct type-3 I series.
    w = _Worst()
    for q in cfg.q_grid:
        base = QBase(q)
        for nu in (0.25, 0.5):
            for u in (2.0, 4.0):
                z = u / (1.0 - q * q)
                two = bessel_type3_repr("I", nu, u, 40, base).value
                ref = bessel_value(BesselSpec(KindTag.from_j(3), "I", nu), z, base).value
                w.feed(_rel(fault * two, ref), f"q={q}, nu={nu}, u={u}")
    return w


def _decay_residual(rows: Sequence[Tuple[int, float]], burn_in: int = 2) -> Tuple[float, str]:
    """Worst violation of monotone decrease after the burn-in prefix."""
    worst = 0.0
    where = "n/a"
    for i in range(burn_in, len(rows) - 1):
        n0, e0 = rows[i]
        n1, e1 = rows[i + 1]
        if e0 == 0:
            continue
        v = max(0.0, (e1 - e0) / e0)
        if v > worst:
            worst, where = v, f"n={n0}->{n1}"
    return worst, where


def _check_decay(
    cfg: SuiteConfig, rng: random.Random, fault: float, selectors: Sequence[str]
) -> _Worst:
    w = _Worst()
    n_range = list(range(-2, -9, -1))
    for q in (0.25, 0.5):
        if q not in cfg.q_grid:
            continue
        for sel in selectors:
            rows = asymptotic_decay_report(sel, (q, 0.25, 0.3), n_range)
            if fault != 1.0:
                rows = [(n, e * (fault ** (-n))) for n, e in rows]
            v, where = _decay_residual(rows)
            w.feed(v, f"{sel}, q={q}, {where}")
    return w


def _check_type3_bracket(cfg: SuiteConfig, rng: random.Random, fault: float) -> _Worst:
    # Magnitude ratio exact/leading must land inside the sampled bracket,
    # both as the decay table computes them (`_decay_rows`).
    w = _Worst()
    for q in cfg.q_grid:
        base = QBase(q)
        for n, lam in cfg.lattice_points:
            if n > -4:
                continue
            for family in ("I", "K"):
                ratio, lo, hi = _decay_rows(f"{family}:3", (q, 0.25, lam), [n], base)[0][4]
                ratio *= fault
                span = max(hi - lo, 1e-300)
                if ratio < lo:
                    w.feed((lo - ratio) / span, f"{family}, q={q}, n={n} (below)")
                elif ratio > hi:
                    w.feed((ratio - hi) / span, f"{family}, q={q}, n={n} (above)")
    return w


def _checks(c3_scale: float) -> List[Tuple[str, Callable[..., _Worst]]]:
    """The registered checks; c3_scale feeds the type-3 recursion check."""
    return [
        ("classical-limit", _check_classical_limit),
        ("closed-form-type12", lambda c, r, f: _check_closed_form(c, r, f, (1, 2))),
        ("closed-form-type3", lambda c, r, f: _check_closed_form(c, r, f, (3,))),
        ("coeff-bound", _check_coeff_bound),
        ("coeff-recursion-type1", lambda c, r, f: _check_recursion(c, r, f, 1, 1.0)),
        ("coeff-recursion-type2", lambda c, r, f: _check_recursion(c, r, f, 2, 1.0)),
        ("coeff-recursion-type3", lambda c, r, f: _check_recursion(c, r, f, 3, c3_scale)),
        ("decay-modified", lambda c, r, f: _check_decay(c, r, f, ("I:1", "K:1", "K:2"))),
        ("decay-modified-i2", lambda c, r, f: _check_decay(c, r, f, ("I:2",))),
        ("decay-oscillatory", lambda c, r, f: _check_decay(c, r, f, ("J:1", "Y:1", "J:2", "Y:2"))),
        ("decay-qexp-type12", lambda c, r, f: _check_decay(c, r, f, ("qexp:1", "qexp:2"))),
        ("decay-qexp-type3", lambda c, r, f: _check_decay(c, r, f, ("qexp:3",))),
        ("diffeq-residual", _check_diffeq),
        ("laurent-coeff-methods", _check_laurent_coeff_methods),
        ("laurent-vs-product", _check_laurent_vs_product),
        ("ordering-inequalities", _check_ordering),
        ("qexp-functional", _check_qexp_functional),
        ("repr-halfinteger", _check_repr_halfinteger),
        ("repr-macdonald", _check_repr_macdonald),
        ("rotation", _check_rotation),
        ("type3-bracket", _check_type3_bracket),
        ("type3-twosided", _check_type3_twosided),
        ("wronskian-closed", _check_wronskian),
    ]


def run_suite(
    config: SuiteConfig,
    fault: float = 1.0,
    c3_scale: float = 1.0,
) -> List[CheckResult]:
    """Run every registered check over the config grids.

    `fault` multiplies one side of each identity (used to demonstrate
    that checks are non-vacuous); `c3_scale` corrupts the geometric-mean
    coefficients feeding the type-3 recursion check.  Both default to
    the identity.  Results are ordered by check_id; the runner never
    aborts on a failing or erroring check.
    """
    if not config.q_grid or not config.nu_grid:
        return []
    results: List[CheckResult] = []
    for check_id, fn in _checks(c3_scale):
        rng = random.Random((config.seed, check_id).__repr__())
        try:
            w = fn(config, rng, fault)
            results.append(
                CheckResult(
                    check_id=check_id,
                    worst_residual=w.residual,
                    location=w.location,
                    passed=w.residual <= config.tol_pass,
                )
            )
        except Exception as exc:  # noqa: BLE001 - the runner must not abort
            results.append(
                CheckResult(
                    check_id=check_id,
                    worst_residual=math.inf,
                    location=f"error: {exc!r}",
                    passed=False,
                )
            )
    results.sort(key=lambda r: r.check_id)
    return results


def asymptotic_decay_report(
    selector: str,
    fixed: Tuple[float, float, float],
    n_range: Sequence[int],
) -> List[Tuple[int, float]]:
    """Relative error of the leading asymptotic term along decreasing n.

    selector is "qexp:j" for the self-reciprocal products or "F:j" with
    F in {J, Y, I, K} for the Bessel families; fixed = (q, nu, lam).
    Returns rows (n, relative_error); monotonicity is asserted by the
    caller, not here.
    """
    rows = _decay_rows(selector, fixed, n_range, QBase(fixed[0]))
    return [(n, rel) for n, _, _, rel, _ in rows]


def _decay_rows(
    selector: str,
    fixed: Tuple[float, float, float],
    n_range: Sequence[int],
    base: QBase,
) -> List[Tuple[int, complex, complex, float, Tuple[float, ...]]]:
    """Rows (n, exact, leading, relative_error, extra) at the given base.

    extra is (|exact|/|leading|, phi_min, phi_max) for the type-3 Bessel
    selectors and () otherwise.  Only the first row's u is decomposed on
    the lattice; every row takes its lam and theta, with n shifted by the
    row's offset, so the leading constant, which depends on them alone
    (`qexp._leading_constant`), is computed once per table.
    """
    ns = list(n_range)
    if any(a <= b for a, b in zip(ns, ns[1:])):
        raise ValueError("n_range must be strictly decreasing")
    head, _, tail = selector.partition(":")
    q, nu, lam = fixed
    j = int(tail)
    rows: List[Tuple[int, complex, complex, float, Tuple[float, ...]]] = []
    first = lattice_decompose(q ** (ns[0] + lam), base) if ns else None
    for n in ns:
        u = q ** (n + lam)
        pt = LatticePoint(u, first.n + n - ns[0], first.lam, first.theta)
        extra: Tuple[float, ...] = ()
        if head == "qexp":
            # The leading term approximates the q-exponential itself; the
            # reciprocal-argument factor it drops tends to 1 as n -> -inf.
            kind = KindTag.from_j(j)
            exact = qexp_eval(kind, u, base).value
            leading = qexp_asymptotic(kind, pt, base).leading
        elif head in _FAMILIES:
            spec = BesselSpec(KindTag.from_j(j), head, nu)
            if j == 3:
                exact = bessel_value(spec, u / (1.0 - q * q), base).value
                est, br = type3_asymptotic_bracket(head, nu, pt, base)
                leading = est.leading
                extra = (abs(exact) / abs(leading), br.phi_min, br.phi_max)
            else:
                exact = bessel_reference(spec, u, base)
                leading = bessel_asymptotic(spec, pt, base).leading
        else:
            raise ValueError(f"unknown selector {selector!r}")
        denom = abs(leading) if leading != 0 else abs(exact)
        rows.append((n, exact, leading, abs(exact - leading) / denom if denom else 0.0, extra))
    return rows
