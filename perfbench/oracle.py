"""Arbitrary-precision references for the benchmark, computed with mpmath.

    python3 perfbench/oracle.py          # rewrites perfbench/data/references.json

Evaluates the defining products, series and Y/K combinations directly
and never imports qfunc.  Each value is computed at two working
precisions that must agree to 1e-25 relative, starting at 40 digits and
doubling until they do, so cancellation in the K combination at large
arguments cannot pass unnoticed.  Integer orders of Y and K are the
average of the orders m + eps and m - eps (eps = 1e-12), whose error is
O(eps^2).  Type-1 Bessel functions outside the disc of their series use
the continuation F1(u) = F2(u) / (s u^2; q^2)_inf, s = -1 for J and Y and
+1 for I and K.

Conventions (those of the qfunc API, u = (1 - q^2) z):
  e_j(u) = sum_k E_k u^k, E_k = q^((2-delta) k(k-1)/4) / (q;q)_k, with
  delta = 2, 0, 1 for j = 1, 2, 3; e_1 = 1/(u;q)_inf, e_2 = (-u;q)_inf.
  J/I of type j: z^nu / Gamma_{q^2}(nu+1) * sum_n s^n q^((2-delta)(n^2+n nu))
  x^n / ((q^2;q^2)_n (q^(2nu+2);q^2)_n), x = (1-q^2)^2 z^2, s = -1 (J), +1 (I).
  Y = q^(nu-nu^2)/pi G(nu)G(1-nu) (cos(nu pi) J_nu - J_-nu),
  K = q^(nu-nu^2)/2 G(nu)G(1-nu) (I_-nu - I_nu), G = Gamma_{q^2}.
  Two-sided coefficients are Cauchy products of the series in u and q/u:
  lambda a_l = sum_m E_(l+m) E_m q^m; the Bessel product e_j(u) Phi(u),
  Phi = sum_m phi_m (q/u)^m the 2Phi1(q^(nu+1/2), q^(1/2-nu); -q; q, q/u)
  factor, has c_l = sum_m E_(l+m) phi_m q^m for l >= 0 and
  c_-l = sum_m E_m phi_(m+l) q^(m+l).  Type 3 uses its own E_k, so the
  exact type-3 coefficient is computed, not a mean of types 1 and 2.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import mpmath as mp

import inputs

DELTA = {1: 2, 2: 0, 3: 1}
EPS_ORDER = mp.mpf("1e-12")
AGREE = mp.mpf("1e-25")
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "references.json")


def stable(f, *args):
    """f(*args) at two precisions 20 digits apart that agree to AGREE."""
    dps = 40
    while True:
        with mp.workdps(dps):
            a = f(*args)
        with mp.workdps(dps + 20):
            b = f(*args)
        if abs(a - b) <= AGREE * abs(b):
            return b
        dps *= 2
        if dps > 1280:
            raise ArithmeticError(f"{f.__name__}{args} unresolved at {dps} digits")


def _small() -> mp.mpf:
    return mp.mpf(10) ** (-mp.mp.dps - 5)


@functools.lru_cache(maxsize=None)
def _qpoch(a, q, dps):
    # Factors past K change the product by less than |a| q^K / (1-q).
    if a == 0:
        return mp.mpf(1)
    k = max(0, int(mp.ceil(mp.log(_small() * (1 - q) / abs(a)) / mp.log(q))))
    p, f = mp.mpf(1), a
    for _ in range(k + 1):
        p *= 1 - f
        f *= q
    return p


def qpoch(a, q):
    """(a;q)_inf, cached per working precision: q-gamma reuses (q;q)_inf."""
    return _qpoch(mp.mpmathify(a), mp.mpf(q), mp.mp.dps)


def qgamma(x, q):
    """Gamma_q(x) = (q;q)_inf / (q^x;q)_inf (1-q)^(1-x)."""
    q = mp.mpf(q)
    return qpoch(q, q) / qpoch(mp.power(q, x), q) * mp.power(1 - q, 1 - x)


def _sum(terms):
    """Sum of an iterator of terms that eventually decay."""
    s, tiny, quiet = mp.mpf(0), _small(), 0
    for k, t in enumerate(terms):
        s += t
        quiet = quiet + 1 if abs(t) <= tiny * abs(s) else 0
        if quiet >= 3 and k > 5:
            return s


def E(j, q):
    """The coefficients E_0, E_1, ... of u^k in e_j(u)."""
    q = mp.mpf(q)
    d, poch, k = DELTA[j], mp.mpf(1), 0
    while True:
        yield mp.power(q, (2 - d) * mp.mpf(k * (k - 1)) / 4) / poch
        k += 1
        poch *= 1 - q**k


def phi(nu, q):
    """The coefficients phi_0, phi_1, ... of (q/u)^m in Phi(u)."""
    q, nu = mp.mpf(q), mp.mpf(nu)
    a, b = mp.power(q, nu + mp.mpf(1) / 2), mp.power(q, mp.mpf(1) / 2 - nu)
    f, m = mp.mpf(1), 0
    while True:
        yield f
        f *= (1 - a * q**m) * (1 - b * q**m) / ((1 - q ** (m + 1)) * (1 + q ** (m + 1)))
        m += 1


def _skip(it, n):
    for _ in range(n):
        next(it)
    return it


def qexp(j, u, q):
    u, q = mp.mpmathify(u), mp.mpf(q)
    if j == 1:
        return 1 / qpoch(u, q)
    if j == 2:
        return qpoch(-u, q)
    return _sum(e * u**k for k, e in enumerate(E(3, q)))


def _series(j, family, nu, z, q):
    """The defining J/I series of type j."""
    q, z, nu = mp.mpf(q), mp.mpmathify(z), mp.mpf(nu)
    d = DELTA[j]
    q2 = q * q
    x = (1 - q2) ** 2 * z * z
    sgn = -1 if family == "J" else 1
    s, t, n, tiny = mp.mpf(0), mp.mpf(1), 0, _small()
    quiet = 0
    while True:
        s += t
        t *= sgn * mp.power(q, (2 - d) * (2 * n + 1 + nu)) * x / (
            (1 - q2 ** (n + 1)) * (1 - mp.power(q, 2 * nu + 2) * q2**n)
        )
        n += 1
        quiet = quiet + 1 if abs(t) <= tiny * abs(s) else 0
        if quiet >= 3:
            break
    return mp.power(z, nu) / qgamma(nu + 1, q2) * s


def _combination(j, family, nu, z, q):
    q, nu = mp.mpf(q), mp.mpf(nu)
    g = mp.power(q, nu - nu * nu) * qgamma(nu, q * q) * qgamma(1 - nu, q * q)
    if family == "Y":
        return g / mp.pi * (mp.cos(nu * mp.pi) * _series(j, "J", nu, z, q) - _series(j, "J", -nu, z, q))
    return g / 2 * (_series(j, "I", -nu, z, q) - _series(j, "I", nu, z, q))


def _bessel_direct(j, family, nu, z, q):
    if family in "JI":
        return _series(j, family, nu, z, q)
    nu = mp.mpf(nu)
    if nu == mp.floor(nu):
        return (_combination(j, family, nu + EPS_ORDER, z, q) + _combination(j, family, nu - EPS_ORDER, z, q)) / 2
    return _combination(j, family, nu, z, q)


def bessel(j, family, nu, z, q):
    """F^(j)_nu at argument 2(1-q^2)z with base q^2, F in J, Y, I, K."""
    q, z = mp.mpf(q), mp.mpmathify(z)
    u = (1 - q * q) * z
    if j == 1 and abs(u) >= mp.mpf("0.9"):
        s = -1 if family in "JY" else 1
        return _bessel_direct(2, family, nu, z, q) / qpoch(s * u * u, q * q)
    return _bessel_direct(j, family, nu, z, q)


def lambda_coeff(j, l, q):
    q = mp.mpf(q)
    if l < 0:
        return q ** (-l) * lambda_coeff(j, -l, q)
    return _sum(a * b * q**m for m, (a, b) in enumerate(zip(_skip(E(j, q), l), E(j, q))))


def bessel_coeff(j, l, nu, q):
    """Coefficient of u^l (l may be negative) in e_j(u) Phi(u)."""
    q = mp.mpf(q)
    if l >= 0:
        return _sum(a * f * q**m for m, (a, f) in enumerate(zip(_skip(E(j, q), l), phi(nu, q))))
    return _sum(a * f * q ** (m - l) for m, (a, f) in enumerate(zip(E(j, q), _skip(phi(nu, q), -l))))


# ---------------------------------------------------------------------------


def _pair(v) -> list:
    v = mp.mpmathify(v)
    return [float(v.real), float(v.imag)]


def reference(op):
    fn = op["fn"]
    c = lambda p: mp.mpc(p[0], p[1])
    if fn == "qexp_eval":
        return _pair(stable(qexp, op["j"], c(op["u"]), op["q"]))
    if fn in ("lambda_product", "lambda_laurent_eval"):
        lam = lambda j, u, q: qexp(j, u, q) * qexp(j, mp.mpf(q) / u, q)
        return _pair(stable(lam, op["j"], c(op["u"]), op["q"]))
    if fn == "bessel_value":
        return _pair(stable(bessel, op["j"], op["family"], op["nu"], c(op["z"]), op["q"]))
    if fn in ("bessel_phi_repr", "bessel_type3_repr"):
        j = op.get("j", 3)
        z = lambda u, q: u / (1 - mp.mpf(q) ** 2)
        f = lambda u, q: bessel(j, op["family"], op["nu"], z(u, q), q)
        return _pair(stable(f, c(op["u"]), op["q"]))
    if fn == "cli":
        return table_reference(op["argv"])
    raise ValueError(f"no reference for {fn!r}")


def table_reference(argv):
    """Reference cells of one CLI command, keyed as run.py reads them."""
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
    q = float(opt["--q"])
    cells = {}
    if argv[0] == "asym":
        head, _, tail = opt["--selector"].partition(":")
        j, nu, lam = int(tail), float(opt["--nu"]), 0.3
        for n in range(-2, -2 - inputs.ASYM_ROWS, -1):
            # The CLI evaluates at the double-precision u and z; so does this.
            u = q ** (n + lam)
            if head == "qexp":
                v = stable(qexp, j, u, q)
            else:
                v = stable(bessel, j, head, nu, u / (1.0 - q * q), q)
            cells[f"{n}:exact_abs"] = float(abs(v))
    elif opt["--which"] == "lambda":
        j, w = int(opt["--kind"]), int(opt["--window"])
        for l in range(-w, w + 1):
            cells[f"{l}:coeff"] = float(stable(lambda_coeff, j, l, q))
    else:
        nu, w = float(opt["--nu"]), int(opt["--window"])
        for l in list(range(-w, 0)) + list(range(0, w + 1)):
            sign = "minus" if l < 0 else "plus"
            for name, j in (("c1", 1), ("c2", 2), ("c3", 3)):
                cells[f"{l}:{sign}:{name}"] = float(stable(bessel_coeff, j, l, nu, q))
    return cells


def main() -> int:
    doc = {"format": 1, "default_seed": inputs.DEFAULT_SEED, "agree": str(AGREE), "generator": "mpmath " + mp.__version__}
    for wl in inputs.REFERENCE_PASSES:
        t0 = time.time()
        ops = inputs.reference_inputs(wl)
        doc[wl] = {"inputs": ops, "refs": [reference(op) for op in ops]}
        print(f"{wl}: {len(ops)} references in {time.time() - t0:.1f} s", file=sys.stderr)
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
