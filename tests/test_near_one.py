"""The error contract near q = 1, where the infinite products leave the
double range: every call returns a finite value with a finite bound or
raises a QfuncError.  No ZeroDivisionError, OverflowError or NaN escapes."""

import cmath
import math
import random

import pytest

from qfunc.errors import QfuncError
from qfunc.qbessel import BesselSpec, bessel_phi_repr, bessel_type3_repr, bessel_value
from qfunc.qcalc import QBase, SeriesValue, lattice_decompose, qgamma
from qfunc.qexp import KindTag, lambda_laurent_eval, lambda_product, qexp_asymptotic, qexp_eval

KINDS = [KindTag.from_j(j) for j in (1, 2, 3)]


def _calls(q, rng):
    """One seeded point: (name, thunk) for every entry point under test."""
    base = QBase(q)
    u = 10 ** rng.uniform(-3.0, 3.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    z = u / (1.0 - q * q)
    nu = rng.choice((0.1, 0.25, 0.5, 0.75, 1.5))
    alpha = rng.choice((0.25, 0.5, 2.5, -0.5, rng.uniform(-3.0, 4.0)))
    for k in KINDS:
        yield f"qexp_eval:{k.j}", lambda k=k: qexp_eval(k, u, base)
        yield f"lambda_product:{k.j}", lambda k=k: lambda_product(k, u, base)
        yield f"lambda_laurent_eval:{k.j}", lambda k=k: lambda_laurent_eval(k, u, 20, base)
        yield f"qexp_asymptotic:{k.j}", lambda k=k: qexp_asymptotic(
            k, lattice_decompose(u, base), base
        )
        for fam in "JYIK":
            spec = BesselSpec(k, fam, nu)
            yield f"bessel_value:{fam}{k.j}", lambda s=spec: bessel_value(s, z, base)
            if k.j < 3:
                yield f"bessel_phi_repr:{fam}{k.j}", lambda s=spec: bessel_phi_repr(s, u, base)
    for fam in "JYIK":
        yield f"bessel_type3_repr:{fam}", lambda f=fam: bessel_type3_repr(f, nu, u, 20, base)
    yield "qgamma", lambda: qgamma(alpha, base)


def _finite(out):
    if isinstance(out, SeriesValue):
        return cmath.isfinite(out.value) and math.isfinite(out.err_estimate)
    return cmath.isfinite(getattr(out, "leading", out))


@pytest.mark.parametrize("q", [0.998, 0.999, 0.9995])
def test_every_call_is_finite_or_a_qfunc_error(q):
    rng = random.Random(f"near-one {q}")
    bad = []
    for _ in range(20):
        for name, call in _calls(q, rng):
            try:
                out = call()
            except QfuncError:
                continue
            except (ArithmeticError, ValueError) as exc:
                bad.append((name, type(exc).__name__))
                continue
            if not _finite(out):
                bad.append((name, out))
    assert not bad
