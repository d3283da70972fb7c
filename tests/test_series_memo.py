"""The memo of the summation kernel: one list of term ratios per
coefficient sequence (`qcalc._series_memo`), read by every caller."""

import cmath
import functools
import math
import random
import statistics
import sys

import pytest

from oracles import qseries_oracle
from qfunc import qbessel, qcalc, qexp
from qfunc.errors import QfuncError
from qfunc.qbessel import BesselSpec, bessel_series
from qfunc.qcalc import QBase, basic_hyper
from qfunc.qexp import KindTag, qexp_eval

K3 = KindTag.from_j(3)


def _grid():
    """Seeded (shape, call) pairs over every caller shape of the kernel."""
    rng = random.Random(20261019)
    calls = []
    for j in (1, 2, 3):
        kind = KindTag.from_j(j)
        for family in ("J", "I"):
            for nu in (0.25, 1.5, -0.75, -2.3):
                q = rng.uniform(0.2, 0.85)
                r = rng.uniform(0.3, 0.9) / (1.0 - q * q) if j == 1 else rng.uniform(0.3, 4.0)
                for z in (r, 1j * r, r * cmath.exp(1j * rng.uniform(-3.0, 3.0))):
                    spec = BesselSpec(kind, family, nu)
                    calls.append(("bessel", functools.partial(bessel_series, spec, z, QBase(q))))
    for _ in range(20):
        q = rng.uniform(0.2, 0.9)
        radius = rng.uniform(0.1, 10.0)
        u = radius * cmath.exp(1j * rng.choice((0.0, math.pi, rng.uniform(-3.0, 3.0))))
        calls.append(("qexp3", functools.partial(qexp_eval, K3, u, QBase(q))))
    for _ in range(10):
        q = rng.uniform(0.2, 0.9)
        upper = [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(2)]
        lower = [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))]
        z = rng.uniform(0.1, 0.9) * cmath.exp(1j * rng.uniform(-3.0, 3.0))
        calls.append(("basic_hyper", functools.partial(basic_hyper, upper, lower, QBase(q), z)))
    for m in (1, 2, 3, 4):
        # Terminating: the upper parameter q^(-m) ends the sum after m + 1 terms.
        q = rng.uniform(0.2, 0.9)
        z = rng.uniform(-5.0, 5.0)
        lower = [rng.uniform(-0.9, 0.9)]
        calls.append(("basic_hyper", functools.partial(basic_hyper, [q**-m], lower, QBase(q), z)))
    for j in (1, 2, 3):
        for l in range(5):
            base = QBase(rng.uniform(0.2, 0.9))
            read = functools.partial(qexp._bessel_i_base_q, KindTag.from_j(j), l, base)
            calls.append(("bessel_i_base_q", read))
    return calls


def _outcome(call):
    """repr of (value, err_estimate, terms_used), of a bare value, or the
    class of the exception raised."""
    try:
        v = call()
    except QfuncError as exc:
        return type(exc).__name__
    if isinstance(v, qcalc.SeriesValue):
        return repr(v.value), repr(v.err_estimate), v.terms_used
    return repr(v)


def _recording(calls):
    """Run every call once with the kernel spied on: the outcomes, and
    (shape, (upper, lower, base, z, weight), kernel result) per kernel call."""
    kernel = qcalc._qseries
    seen = []
    shape = [None]

    def spy(upper, lower, base, z, weight):
        out = kernel(upper, lower, base, z, weight)
        seen.append((shape[0], (upper, lower, base, z, weight), out))
        return out

    modules = [m for m in (qcalc, qexp, qbessel) if hasattr(m, "_qseries")]
    for m in modules:
        m._qseries = spy
    try:
        outcomes = []
        for shape[0], call in calls:
            outcomes.append(_outcome(call))
    finally:
        for m in modules:
            m._qseries = kernel
    return outcomes, seen


def _relative_errors(seen):
    """Median and maximum relative error of the kernel per shape, against
    the 40-digit sum."""
    errs = {}
    for shape, (upper, lower, base, z, weight), (value, _, _) in seen:
        exact = qseries_oracle(upper, lower, base.q, z, weight)
        errs.setdefault(shape, []).append(abs(value - exact) / abs(exact))
    return {s: (statistics.median(e), max(e)) for s, e in errs.items()}


# Median and maximum relative kernel error per shape on `_grid()`, for the
# kernel that formed every term as t_n num / den with a running product
# z q^(weight n), before the memo.
PARENT_ERRORS = {
    "basic_hyper": (1.950e-13, 1.311e-12),
    "bessel": (3.609e-16, 3.203e-12),
    "bessel_i_base_q": (1.578e-16, 6.483e-16),
    "qexp3": (1.161e-14, 4.332e-3),
}


def _stored(*key):
    """The number of term ratios the memo holds for a key."""
    memo = qcalc._series_memo(*key)[0]
    return len(memo[0]) if memo else 0


def _longer(z, weight):
    """An argument whose sum of the same key takes more terms."""
    if weight > 0:
        return 100.0 * z
    return z / abs(z) * (1.0 + abs(z)) / 2.0


class TestSeriesMemo:
    def test_cold_warm_and_extended_calls_agree(self):
        # A cold call (memo cleared), the call that stores the ratios, a
        # warm call that reads them, and a call after a longer sum of the
        # same key has extended them give the same repr, or raise the same
        # class.
        calls = _grid()
        cold = []
        for _, call in calls:
            qcalc._series_memo.cache_clear()
            cold.append(_outcome(call))
        storing, seen = _recording(calls)
        warm = [_outcome(call) for _, call in calls]
        stored = {}
        for _, (upper, lower, base, z, weight), _ in seen:
            key = (upper, lower, base.q, weight)
            stored.setdefault(key, _stored(*key))
            if z and weight >= 0:
                try:
                    qcalc._qseries(upper, lower, base, _longer(z, weight), weight)
                except QfuncError:
                    pass
        extended = [_outcome(call) for _, call in calls]
        assert cold == storing == warm == extended
        # Every key whose sum does not end at an upper factor (the cell's
        # end index) was extended.
        open_keys = [k for k in stored if qcalc._series_memo(*k)[5] == sys.maxsize]
        assert all(_stored(*k) > stored[k] for k in open_keys)

    def test_oracle_errors_stay_within_twice_the_parent(self):
        _, seen = _recording(_grid())
        errors = _relative_errors(seen)
        assert set(errors) == set(PARENT_ERRORS)
        for shape, (median, worst) in errors.items():
            parent_median, parent_worst = PARENT_ERRORS[shape]
            assert median <= 2.0 * parent_median, (shape, median, parent_median)
            assert worst <= 2.0 * parent_worst, (shape, worst, parent_worst)

    def test_long_sum_leaves_the_memo_within_its_bounds(self):
        # Type-1 J near the edge of its disc (a term ratio near -0.989)
        # sums thousands of terms; the key stores at most _SERIES_RATIOS of
        # them, and the memo holds at most its maxsize keys.
        q = 0.5
        base, spec = QBase(q), BesselSpec(KindTag.from_j(1), "J", 0.25)
        z = math.sqrt(0.989) / (1.0 - q * q)
        qcalc._series_memo.cache_clear()
        first, second, third = (bessel_series(spec, z, base) for _ in range(3))
        assert first.terms_used > qcalc._SERIES_RATIOS
        assert repr(first) == repr(second) == repr(third)
        key = ((), (q**2.5,), q * q, 0)  # the series' (upper, lower, q, weight)
        assert _stored(*key) == qcalc._SERIES_RATIOS
        for n in range(300):
            basic_hyper([], [0.5], QBase(0.3 + n * 1e-3), 0.5)
        info = qcalc._series_memo.cache_info()
        assert info.currsize == info.maxsize == 256

    def test_memo_reads_the_ratios_it_stored(self):
        # The second use of a key stores its ratios, the third reads them.
        base = QBase(0.6)
        qcalc._series_memo.cache_clear()
        key = ((), (), base.q, 0.5)
        assert qcalc._series_memo(*key)[0] is None
        values = [qexp_eval(K3, 2.0 + 1.0j, base) for _ in range(3)]
        assert _stored(*key) == values[0].terms_used - 1
        assert values[0] == values[1] == values[2]
