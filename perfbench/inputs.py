"""Seeded input lists for the benchmark workloads.

Stdlib only and free of any qfunc import, so the mpmath oracle and the
timed runner generate exactly the same lists.  An input is a JSON-ready
dict; complex numbers are [re, im] pairs.

Every pass of a run gets a fresh list drawn from (workload, seed, pass).
In `pointwise` every q is drawn from a continuous range, so a cache keyed
on exact arguments hits only on sharing inside one call; this workload
bounds what a process-wide cache gains a user who runs one command per
process.  `suite` and `tables` draw q and nu from the suite's fixed
grids in every pass, so such a cache also hits across passes there,
which overstates its gain for one `qfunc verify` or `qfunc asym` per
process.  Each list has a fixed composition (counts per function and
family), and continuous parameters are drawn within strata, so two seeds
give lists of the same shape and comparable cost.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Dict, List

DEFAULT_SEED = 20260823

# The suite's default grids (qfunc.harness.SuiteConfig); the tables
# workload draws its q and nu from them.
SUITE_Q_GRID = (0.25, 0.5, 0.8)
SUITE_NU_GRID = (0.25, 0.5, 1.5)

ASYM_SELECTORS = (
    "qexp:1", "qexp:2", "qexp:3",
    "J:1", "Y:1", "I:1", "K:1",
    "J:2", "Y:2", "I:2", "K:2",
)
# One asym command of type 3 takes from 6 ms to 190 ms depending on q and
# nu (nu = 0.25 is the slow order), against about 3 ms for the other
# selectors.  Every tables pass runs these two on the whole grid, so the
# cost of a pass does not hang on which grid points were drawn.
ASYM_GRID_SELECTORS = ("I:3", "K:3")
ASYM_ROWS = 7  # the CLI default lattice range n = -2 .. -8

WORKLOADS = ("suite", "pointwise", "tables")


def rng_for(workload: str, seed: int, pass_index: int) -> random.Random:
    """The generator for one pass; string seeds hash the same on every run."""
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _c(z: complex) -> List[float]:
    return [z.real, z.imag]


def _frac_order(rng: random.Random) -> float:
    """A non-integer order in (0, 2), at least 0.08 from every half-integer."""
    m = rng.randrange(2)
    return m + rng.choice((0.08, 0.58)) + 0.34 * rng.random()


def _annulus_point(rng: random.Random, q: float, lo: float, hi: float) -> complex:
    """u = q^lam e^(i theta) with lam in [lo, hi] and theta in (-pi, pi]."""
    lam = lo + (hi - lo) * rng.random()
    return q**lam * cmath.exp(1j * math.pi * (2.0 * rng.random() - 1.0))


def _off_axis_point(rng: random.Random, q: float) -> complex:
    """|u| between q and q^-2, at least 0.2 rad away from the real axis."""
    r = q ** (1.0 - 3.0 * rng.random())
    theta = 0.2 + (math.pi - 0.4) * rng.random()
    return r * cmath.exp(1j * theta * rng.choice((1.0, -1.0)))


def pointwise_pass(seed: int, pass_index: int) -> List[Dict]:
    """51 independent calls, each with its own q drawn from U(0.2, 0.9)."""
    rng = rng_for("pointwise", seed, pass_index)
    qs = lambda: 0.2 + 0.7 * rng.random()
    ops: List[Dict] = []
    for j in (1, 2, 3):
        for _ in range(3):
            q = qs()
            ops.append({"fn": "qexp_eval", "j": j, "q": q, "u": _c(_off_axis_point(rng, q))})
        for _ in range(2):
            q = qs()
            ops.append({"fn": "lambda_product", "j": j, "q": q, "u": _c(_off_axis_point(rng, q))})
            q = qs()
            ops.append(
                {
                    "fn": "lambda_laurent_eval",
                    "j": j,
                    "q": q,
                    "u": _c(_annulus_point(rng, q, 0.2, 0.8)),
                    "window": 40,
                }
            )
        for family in "JYIK":
            # Integer-order K raises LimitUnstable now and then anywhere in
            # this domain (about once in 20 000 calls), so K takes two
            # fractional orders; integer-order Y does the same near z = 0
            # (below about 0.07 for q < 0.27) and, for type 1 at q > 0.75,
            # beyond 2/3 of the disc |z| < 1/(1-q^2) of the series.
            for integer in (False, family != "K"):
                q = qs()
                nu = float(rng.randrange(2)) if integer else _frac_order(rng)
                if j == 1:
                    z = (0.15 + 0.45 * rng.random()) / (1.0 - q * q)
                else:
                    z = 0.15 + 2.35 * rng.random()
                ops.append(
                    {"fn": "bessel_value", "j": j, "family": family, "nu": nu, "q": q, "z": _c(complex(z))}
                )
    for j in (1, 2):
        for family in ("K", rng.choice("JYI")):
            q = qs()
            nu = _frac_order(rng) if family == "K" else rng.choice((0.5, 1.5))
            lo, hi = q / 0.95, (0.95 if j == 1 else 3.0)
            u = lo + (hi - lo) * rng.random()
            ops.append({"fn": "bessel_phi_repr", "j": j, "family": family, "nu": nu, "q": q, "u": _c(complex(u))})
    for family in rng.sample("JYIK", 2):
        q = qs()
        u = 1.2 * q + (4.0 - 1.2 * q) * rng.random()
        nu = _frac_order(rng) % 1.0  # above 1, c1*c2 < 0 raises NegativeProduct
        ops.append(
            {"fn": "bessel_type3_repr", "family": family, "nu": nu, "q": q, "u": _c(complex(u)), "window": 20}
        )
    rng.shuffle(ops)
    return ops


def tables_pass(seed: int, pass_index: int) -> List[Dict]:
    """56 CLI commands, q and nu from the suite grids.

    Each asym selector and laurent table is drawn twice; asym I:3 and K:3
    run at every (q, nu) of the grid.
    """
    rng = rng_for("tables", seed, pass_index)
    ops = _tables_draw(rng) + _tables_draw(rng)
    for sel in ASYM_GRID_SELECTORS:
        for q in SUITE_Q_GRID:
            for nu in SUITE_NU_GRID:
                ops.append(_asym(sel, q, nu))
    rng.shuffle(ops)
    return ops


def _asym(sel: str, q: float, nu: float) -> Dict:
    argv = ["asym", "--selector", sel, "--q", repr(q), "--nu", repr(nu)]
    return {"fn": "cli", "argv": argv, "rows": ASYM_ROWS}


def _tables_draw(rng: random.Random) -> List[Dict]:
    ops: List[Dict] = []
    for sel in ASYM_SELECTORS:
        ops.append(_asym(sel, rng.choice(SUITE_Q_GRID), rng.choice(SUITE_NU_GRID)))
    for kind in (1, 2, 3):
        for window in (10, 40):
            q = rng.choice(SUITE_Q_GRID)
            argv = ["laurent", "--which", "lambda", "--kind", str(kind), "--q", repr(q), "--window", str(window)]
            ops.append({"fn": "cli", "argv": argv, "rows": 2 * window + 1})
    for window in (5, 20):
        # At nu = 1.5 the coefficient sums raise NonConvergence for q = 0.25, 0.5.
        q, nu = rng.choice(SUITE_Q_GRID), rng.choice(SUITE_NU_GRID[:2])
        argv = ["laurent", "--which", "bessel", "--q", repr(q), "--nu", repr(nu), "--window", str(window)]
        ops.append({"fn": "cli", "argv": argv, "rows": 2 * window + 1})
    return ops


def suite_pass(seed: int, pass_index: int) -> List[Dict]:
    """One run_suite call; pass 0 uses the benchmark seed itself."""
    s = seed if pass_index == 0 else rng_for("suite", seed, pass_index).getrandbits(31)
    return [{"fn": "run_suite", "seed": s}]


PASSES = {
    "suite": suite_pass,
    "pointwise": pointwise_pass,
    "tables": tables_pass,
}

# Passes of the default seed whose outputs are compared with the stored
# oracle references (the suite checks itself).
REFERENCE_PASSES = {"pointwise": 10, "tables": 1}


def reference_inputs(workload: str) -> List[Dict]:
    """The input list the stored references were computed for."""
    gen = PASSES[workload]
    return [op for k in range(REFERENCE_PASSES[workload]) for op in gen(DEFAULT_SEED, k)]
