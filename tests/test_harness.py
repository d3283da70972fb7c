import math

import pytest

from qfunc import harness, qbessel, qcalc, qexp
from qfunc.harness import (
    CheckResult,
    SuiteConfig,
    _decay_rows,
    _recursion_residuals,
    asymptotic_decay_report,
    run_suite,
)
from qfunc.qcalc import QBase

SMALL = SuiteConfig(q_grid=(0.5,), nu_grid=(0.25,), lattice_points=((-3, 0.3),))

EXPECTED_PASSING = {
    "classical-limit",
    "closed-form-type12",
    "coeff-bound",
    "coeff-recursion-type2",
    "decay-modified",
    "decay-qexp-type12",
    "decay-qexp-type3",
    "diffeq-residual",
    "laurent-coeff-methods",
    "laurent-vs-product",
    "ordering-inequalities",
    "qexp-functional",
    "repr-halfinteger",
    "rotation",
    "wronskian-closed",
}

# Identity checks whose residuals must jump above tolerance when one side
# of the identity is multiplied by 1 + 1e-6.  The bound check needs the
# full default grid: the inequality is only near-tight at larger q.
FAULT_SENSITIVE = {
    "closed-form-type12",
    "coeff-bound",
    "coeff-recursion-type2",
    "diffeq-residual",
    "laurent-coeff-methods",
    "laurent-vs-product",
    "qexp-functional",
    "repr-halfinteger",
    "rotation",
    "wronskian-closed",
}


class TestSuiteConfig:
    def test_defaults_validate(self):
        cfg = SuiteConfig()
        assert cfg.tol_pass == 1e-8

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            SuiteConfig(q_grid=(1.5,))
        with pytest.raises(ValueError):
            SuiteConfig(lattice_points=((-3, 1.5),))
        with pytest.raises(ValueError):
            SuiteConfig(tol_pass=0.0)

    @pytest.mark.parametrize("tol_pass", [math.inf, math.nan])
    def test_rejects_non_finite_tol_pass(self, tol_pass):
        # inf passed every check, type3-bracket at 1.2e21 included; nan
        # failed every one.
        with pytest.raises(ValueError, match="positive and finite"):
            SuiteConfig(tol_pass=tol_pass)


class TestRunSuite:
    def test_empty_grids_give_empty_report(self):
        assert run_suite(SuiteConfig(q_grid=())) == []
        assert run_suite(SuiteConfig(nu_grid=())) == []

    def test_never_raises_and_is_sorted(self):
        results = run_suite(SMALL)
        assert results
        ids = [r.check_id for r in results]
        assert ids == sorted(ids)
        assert all(isinstance(r, CheckResult) for r in results)

    def test_deterministic(self):
        a = run_suite(SMALL)
        b = run_suite(SMALL)
        assert a == b

    def test_identity_checks_pass_on_default_config(self):
        results = run_suite(SuiteConfig())
        status = {r.check_id: r.passed for r in results}
        for check_id in EXPECTED_PASSING:
            assert status[check_id], f"{check_id} should pass on the default config"

    def test_fault_injection_flips_identity_checks(self):
        clean = {r.check_id: r for r in run_suite(SuiteConfig())}
        faulted = {r.check_id: r for r in run_suite(SuiteConfig(), fault=1.0 + 1e-6)}
        for check_id in FAULT_SENSITIVE:
            assert clean[check_id].passed
            assert not faulted[check_id].passed, f"{check_id} missed the fault"

    def test_recursion_residuals_of_every_type_share_one_table(self, monkeypatch):
        # Types 1 and 2 index the table's rows and type 3 takes their
        # geometric mean, so the three residuals build one type-1 and one
        # type-2 coefficient table between them.
        calls = []
        table = qbessel._cauchy_table

        def counting(*args):
            calls.append(args)
            return table(*args)

        monkeypatch.setattr(qbessel, "_cauchy_table", counting)
        qbessel._laurent_tables.cache_clear()
        for j in (1, 2, 3):
            _recursion_residuals(j, 0.25, QBase(0.5), 8, 1.0)
        assert len(calls) == 2

    def test_c3_corruption_keeps_type3_recursion_failing(self):
        results = {r.check_id: r for r in run_suite(SMALL, c3_scale=1.1)}
        assert not results["coeff-recursion-type3"].passed

    def test_strict_tolerance_fails_some_checks(self):
        results = run_suite(
            SuiteConfig(
                q_grid=(0.5,),
                nu_grid=(0.25,),
                lattice_points=((-3, 0.3),),
                tol_pass=1e-16,
            )
        )
        assert any(not r.passed for r in results)


def _clear_memos():
    for module in (qcalc, qexp, qbessel, harness):
        for obj in list(vars(module).values()):
            for memo in [obj, *(vars(obj).values() if isinstance(obj, type) else ())]:
                if hasattr(memo, "cache_clear"):
                    memo.cache_clear()


class TestSuiteWork:
    # Kernel calls of one cold run_suite(SuiteConfig()): 3797 when the
    # difference equation evaluated a fourth point and the type-3 functional
    # residual summed two of its exponentials twice, then 3425, then 3455
    # while the tail past the window of each of the suite's 15 type-1
    # `lambda_laurent_eval` calls took two kernel sums; the type-1 value is
    # now its pole expansion's two Gaussian sums (`qexp._pole_sum`), which
    # call no kernel.  The 15 more are the e3 that bounds the rows of each
    # of the suite's 15 type-3 `lambda_laurent_eval` calls.
    KERNEL_CALLS = 3440
    # Term ratios the kernel computes in the same run, the ones its memo
    # (`qcalc._series_memo`) does not hold: 54,666 for the 58,028 terms
    # before the memo, one per term after the first; 7436 under the
    # geometric stop rule.  351 more are the terms the derived tail bound
    # needs before it falls below tol (58,028 -> 60,709 terms over the
    # other 3425 calls); the type-1 tail's 50 are gone, and the e3 calls
    # read ratios their cell already holds.
    COEFFICIENTS = 7787

    def test_cold_suite_kernel_calls_are_pinned(self, monkeypatch):
        _clear_memos()
        calls = []
        kernel = qcalc._qseries
        for module in (qcalc, qexp, qbessel):
            if hasattr(module, "_qseries"):
                monkeypatch.setattr(module, "_qseries", lambda *a: calls.append(1) or kernel(*a))
        run_suite(SuiteConfig())
        assert len(calls) <= self.KERNEL_CALLS

    def test_cold_suite_coefficients_are_pinned(self, monkeypatch):
        _clear_memos()
        computed = []
        kernel = qcalc._qseries

        def spy(upper, lower, base, z, weight):
            cell = qcalc._series_memo(upper, lower, base.q, weight)
            known = len(cell[0][0]) if cell[0] else 0
            out = kernel(upper, lower, base, z, weight)
            # One ratio per term after t_0, and one more where the sum
            # ended at the cell's end index, a vanishing upper factor.
            n = out[2] - 1
            used = n + (n == cell[5])
            computed.append(max(0, used - known))
            return out

        for module in (qcalc, qexp, qbessel):
            monkeypatch.setattr(module, "_qseries", spy)
        run_suite(SuiteConfig())
        assert sum(computed) <= self.COEFFICIENTS


class TestDecayReport:
    def test_rejects_non_decreasing_range(self):
        with pytest.raises(ValueError):
            asymptotic_decay_report("qexp:2", (0.5, 0.25, 0.3), [-4, -2])
        with pytest.raises(ValueError):
            asymptotic_decay_report("qexp:2", (0.5, 0.25, 0.3), [-2, -2])

    def test_rejects_unknown_selector(self):
        with pytest.raises(ValueError):
            asymptotic_decay_report("Q:2", (0.5, 0.25, 0.3), [-2, -3])

    def test_single_row(self):
        rows = asymptotic_decay_report("qexp:2", (0.5, 0.25, 0.3), [-4])
        assert len(rows) == 1 and rows[0][0] == -4

    def test_qexp_product_kinds_decay(self):
        for sel in ("qexp:1", "qexp:2"):
            rows = asymptotic_decay_report(sel, (0.5, 0.25, 0.3), range(-2, -9, -1))
            errs = [e for _, e in rows[2:]]
            assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_modified_k_decays(self):
        rows = asymptotic_decay_report("K:1", (0.25, 0.25, 0.3), range(-2, -9, -1))
        errs = [e for _, e in rows[2:]]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_type3_table_builds_its_bracket_once(self, monkeypatch):
        built = []
        real = qbessel.PhiBracket

        def counting(**kwargs):
            built.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(qbessel, "PhiBracket", counting)
        qbessel._phi_bracket.cache_clear()
        rows = _decay_rows("I:3", (0.5, 0.25, 0.3), range(-2, -9, -1), QBase(0.5))
        assert len(rows) == 7
        assert len(built) == 1
