import argparse
import csv
import io
import json
import math
from fractions import Fraction

import pytest

import reference_values as ref
from oracles import bessel_series_oracle, qgamma_oracle
from qfunc import cli
from qfunc.cli import main
from qfunc.harness import asymptotic_decay_report
from qfunc.qbessel import BesselSpec, bessel_asymptotic, bessel_reference, type3_coeff
from qfunc.qcalc import QBase, lattice_decompose
from qfunc.qexp import KindTag


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestEval:
    def test_qexp_at_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "qexp", "--kind", "3", "--q", "0.5", "--u", "0"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "function"
        row = dict(zip(header, rows[0]))
        assert float(row["value_re"]) == 1.0
        assert float(row["value_im"]) == 0.0
        assert row["error"] == ""

    def test_besselk_reference_value(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval",
            "--fn",
            "besselK",
            "--kind",
            "2",
            "--nu",
            "0.25",
            "--q",
            "0.5",
            "--z",
            "1.0",
        )
        assert code == 0
        _, rows = parse_csv(out)
        got = float(rows[0][7])
        assert abs(got - ref.BESSEL_K2_NU025_Q05_Z1) < 1e-9

    def test_pole_row_sets_exit_64(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval",
            "--fn",
            "qexp",
            "--kind",
            "1",
            "--q",
            "0.5",
            "--u",
            "4",
            "--u",
            "0.3",
        )
        assert code == 64
        header, rows = parse_csv(out)
        first = dict(zip(header, rows[0]))
        second = dict(zip(header, rows[1]))
        assert "PoleError" in first["error"]
        assert second["error"] == ""

    def test_grid_produces_count_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval",
            "--fn",
            "qexp",
            "--kind",
            "2",
            "--q",
            "0.5",
            "--grid",
            "0",
            "1",
            "5",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 5
        assert float(rows[0][5]) == 0.0 and float(rows[-1][5]) == 1.0

    def test_json_lines_parse(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval",
            "--format",
            "json",
            "--fn",
            "qexp",
            "--kind",
            "3",
            "--q",
            "0.5",
            "--u",
            "1",
        )
        assert code == 0
        doc = json.loads(out.splitlines()[0])
        assert doc["error"] is None
        assert abs(doc["value"][0] - ref.EXP3_AT_1_Q05) < 1e-9

    def test_complex_argument(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "qexp", "--kind", "1", "--q", "0.5", "--u", "0.3,0.2"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(float(rows[0][7]) - ref.EXP1_COMPLEX_Q05.real) < 1e-9
        assert abs(float(rows[0][8]) - ref.EXP1_COMPLEX_Q05.imag) < 1e-9

    def test_values_round_trip_through_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "lambda", "--kind", "2", "--q", "0.5", "--u", "2"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][7]) == pytest.approx(ref.LAMBDA2_AT_2_Q05, rel=1e-11)

    @pytest.mark.parametrize(
        "fn,kind,u",
        [
            ("qexp", "1", "inf"),
            ("qexp", "1", "nan"),
            ("qexp", "2", "inf,1"),
            ("qexp", "3", "1,nan"),
            ("besselJ", "2", "inf"),
            ("besselK", "3", "nan"),
            ("lambda", "1", "nan"),
            ("qexp", "1", "1e300"),
            ("qexp", "2", "1e300"),
            ("qexp", "3", "1e300"),
            ("lambda", "2", "1e300"),
            # Finite parts, modulus beyond the doubles: abs() of a series
            # term raised OverflowError, a traceback with exit 1.
            ("qexp", "3", "4e10,4e10"),
        ],
    )
    def test_non_finite_input_or_value_is_an_error_row(self, capsys, fn, kind, u):
        code, out, _ = run_cli(
            capsys, "eval", "--fn", fn, "--kind", kind, "--q", "0.5", "--u", u
        )
        assert code == 64
        header, rows = parse_csv(out)
        assert dict(zip(header, rows[0]))["error"].startswith("DomainError: ")

    def test_q_gamma_near_one_gives_the_oracle_row(self, capsys):
        # Base q^2 = 0.999: (q^2;q^2)_inf is below the smallest normal
        # double, and dividing the products as doubles made this an error row.
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "besselY", "--kind", "2", "--nu", "0.25",
            "--q", "0.9995", "--z", "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        # Y = q^(-nu^2+nu) / pi Gamma_(q^2)(nu) Gamma_(q^2)(1-nu) (cos(nu pi) J_nu - J_-nu)
        q, nu = 0.9995, 0.25
        q2 = Fraction(q) ** 2
        jp, jm = (bessel_series_oracle(0, "J", n, 1.0, q) for n in (nu, -nu))
        gg = qgamma_oracle(nu, q2) * qgamma_oracle(1 - nu, q2)
        exact = q ** (-nu * nu + nu) / math.pi * gg * (math.cos(nu * math.pi) * jp - jm)
        assert abs(float(row["value_re"]) - exact) <= 1e-11 * abs(exact)

    def test_lambda_row_carries_its_bound(self, capsys):
        # Every lambda row printed err_estimate 0.0.
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "lambda", "--kind", "3", "--q", "0.8", "--u=-0.95,0.1"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert float(dict(zip(header, rows[0]))["err_estimate"]) > 0.0

    def test_lambda_outside_the_doubles_is_an_error_row(self, capsys):
        # Both factors are finite (about 1e198 and 1e200); the row printed
        # nan,-inf with exit 0.
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "lambda", "--kind", "3", "--q", "0.998",
            "--u", "0.9189908387701298,0.38068332250003195",
        )
        assert code == 64
        header, rows = parse_csv(out)
        assert dict(zip(header, rows[0]))["error"].startswith("DomainError: ")

    @pytest.mark.parametrize("kind,u", [("1", "0.9"), ("2", "-0.9")])
    def test_underflowing_product_is_an_error_row(self, capsys, kind, u):
        # Was a PoleError row for type 1, and 0.0 with exit 0 for type 2.
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "qexp", "--kind", kind, "--q", "0.9995", "--u", u
        )
        assert code == 64
        header, rows = parse_csv(out)
        assert dict(zip(header, rows[0]))["error"].startswith("DomainError: ")

    def test_no_points_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "qexp", "--q", "0.5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_is_usage_error(self, capsys, tol):
        # --tol nan ran 100,000 Lambert terms and exited 64 with
        # NonConvergence; --tol inf exited 0 with the stop rule off.
        code, out, err = run_cli(
            capsys, "eval", "--fn", "besselJ", "--kind", "2", "--nu", "0.25",
            "--q", "0.5", "--z", "1.0", "--tol", tol,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: tol must be positive and finite")

    @pytest.mark.parametrize("count", ["0", "-2", "inf", "nan"])
    def test_grid_count_below_one_is_usage_error(self, capsys, count):
        # Used to escape as an ArgumentTypeError traceback with exit 1; an
        # infinite count as an OverflowError traceback with exit 1.
        code, out, err = run_cli(
            capsys, "eval", "--fn", "qexp", "--q", "0.5", "--grid", "0", "1", count
        )
        assert code == 2 and out == ""
        assert err.startswith("error: grid count must be at least 1")


# `qfunc eval` output pinned in both formats: qexp, lambda and besselK, a
# complex --z, a --grid and one PoleError row.  Rows without an error must
# match byte for byte; an error row is compared by exception class only,
# since its message may name the rule that raised it.
_EVAL_PINS = [
    (
        ["eval", "--fn", "qexp", "--kind", "1", "--q", "0.5", "--u", "0.3,0.2", "--u", "2", "--z=-1.5,0.25"],
        64,
        [
            'qexp,1,,,0.5,0.3,0.2,1.6390830833354637,0.8969146997136935,8.291259573650197e-15,',
            'qexp,1,,,0.5,2.0,0.0,nan,nan,0.0,PoleError',
            'qexp,1,,,0.5,-1.5,0.25,0.1113939486512304,0.031087082251031642,7.254888058468848e-16,',
        ],
        [
            '{"function":"qexp","kind":1,"family":"","nu":null,"q":0.5,"arg":[0.3,0.2],"value":[1.6390830833354637,0.8969146997136935],"err_estimate":8.291259573650197e-15,"error":null}',
            '{"function":"qexp","kind":1,"family":"","nu":null,"q":0.5,"arg":[2.0,0.0],"value":[NaN,NaN],"err_estimate":0.0,"error":"PoleError"}',
            '{"function":"qexp","kind":1,"family":"","nu":null,"q":0.5,"arg":[-1.5,0.25],"value":[0.1113939486512304,0.031087082251031642],"err_estimate":7.254888058468848e-16,"error":null}',
        ],
    ),
    (
        ["eval", "--fn", "qexp", "--kind", "3", "--q", "0.7", "--grid", "-2.5", "3", "4"],
        0,
        [
            'qexp,3,,,0.7,-2.5,0.0,0.0003456232925700806,0.0,2.680057735250707e-10,',
            'qexp,3,,,0.7,-0.6666666666666667,0.0,0.10622007739188412,0.0,6.805305914761888e-13,',
            'qexp,3,,,0.7,1.1666666666666665,0.0,40.73120355412511,0.0,4.5055783425189666e-12,',
            'qexp,3,,,0.7,3.0,0.0,5518.313768535069,0.0,8.232977536980074e-10,',
        ],
        [
            '{"function":"qexp","kind":3,"family":"","nu":null,"q":0.7,"arg":[-2.5,0.0],"value":[0.0003456232925700806,0.0],"err_estimate":2.680057735250707e-10,"error":null}',
            '{"function":"qexp","kind":3,"family":"","nu":null,"q":0.7,"arg":[-0.6666666666666667,0.0],"value":[0.10622007739188412,0.0],"err_estimate":6.805305914761888e-13,"error":null}',
            '{"function":"qexp","kind":3,"family":"","nu":null,"q":0.7,"arg":[1.1666666666666665,0.0],"value":[40.73120355412511,0.0],"err_estimate":4.5055783425189666e-12,"error":null}',
            '{"function":"qexp","kind":3,"family":"","nu":null,"q":0.7,"arg":[3.0,0.0],"value":[5518.313768535069,0.0],"err_estimate":8.232977536980074e-10,"error":null}',
        ],
    ),
    (
        ["eval", "--fn", "lambda", "--kind", "2", "--q", "0.6", "--z", "0.7,-0.4", "--u", "1.5"],
        0,
        [
            'lambda,2,,,0.6,1.5,0.0,37.57606021359952,0.0,4.938780321245693e-13,',
            'lambda,2,,,0.6,0.7,-0.4,18.836619630275294,-0.7665690068579227,2.4203713935329146e-13,',
        ],
        [
            '{"function":"lambda","kind":2,"family":"","nu":null,"q":0.6,"arg":[1.5,0.0],"value":[37.57606021359952,0.0],"err_estimate":4.938780321245693e-13,"error":null}',
            '{"function":"lambda","kind":2,"family":"","nu":null,"q":0.6,"arg":[0.7,-0.4],"value":[18.836619630275294,-0.7665690068579227],"err_estimate":2.4203713935329146e-13,"error":null}',
        ],
    ),
    (
        ["eval", "--fn", "besselK", "--kind", "2", "--nu", "0.25", "--q", "0.5", "--z", "1.2,0.5", "--grid", "0.5", "2", "3"],
        0,
        [
            'besselK,2,K,0.25,0.5,1.2,0.5,-0.030241117322637304,-0.05885951341645987,7.12898086226575e-14,',
            'besselK,2,K,0.25,0.5,0.5,0.0,0.30560624861300867,0.0,4.874722814656698e-14,',
            'besselK,2,K,0.25,0.5,1.25,0.0,0.009598007823227115,0.0,7.019297707400597e-14,',
            'besselK,2,K,0.25,0.5,2.0,0.0,-0.020191291591189917,0.0,1.0496599095096346e-13,',
        ],
        [
            '{"function":"besselK","kind":2,"family":"K","nu":0.25,"q":0.5,"arg":[1.2,0.5],"value":[-0.030241117322637304,-0.05885951341645987],"err_estimate":7.12898086226575e-14,"error":null}',
            '{"function":"besselK","kind":2,"family":"K","nu":0.25,"q":0.5,"arg":[0.5,0.0],"value":[0.30560624861300867,0.0],"err_estimate":4.874722814656698e-14,"error":null}',
            '{"function":"besselK","kind":2,"family":"K","nu":0.25,"q":0.5,"arg":[1.25,0.0],"value":[0.009598007823227115,0.0],"err_estimate":7.019297707400597e-14,"error":null}',
            '{"function":"besselK","kind":2,"family":"K","nu":0.25,"q":0.5,"arg":[2.0,0.0],"value":[-0.020191291591189917,0.0],"err_estimate":1.0496599095096346e-13,"error":null}',
        ],
    ),
]

_EVAL_HEADER_LINE = "function,kind,family,nu,q,arg_re,arg_im,value_re,value_im,err_estimate,error"


def _error_class_only(line, fmt):
    """An error row with its message cut to the exception class."""
    if fmt == "csv":
        cells = next(csv.reader([line]))
        return ",".join(cells[:-1] + [cells[-1].split(":")[0]])
    doc = json.loads(line)
    return json.dumps({**doc, "error": doc["error"].split(":")[0]}, separators=(",", ":"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv,code,csv_rows,json_rows", _EVAL_PINS)
def test_eval_output_is_pinned(capsys, argv, code, csv_rows, json_rows, fmt):
    got_code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert got_code == code
    if fmt == "csv":
        header, *lines, end = out.split("\r\n")
        assert (header, end) == (_EVAL_HEADER_LINE, "")
        want = csv_rows
    else:
        *lines, end = out.split("\n")
        assert end == ""
        want = json_rows
    got = [l if l.endswith((",", '"error":null}')) else _error_class_only(l, fmt) for l in lines]
    assert got == want


class TestAsym:
    def test_qexp_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "asym",
            "--selector",
            "qexp:2",
            "--q",
            "0.5",
            "--n-start",
            "-2",
            "--n-stop",
            "-6",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "exact_abs", "asym_abs", "rel_error"]
        assert [r[0] for r in rows] == ["-2", "-3", "-4", "-5", "-6"]
        errs = [float(r[3]) for r in rows[2:]]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_kind3_has_bracket_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "asym",
            "--selector",
            "K:3",
            "--q",
            "0.5",
            "--nu",
            "0.25",
            "--n-start",
            "-2",
            "--n-stop",
            "-3",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-3:] == ["ratio", "phi_min", "phi_max"]
        assert float(rows[0][5]) <= float(rows[0][6])

    def test_rel_error_follows_tol(self, capsys):
        # Every column, rel_error included, comes from the command's base.
        argv = ["asym", "--selector", "I:2", "--q", "0.5", "--n-start", "-2", "--n-stop", "-2"]
        _, out, _ = run_cli(capsys, *argv)
        assert float(parse_csv(out)[1][0][3]) == asymptotic_decay_report(
            "I:2", (0.5, 0.25, 0.3), [-2]
        )[0][1]
        _, out, _ = run_cli(capsys, *argv, "--tol", "1e-3")
        base = QBase(0.5, tol=1e-3)
        spec = BesselSpec(KindTag.from_j(2), "I", 0.25)
        u = 0.5 ** (-2 + 0.3)
        exact = bessel_reference(spec, u, base)
        leading = bessel_asymptotic(spec, lattice_decompose(u, base), base).leading
        row = parse_csv(out)[1][0]
        assert float(row[1]) == abs(exact)
        assert float(row[3]) == abs(exact - leading) / abs(leading)

    def test_empty_range_emits_header_only(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "asym",
            "--selector",
            "qexp:1",
            "--q",
            "0.5",
            "--n-start",
            "-5",
            "--n-stop",
            "-4",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "exact_abs", "asym_abs", "rel_error"] and rows == []

    def test_bad_selector(self, capsys):
        code, _, err = run_cli(capsys, "asym", "--selector", "Q:9", "--q", "0.5")
        assert code == 2 and "selector" in err

    @pytest.mark.parametrize("selector,nu", [("I:3", "2.5"), ("K:3", "1.2")])
    def test_library_error_exits_64(self, capsys, selector, nu):
        code, out, err = run_cli(
            capsys, "asym", "--selector", selector, "--q", "0.5", "--nu", nu
        )
        assert code == 64 and out == ""
        assert err.startswith("error: NegativeProduct: ") and err.count("\n") == 1

    @pytest.mark.parametrize("lam", [None, "-inf", "-1e308", "nan"])
    def test_power_outside_the_doubles_exits_64(self, capsys, lam):
        # q^(n+lam) is beyond the doubles at every row (a float pow raises
        # OverflowError there) or, for lam = nan, not a number.
        argv = ["asym", "--selector", "qexp:2", "--q", "0.5", "--n-start=-2000", "--n-stop=-2002"]
        code, out, err = run_cli(capsys, *argv, *([f"--lam={lam}"] if lam else []))
        assert code == 64 and out == ""
        assert err.startswith("error: DomainError: q^(n+lam) at q=0.5, n=-2000")
        assert err.count("\n") == 1


class TestLaurent:
    def test_lambda_table_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "laurent", "--which", "lambda", "--kind", "2", "--q", "0.5",
            "--window", "3",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["l", "coeff"]
        table = {int(l): float(c) for l, c in rows}
        assert set(table) == set(range(-3, 4))
        for l, want in enumerate(ref.LAURENT_J2_Q05):
            if l <= 3:
                assert table[l] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("which", ["lambda", "bessel"])
    def test_window_below_one_is_usage_error(self, capsys, which):
        code, out, err = run_cli(
            capsys, "laurent", "--which", which, "--q", "0.5", "--window", "-3"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: window must be at least 1")

    def test_bessel_table_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "laurent", "--which", "bessel", "--q", "0.5", "--nu", "0.25",
            "--window", "2",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["l", "sign", "c1", "c2", "c3"]
        assert [r[0] for r in rows] == ["-2", "-1", "0", "1", "2"]
        by_l = {int(r[0]): r for r in rows}
        assert float(by_l[1][2]) == pytest.approx(ref.COEFF_PLUS_J1[1], rel=1e-9)
        assert float(by_l[-1][3]) == pytest.approx(ref.COEFF_MINUS_J2[0], rel=1e-9)

    @pytest.mark.parametrize("nu", [0.25, 0.75])
    def test_bessel_rows_equal_library_coefficients(self, capsys, nu):
        code, out, _ = run_cli(
            capsys, "laurent", "--which", "bessel", "--q", "0.8", "--nu", repr(nu),
            "--window", "6",
        )
        assert code == 0
        _, rows = parse_csv(out)
        base = QBase(0.8)
        for l, sign, c1, c2, c3 in rows:
            pair = type3_coeff(abs(int(l)), sign, nu, base)
            assert (float(c1), float(c2), float(c3)) == (pair.c1, pair.c2, pair.c3)


    def test_negative_coefficient_product_exits_64(self, capsys):
        # At q = 1/4, nu = 1.8 the type-1 and type-2 rows differ in sign from
        # l = 1 on, so the type-3 column has no real geometric mean.
        code, out, err = run_cli(
            capsys, "laurent", "--which", "bessel", "--q", "0.25", "--nu", "1.8"
        )
        assert code == 64 and out == ""
        assert err == (
            "error: NegativeProduct: coefficient product c1*c2 = -0.19257788113897734 < 0"
            " at (l=1, sign=plus, nu=1.8)\n"
        )

    def test_bessel_table_at_an_order_within_rounding_of_a_half_integer(self, capsys):
        # A factor of Phi's coefficients rounds to 0 at this order; the table
        # raised a bare ValueError, printed as "error: math domain error"
        # with the usage exit code 2.
        code, out, err = run_cli(
            capsys, "laurent", "--which", "bessel", "--q", "0.7", "--nu", "0.5000000000000002",
            "--window", "3",
        )
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["-3", "-2", "-1", "0", "1", "2", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["asym", "--selector", "K:3", "--q", "0.5", "--nu", "0.25", "--n-start", "-2", "--n-stop", "-5"],
        ["asym", "--selector", "J:2", "--q", "0.8", "--n-start", "-2", "--n-stop", "-4"],
        ["laurent", "--which", "bessel", "--q", "0.5", "--nu", "0.25", "--window", "3"],
        ["laurent", "--which", "lambda", "--kind", "1", "--q", "0.25", "--window", "4"],
    ],
)
def test_json_rows_equal_the_csv_cells(capsys, argv):
    # One JSON object per CSV row, with the header's keys in its order: the
    # integer columns as JSON integers, sign as a string, every other cell
    # as a JSON number that is the CSV cell's float.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    header, rows = parse_csv(out)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == len(rows) > 0
    for doc, row in zip(docs, rows):
        assert list(doc) == header
        for key, cell in zip(header, row):
            value = doc[key]
            if key == "sign":
                assert value == cell and cell in ("plus", "minus")
            elif key in ("n", "l"):
                assert type(value) is int and value == int(cell)
            else:
                assert type(value) is float and repr(value) == repr(float(cell))


class TestNonFiniteOrder:
    """A non-finite --nu is an error naming the order, exit 64, no traceback."""

    @pytest.mark.parametrize("nu", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("laurent", "--which", "bessel", "--q", "0.5", "--window", "3"),
            ("asym", "--selector", "J:1", "--q", "0.5"),
            ("asym", "--selector", "I:3", "--q", "0.5"),
        ],
        ids=["laurent", "asym-J1", "asym-I3"],
    )
    def test_command_names_the_order(self, capsys, argv, nu):
        code, out, err = run_cli(capsys, *argv, f"--nu={nu}")
        assert code == 64 and out == ""
        assert err == f"error: DomainError: q^2-Bessel functions need a finite order, got nu={nu}\n"

    @pytest.mark.parametrize("nu", ["inf", "nan"])
    @pytest.mark.parametrize("fn", ["besselJ", "besselY", "besselI", "besselK"])
    def test_eval_row_names_the_order(self, capsys, fn, nu):
        code, out, _ = run_cli(capsys, "eval", "--fn", fn, "--q", "0.5", "--nu", nu, "--z", "0.3")
        assert code == 64
        header, rows = parse_csv(out)
        assert dict(zip(header, rows[0]))["error"] == (
            f"DomainError: q^2-Bessel functions need a finite order, got nu={nu}"
        )


class TestVerify:
    def test_report_shape_and_exit(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("q_grid = 0.5\nnu_grid = 0.25,0.5\nlattice_points = -3:0.3\n")
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
        doc = json.loads(out)
        assert isinstance(doc, list) and doc
        assert sorted(d["check_id"] for d in doc) == [d["check_id"] for d in doc]
        assert all(set(d) == {"check_id", "worst_residual", "location", "pass"} for d in doc)
        # Known approximate claims keep the overall suite red.
        assert code == 1
        assert any(not d["pass"] for d in doc)
        assert any(d["pass"] for d in doc)

    def test_byte_identical_runs(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("q_grid = 0.5\nnu_grid = 0.25\nlattice_points = -3:0.3\n")
        code1, out1, _ = run_cli(capsys, "verify", "--config", str(cfg))
        code2, out2, _ = run_cli(capsys, "verify", "--config", str(cfg))
        assert code1 == code2 and out1 == out2

    def test_stamp_adds_timestamp_wrapper(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("q_grid = 0.5\nnu_grid = 0.25\nlattice_points = -3:0.3\n")
        _, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--stamp")
        doc = json.loads(out)
        assert "generated_at" in doc and "results" in doc

    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2 and "config" in err

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("q_gird = 0.5\n")
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("tol_pass", ["inf", "nan"])
    def test_non_finite_tol_pass_is_usage_error(self, capsys, tmp_path, tol_pass):
        # inf passed all 23 checks and exited 0; nan failed all 23.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"q_grid = 0.5\ntol_pass = {tol_pass}\n")
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "tol_pass must be positive and finite" in err


class TestArgparse:
    def test_parser_is_built_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            if kwargs.get("prog") == "qfunc":
                built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        for _ in range(2):
            run_cli(capsys, "eval", "--fn", "qexp", "--q", "0.5", "--u", "0")
        assert len(built) == 1

    def test_usage_error_after_a_call_still_exits_2(self, capsys):
        run_cli(capsys, "eval", "--fn", "qexp", "--q", "0.5", "--u", "0")
        with pytest.raises(SystemExit) as exc:
            main(["laurent", "--q", "0.5", "--which", "gamma"])
        assert exc.value.code == 2

    def test_command_is_looked_up_when_main_runs(self, monkeypatch, capsys):
        # A function swapped on the module after the parser was built, as a
        # tracer does, is the one that runs.
        run_cli(capsys, "laurent", "--q", "0.5")
        monkeypatch.setattr(cli, "cmd_laurent", lambda args: 17)
        assert main(["laurent", "--q", "0.5"]) == 17

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_function_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--fn", "gamma", "--q", "0.5", "--u", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--format", "json"],
            ["verify", "--tol", "1e-6"],
            ["verify", "--max-terms", "10"],
            ["eval", "--fn", "qexp", "--q", "0.5", "--u", "1", "--seed", "1"],
            ["asym", "--selector", "qexp:1", "--q", "0.5", "--seed", "1"],
            ["laurent", "--q", "0.5", "--seed", "1"],
        ],
    )
    def test_option_the_command_ignores_is_usage_error(self, capsys, argv):
        # Each command takes only the options it reads; these were accepted
        # and ignored.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
