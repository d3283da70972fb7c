"""Command-line front end: evaluation, asymptotic tables, Laurent/expansion
coefficient dumps, and verification-suite runs.

Output is deterministic: CSV (RFC 4180, header row, shortest round-trip
decimals) or JSON lines, with no timestamps unless --stamp is given.
Exit codes: 0 success, 1 failed verification checks, 2 usage/config
errors, 64 if any evaluation row failed or a command raised a QfuncError.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from typing import List, Optional, Sequence

from .errors import QfuncError
from .harness import SuiteConfig, _decay_rows, run_suite
from .qcalc import QBase
from .qexp import KindTag, _lambda_value, lambda_laurent_table, qexp_eval
from .qbessel import BesselSpec, _laurent_tables, _type3_tables, bessel_value

__all__ = ["main"]


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def _parse_complex(text: str) -> complex:
    """Parse 're' or 're,im' into a complex number."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


_EVAL_HEADER = [
    "function",
    "kind",
    "family",
    "nu",
    "q",
    "arg_re",
    "arg_im",
    "value_re",
    "value_im",
    "err_estimate",
    "error",
]


def _emit_rows(header: List[str], rows: Sequence[Sequence], fmt: str, out) -> None:
    """Rows of ints, floats and strings: floats by `_fmt` in CSV, every
    number as a JSON number."""
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\r\n")
        w.writerow(header)
        w.writerows([_fmt(c) if isinstance(c, float) else c for c in row] for row in rows)
    else:
        for row in rows:
            out.write(json.dumps(dict(zip(header, row)), separators=(",", ":")) + "\n")


def _base_from_args(args) -> QBase:
    return QBase(args.q, tol=args.tol, max_terms=args.max_terms)


def _eval_args(args) -> List[complex]:
    points: List[complex] = []
    if args.u is not None:
        points.extend(args.u)
    if args.z is not None:
        points.extend(args.z)
    if args.grid is not None:
        start, stop, count = args.grid
        if not 1.0 <= count < math.inf:
            raise ValueError(f"grid count must be at least 1 and finite, got {count:g}")
        n = int(count)
        step = (stop - start) / (n - 1) if n > 1 else 0.0
        points.extend(complex(start + i * step, 0.0) for i in range(n))
    return points


def cmd_eval(args) -> int:
    fn = args.fn
    base = _base_from_args(args)
    points = _eval_args(args)
    if not points:
        print("error: no evaluation points given (--u/--z/--grid)", file=sys.stderr)
        return 2
    family = fn[6:] if fn.startswith("bessel") else ""
    results = []
    for p in points:
        value: complex = complex(math.nan, math.nan)
        err = 0.0
        msg = ""
        try:
            if fn == "qexp":
                sv = qexp_eval(KindTag.from_j(args.kind), p, base)
            elif fn == "lambda":
                sv = _lambda_value(KindTag.from_j(args.kind), p, base)
            else:  # besselJ/Y/I/K, the parser's other choices
                sv = bessel_value(BesselSpec(KindTag.from_j(args.kind), family, args.nu), p, base)
            value, err = sv.value, sv.err_estimate
        except QfuncError as exc:
            msg = f"{type(exc).__name__}: {exc}"
        results.append((p, value, err, msg))
    if args.format == "csv":
        head = [fn, args.kind, family, args.nu if family else "", args.q]
        rows = [head + [p.real, p.imag, v.real, v.imag, e, msg] for p, v, e, msg in results]
        _emit_rows(_EVAL_HEADER, rows, "csv", sys.stdout)
    else:
        for p, v, e, msg in results:
            doc = {
                "function": fn,
                "kind": args.kind,
                "family": family,
                "nu": args.nu if family else None,
                "q": args.q,
                "arg": [p.real, p.imag],
                "value": [v.real, v.imag],
                "err_estimate": e,
                "error": msg or None,
            }
            sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    return 64 if any(msg for *_, msg in results) else 0


def cmd_asym(args) -> int:
    selector = args.selector
    head, _, tail = selector.partition(":")
    try:
        j = int(tail)
    except ValueError:
        print(f"error: selector must look like 'K:2' or 'qexp:1', got {selector!r}", file=sys.stderr)
        return 2
    if head not in ("qexp", "J", "Y", "I", "K") or j not in (1, 2, 3):
        print(f"error: unknown selector {selector!r}", file=sys.stderr)
        return 2
    n_range = list(range(args.n_start, args.n_stop - 1, -1))
    header = ["n", "exact_abs", "asym_abs", "rel_error"]
    if head != "qexp" and j == 3:
        header += ["ratio", "phi_min", "phi_max"]
    base = _base_from_args(args)
    rows = [
        [n, abs(exact), abs(leading), rel, *extra]
        for n, exact, leading, rel, extra in _decay_rows(
            selector, (args.q, args.nu, args.lam), n_range, base
        )
    ]
    _emit_rows(header, rows, args.format, sys.stdout)
    return 0


def cmd_laurent(args) -> int:
    if args.window < 1:
        raise ValueError(f"window must be at least 1, got {args.window}")
    base = _base_from_args(args)
    if args.which == "lambda":
        table = lambda_laurent_table(KindTag.from_j(args.kind), args.window, base)
        header = ["l", "coeff"]
        rows = [[l, table.coeffs[l]] for l in sorted(table.coeffs)]
    else:
        header = ["l", "sign", "c1", "c2", "c3"]
        (p1, m1, _, _), (p2, m2, _, _) = _laurent_tables(args.nu, args.window, base)
        p3, m3 = _type3_tables(args.nu, args.window, base)[:2]
        rows = [(-l, "minus", m1[l - 1], m2[l - 1], m3[l - 1]) for l in range(args.window, 0, -1)]
        rows += [(l, "plus", p1[l], p2[l], p3[l]) for l in range(args.window + 1)]
    _emit_rows(header, rows, args.format, sys.stdout)
    return 0


def _parse_config_file(path: str) -> SuiteConfig:
    kwargs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key == "q_grid":
                kwargs["q_grid"] = tuple(float(x) for x in val.split(",") if x)
            elif key == "nu_grid":
                kwargs["nu_grid"] = tuple(float(x) for x in val.split(",") if x)
            elif key == "lattice_points":
                pts = []
                for item in val.split(","):
                    if not item:
                        continue
                    n_s, _, lam_s = item.partition(":")
                    pts.append((int(n_s), float(lam_s)))
                kwargs["lattice_points"] = tuple(pts)
            elif key == "tol_pass":
                kwargs["tol_pass"] = float(val)
            elif key == "seed":
                kwargs["seed"] = int(val)
            else:
                raise ValueError(f"unknown config key {key!r}")
    return SuiteConfig(**kwargs)


def cmd_verify(args) -> int:
    if args.config is not None:
        try:
            config = _parse_config_file(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    else:
        config = SuiteConfig(seed=args.seed) if args.seed is not None else SuiteConfig()
    results = run_suite(config)
    payload = [
        {
            "check_id": r.check_id,
            "worst_residual": r.worst_residual,
            "location": r.location,
            "pass": r.passed,
        }
        for r in results
    ]
    if args.stamp:
        doc = {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "results": payload}
    else:
        doc = payload
    sys.stdout.write(json.dumps(doc, indent=2, allow_nan=True) + "\n")
    return 0 if all(r.passed for r in results) else 1


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """Built once; `main` looks up `cmd_<command>` at call time, so a swapped-in one runs."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--tol", type=float, default=1e-12)
    common.add_argument("--max-terms", type=int, default=100000)

    parser = argparse.ArgumentParser(
        prog="qfunc",
        description="q-exponentials and q^2-Bessel functions: evaluation, "
        "asymptotics, expansion coefficients, and a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a function on points")
    p_eval.add_argument(
        "--fn",
        required=True,
        choices=("qexp", "lambda", "besselJ", "besselY", "besselI", "besselK"),
    )
    p_eval.add_argument("--kind", type=int, default=1, choices=(1, 2, 3))
    p_eval.add_argument("--nu", type=float, default=0.5)
    p_eval.add_argument("--q", type=float, required=True)
    p_eval.add_argument("--u", type=_parse_complex, action="append", help="argument 're' or 're,im'; repeatable")
    p_eval.add_argument("--z", type=_parse_complex, action="append", help="alias of --u for Bessel entry points")
    p_eval.add_argument(
        "--grid",
        type=float,
        nargs=3,
        metavar=("START", "STOP", "COUNT"),
        help="linear real grid of COUNT points",
    )

    p_asym = sub.add_parser("asym", parents=[common], help="asymptotic decay table")
    p_asym.add_argument("--selector", required=True, help="'qexp:j' or 'F:j' with F in J,Y,I,K")
    p_asym.add_argument("--q", type=float, required=True)
    p_asym.add_argument("--nu", type=float, default=0.25)
    p_asym.add_argument("--lam", type=float, default=0.3)
    p_asym.add_argument("--n-start", type=int, default=-2)
    p_asym.add_argument("--n-stop", type=int, default=-8)

    p_lau = sub.add_parser("laurent", parents=[common], help="dump coefficient tables")
    p_lau.add_argument("--which", choices=("lambda", "bessel"), default="lambda")
    p_lau.add_argument("--kind", type=int, default=1, choices=(1, 2, 3))
    p_lau.add_argument("--q", type=float, required=True)
    p_lau.add_argument("--nu", type=float, default=0.25)
    p_lau.add_argument("--window", type=int, default=10)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--config", help="flat key=value config file")
    p_ver.add_argument("--stamp", action="store_true", help="include a timestamp in the report")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QfuncError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
