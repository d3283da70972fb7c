"""qfunc benchmark: one workload, one closed-loop run, one JSON result.

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; qfunc is imported from ./src and
nowhere else, and the run stops with exit code 2 when it is missing.  The
caller issues the next operation only after the previous one returns
(closed loop, one caller, one thread).  Every operation's outcome is
checked; the default seed's outputs are also compared with stored mpmath
references (perfbench/oracle.py).  Human-readable lines come first; the
last line of stdout is the JSON result.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with passes run under a span recorder wrapped around the public
functions, and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import inputs
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "references.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

TOL_PASS = 1e-8  # the suite's own SuiteConfig.tol_pass
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_us": "us",
    "op_tail_us": "us",
    "peak_rss_mb": "MB",
    "accurate_ratio": "ratio",
}
# A shared 2-vCPU x86-64 VM changes speed by up to 1.6x from one run to
# the next, for minutes at a time, so every time metric is scaled to a
# reference host speed.  A fixed pure-Python loop (the gauge) is timed
# before every pass; a time metric is the raw figure times
# GAUGE_REF_S / (median gauge time of the run).  GAUGE_REF_S is the
# gauge's time on such a VM (Python 3.11), a constant of the benchmark.
GAUGE_LOOPS = 3000
GAUGE_REF_S = 2.0e-4
# setup_s: SETUP_STARTS interpreter starts at each of SETUP_POINTS evenly
# spaced moments of the run; the best moment's median counts.
SETUP_POINTS = 8
SETUP_STARTS = 3
# Samples kept per run.  The storage is allocated once, so the harness's
# own memory, and with it peak_rss_mb, does not grow with the number of
# operations a run gets through.
LATENCY_CAP = 65536
WALL_CAP = 16384
# Span cap for one traced run; passes stop being traced beyond it.
MAX_SPANS = 300_000

# op_tail_us percentile per workload.  It is fixed, not derived from the
# sample count of each run, so a faster program does not move to a higher
# percentile; each leaves at least 10 samples beyond it even on a run four
# times slower than at the commit that set it.
TAIL_PERCENTILE = {"suite": 90.0, "pointwise": 99.0, "tables": 90.0}


def load_qfunc():
    """Import qfunc from ./src of the checkout, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "qfunc", "__init__.py")):
        print(f"perfbench: no qfunc sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import qfunc
    import qfunc.cli

    if not os.path.abspath(qfunc.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported qfunc from {qfunc.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return qfunc


def gauge() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed at this moment."""
    t0 = time.perf_counter()
    s = 0
    for i in range(GAUGE_LOOPS):
        s += i * i
    return time.perf_counter() - t0


def interpreter_starts(n: int) -> List[float]:
    """Seconds from starting a fresh interpreter until `import qfunc` returns, n times."""
    code = f"import sys, os; sys.path.insert(0, {SRC!r}); import qfunc; os._exit(0)"
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        out.append(time.perf_counter() - t0)
    return out


# ---------------------------------------------------------------------------
# Operations: an input dict becomes (callable, args).  Callables are looked
# up at build time, so a pass built after Tracer.install calls the wrappers.
# ---------------------------------------------------------------------------


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def run_cli(argv: List[str]) -> Tuple[int, str]:
    """qfunc.cli.main in-process with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["qfunc.cli"].main(argv)
    return code, out.getvalue()


def build(op: Dict) -> Tuple[Callable, tuple]:
    from qfunc import harness, qbessel, qcalc, qexp

    fn = op["fn"]
    if fn == "run_suite":
        return harness.run_suite, (harness.SuiteConfig(seed=op["seed"]),)
    if fn == "cli":
        return run_cli, (op["argv"],)
    base = qcalc.QBase(op["q"])
    if fn == "qgamma":
        return qcalc.qgamma, (op["alpha"], base)
    if fn in ("qexp_eval", "lambda_product"):
        return getattr(qexp, fn), (qexp.KindTag.from_j(op["j"]), _complex(op["u"]), base)
    if fn == "lambda_laurent_eval":
        return qexp.lambda_laurent_eval, (qexp.KindTag.from_j(op["j"]), _complex(op["u"]), op["window"], base)
    if fn == "bessel_type3_repr":
        return qbessel.bessel_type3_repr, (op["family"], op["nu"], _complex(op["u"]), op["window"], base)
    spec = qbessel.BesselSpec(qexp.KindTag.from_j(op["j"]), op["family"], op["nu"])
    if fn == "bessel_value":
        return qbessel.bessel_value, (spec, _complex(op["z"]), base)
    if fn == "bessel_phi_repr":
        return qbessel.bessel_phi_repr, (spec, _complex(op["u"]), base)
    raise ValueError(f"unknown operation {fn!r}")


def parse_table(text: str) -> List[List[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def outcome(op: Dict, out) -> Optional[str]:
    """None for a good outcome, otherwise the failure class."""
    if isinstance(out, BaseException):
        return type(out).__name__
    if op["fn"] == "cli":
        code, text = out
        if code != 0:
            return f"exit_{code}"
        rows = parse_table(text)
        if len(rows) != op["rows"]:
            return "row_count"
        for row in rows:
            for cell in row:
                if cell not in ("plus", "minus") and not math.isfinite(float(cell)):
                    return "nonfinite_cell"
        return None
    value = getattr(out, "value", out)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return "nonfinite_value"
    if hasattr(out, "err_estimate") and not math.isfinite(out.err_estimate):
        return "nonfinite_err_estimate"
    return None


class Reservoir:
    """At most `size` samples of a stream: a uniform draw from all it was given."""

    def __init__(self, size: int, rng: random.Random) -> None:
        self.buf = array("d", bytes(8 * size))
        self.size = size
        self.seen = 0
        self.rng = rng

    def add(self, x: float) -> None:
        if self.seen < self.size:
            self.buf[self.seen] = x
        else:
            i = self.rng.randrange(self.seen + 1)
            if i < self.size:
                self.buf[i] = x
        self.seen += 1

    def values(self) -> List[float]:
        return self.buf[: min(self.seen, self.size)].tolist()


class Log:
    """Everything measured over the passes of one run."""

    def __init__(self, seed: int = 0) -> None:
        rng = random.Random(seed)  # which samples a full reservoir keeps
        self.wall = Reservoir(WALL_CAP, rng)
        self.latency = Reservoir(LATENCY_CAP, rng)
        self.gauge = Reservoir(WALL_CAP, rng)
        self.passes = 0
        self.attempted = 0
        self.failures: Dict[str, int] = {}
        self.checks_run = 0
        self.checks_passed = 0
        self.seed_checks_passed: Optional[int] = None  # pass 0 runs the benchmark seed
        # Times of each check over the untraced passes; kept by traced runs only.
        self.check_ms: Optional[Dict[str, List[float]]] = None

    def fail(self, cls: str) -> None:
        self.failures[cls] = self.failures.get(cls, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class CheckClock:
    """Times each check inside run_suite from the CheckResult rows it makes.

    run_suite builds one CheckResult right after each check returns or
    raises, so the gaps between constructions are the per-check times.
    """

    def __init__(self, harness) -> None:
        self.harness = harness
        self.real = harness.CheckResult
        self.marks: List[Tuple[str, float]] = []
        self.t = 0.0

    def __enter__(self) -> "CheckClock":
        self.harness.CheckResult = self
        return self

    def __exit__(self, *exc) -> None:
        self.harness.CheckResult = self.real

    def start(self) -> None:
        self.marks = []
        self.t = time.perf_counter()

    def __call__(self, **fields):
        now = time.perf_counter()
        self.marks.append((fields["check_id"], now - self.t))
        self.t = now
        return self.real(**fields)


def run_pass(workload: str, seed: int, k: int, log: Log, clock: Optional[CheckClock], tracer=None) -> float:
    """One timed pass over the seeded input list of pass k; returns its wall time."""
    ops = inputs.PASSES[workload](seed, k)
    calls = [build(op) for op in ops]
    if tracer is not None:
        tracer.new_pass(k)
    outs = []
    lat = []
    perf = time.perf_counter
    t_pass = perf()
    for i, (fn, args) in enumerate(calls):
        if tracer is not None:
            tracer.op = i
        if clock is not None:
            clock.start()
        t0 = perf()
        try:
            out = fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none aborts the run
            out = exc
        lat.append(perf() - t0)
        outs.append(out)
    wall = perf() - t_pass
    log.passes += 1
    log.wall.add(wall)
    latency = log.latency
    if workload == "suite":
        rows = outs[0]
        if isinstance(rows, BaseException) or len(rows) != len(tracing.CHECK_IDS):
            log.attempted += len(tracing.CHECK_IDS)
            log.fail(type(rows).__name__ if isinstance(rows, BaseException) else "row_count")
            return wall
        for cid, dt in clock.marks:
            latency.add(dt)
            if log.check_ms is not None and tracer is None:
                log.check_ms.setdefault(cid, []).append(1e3 * dt)
        if k == 0:
            log.seed_checks_passed = sum(bool(r.passed) for r in rows)
        for r in rows:
            log.attempted += 1
            log.checks_run += 1
            log.checks_passed += bool(r.passed)
            if r.location.startswith("error:"):
                log.fail("check_error")
        return wall
    for dt in lat:
        latency.add(dt)
    for op, out in zip(ops, outs):
        log.attempted += 1
        cls = outcome(op, out)
        if cls is not None:
            log.fail(cls)
    return wall


# ---------------------------------------------------------------------------
# Accuracy against the stored oracle references.
# ---------------------------------------------------------------------------


def _rel(value: complex, ref: complex) -> float:
    return abs(value - ref) / abs(ref) if ref != 0 else abs(value)


def accuracy(workload: str, log: Log) -> Dict[str, float]:
    """Run the default seed's reference list untimed and compare every output.

    Returns {} when the stored inputs no longer match the generator.  A
    failed operation counts as not accurate.
    """
    with open(REFERENCES, encoding="utf-8") as fh:
        data = json.load(fh)[workload]
    ops = inputs.reference_inputs(workload)
    if ops != data["inputs"]:
        return {}
    accurate = checked = bounded = with_bound = 0
    misses: Dict[str, int] = {}  # inaccurate outputs by function
    for op, ref in zip(ops, data["refs"]):
        fn, args = build(op)
        try:
            out = fn(*args)
        except Exception as exc:  # noqa: BLE001 - counted as inaccurate
            out = exc
        log.attempted += 1
        cls = outcome(op, out)
        if cls is not None:
            log.fail(cls)
        if op["fn"] == "cli":
            cells = _table_cells(op, out) if cls is None else {}
            argv = op["argv"]
            for key, want in ref.items():
                checked += 1
                got = cells.get(key)
                if got is not None and _rel(got, want) <= TOL_PASS:
                    accurate += 1
                else:
                    name = " ".join(argv[:5:2] if argv[2] == "lambda" else argv[:3:2])
                    name += "" if argv[0] == "asym" else " " + key.rsplit(":", 1)[1]
                    misses[name] = misses.get(name, 0) + 1
            continue
        checked += 1
        name = " ".join([op["fn"]] + [f"{k}={op[k]}" for k in ("j", "family") if k in op])
        if cls is not None:
            misses[name] = misses.get(name, 0) + 1
            continue
        want = _complex(ref)
        value = getattr(out, "value", out)
        err = abs(value - want)
        if _rel(value, want) <= TOL_PASS:
            accurate += 1
        else:
            misses[name] = misses.get(name, 0) + 1
        if hasattr(out, "err_estimate"):
            # The slack is the rounding of the stored reference to double.
            with_bound += 1
            bounded += err <= out.err_estimate + 2.0**-53 * abs(want)
    figures: Dict = {"accurate_ratio": accurate / checked, "checked": checked, "misses": misses}
    if with_bound:
        figures["bound_ratio"] = bounded / with_bound
        figures["with_bound"] = with_bound
    return figures


def _table_cells(op: Dict, out) -> Dict[str, float]:
    """The CLI cells that have an oracle reference, keyed as oracle.py keys them."""
    rows = parse_table(out[1])
    cells: Dict[str, float] = {}
    argv = op["argv"]
    if argv[0] == "asym":
        for row in rows:
            cells[f"{row[0]}:exact_abs"] = float(row[1])
    elif "lambda" in argv:
        for l, coeff in rows:
            cells[f"{l}:coeff"] = float(coeff)
    else:
        for l, sign, c1, c2, c3 in rows:
            for name, cell in (("c1", c1), ("c2", c2), ("c3", c3)):
                cells[f"{l}:{sign}:{name}"] = float(cell)
    return cells


# ---------------------------------------------------------------------------
# Statistics and reporting.
# ---------------------------------------------------------------------------


def percentile(values: List[float], p: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    s = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1], len(s) - rank


def timed(
    workload: str, seed: int, seconds: float, log: Log, clock, tracer=None, setup=None
) -> Tuple[List[float], List[float]]:
    """Closed-loop passes until `seconds` of them have elapsed.

    The gauge is timed before every pass.  With `setup` (a dict),
    SETUP_STARTS interpreter starts are made at each of SETUP_POINTS evenly
    spaced moments and their times go to setup[point]; they do not count
    towards `seconds`.  With a tracer, odd passes run traced and even passes
    untraced, so a change of host speed meets both alike, and the wall
    times of the untraced and of the traced passes are returned.
    """
    perf = time.perf_counter
    start = perf()
    outside = 0.0  # time spent on interpreter starts
    walls: Tuple[List[float], List[float]] = ([], [])
    k = 0
    while True:
        point = min(SETUP_POINTS - 1, int((perf() - start - outside) * SETUP_POINTS / seconds))
        if setup is not None and point not in setup:
            t0 = perf()
            setup[point] = interpreter_starts(SETUP_STARTS)
            outside += perf() - t0
        log.gauge.add(gauge())
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        try:
            wall = run_pass(workload, seed, k, log, clock, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if tracer is not None:
            walls[traced].append(wall)
        k += 1
        if k >= 2 and (perf() - start - outside >= seconds or (tracer is not None and len(tracer.spans) > MAX_SPANS)):
            return walls


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(REFERENCES):
        print(f"perfbench: missing {REFERENCES}", file=sys.stderr)
        return 2
    qfunc = load_qfunc()
    wl, seed = args.workload, args.seed

    log = Log(seed)
    acc: Dict[str, float] = {}
    if wl != "suite":
        acc = accuracy(wl, log)
        if not acc:
            print("perfbench: stored reference inputs differ from the generator; rerun oracle.py", file=sys.stderr)
            return 2
    with CheckClock(qfunc.harness) as clock:
        if args.trace == 0:
            # One unmeasured start writes the bytecode cache, which users
            # pay once per install, not per start.
            interpreter_starts(1)
            setup: Dict[int, List[float]] = {}
            timed(wl, seed, args.seconds, log, clock, setup=setup)
            # Read before the statistics below allocate anything.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            log.check_ms = {}
            tracer = tracing.Tracer()
            untraced_walls, traced_walls = timed(wl, seed, args.seconds, log, clock, tracer)

    if wl == "suite":
        acc["accurate_ratio"] = log.checks_passed / max(log.checks_run, 1)
    correct = log.failed == 0
    lines = [f"workload={wl} seed={seed} trace={args.trace} passes={log.passes} ops={log.attempted}"]
    if log.failures:
        lines.append("failures: " + ", ".join(f"{k}={v}" for k, v in sorted(log.failures.items())))

    if args.trace == 0:
        p = TAIL_PERCENTILE[wl]
        lats = log.latency.values()
        tail, beyond = percentile(lats, p)
        raw = {
            "setup_s": min(statistics.median(b) for b in setup.values()),
            "wall_s": statistics.median(log.wall.values()),
            "op_p50_us": 1e6 * statistics.median(lats),
            "op_tail_us": 1e6 * tail,
        }
        gauge_s = statistics.median(log.gauge.values())
        scale = GAUGE_REF_S / gauge_s
        metrics = {
            "setup_s": raw["setup_s"] * scale,
            "wall_s": raw["wall_s"] * scale,
            "op_p50_us": raw["op_p50_us"] * scale,
            "op_tail_us": raw["op_tail_us"] * scale,
            "peak_rss_mb": peak_rss_mb,
            "accurate_ratio": acc["accurate_ratio"],
        }
        scaled = f"x {scale:.4f} (gauge {1e6 * gauge_s:.1f} us against {1e6 * GAUGE_REF_S:g} us)"
        notes = {
            "op_p50_us": f"= {raw['op_p50_us']:.6g} {scaled}, {len(lats)} of {log.latency.seen} samples kept",
            "op_tail_us": f"= {raw['op_tail_us']:.6g} {scaled}, p{p:g}, {beyond} samples beyond it",
            "setup_s": f"= {raw['setup_s']:.6g} {scaled}, median of {SETUP_STARTS} interpreter starts, best of {len(setup)} moments",
            "wall_s": f"= {raw['wall_s']:.6g} {scaled}, median of {log.passes} passes",
            "accurate_ratio": (
                f"{log.checks_passed} of {log.checks_run} check rows within tol_pass"
                if wl == "suite"
                else f"of {acc.get('checked', 0)} outputs of the default seed, rel. error <= {TOL_PASS:g}"
            ),
        }
        for name, value in metrics.items():
            lines.append(f"  {name:<15} {value:.6g} {END_TO_END[name]}  {notes.get(name, '')}".rstrip())
        # Reported for reading only: the JSON result carries failed and
        # attempted itself, and the other two apply to some workloads only.
        lines.append(f"  {'fail_ratio':<15} {log.failed / max(log.attempted, 1):.6g} ratio  ({log.failed} of {log.attempted})")
        if acc.get("misses"):
            worst = sorted(acc["misses"].items(), key=lambda kv: (-kv[1], kv[0]))
            lines.append("  not accurate: " + ", ".join(f"{k} ({v})" for k, v in worst))
        if "bound_ratio" in acc:
            lines.append(
                f"  {'bound_ratio':<15} {acc['bound_ratio']:.6g} ratio  "
                f"(|value - reference| <= err_estimate, of {acc['with_bound']} SeriesValue outputs)"
            )
        if wl == "suite":
            lines.append(f"  {'checks_passed':<15} {log.seed_checks_passed} count  (of 23, SuiteConfig(seed={seed}))")
        result_metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        layer = tracing.layer_metrics(tracer.names, tracer.spans, len(traced_walls))
        for cid in tracing.CHECK_IDS:
            layer[f"harness.check.{cid}.ms"] = statistics.median(log.check_ms.get(cid, [0.0]))
        layer["trace.overhead"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
        result_metrics = {k: {"value": layer[k], "unit": tracing.metric_unit(k)} for k in tracing.metric_names()}
        os.makedirs(TRACE_DIR, exist_ok=True)
        span_file = os.path.join(TRACE_DIR, f"spans-{wl}-{seed}.json")
        tracer.dump(span_file)
        lines.append(
            f"  traced passes={len(traced_walls)} untraced passes={len(untraced_walls)} spans={len(tracer.spans)} "
            f"overhead={layer['trace.overhead']:.3f} (median traced pass / median untraced pass) -> {span_file}"
        )
        for k in tracing.metric_names():
            lines.append(f"  {k:<48} {layer[k]:.6g} {tracing.metric_unit(k)}")
    print("\n".join(lines))
    print(
        json.dumps(
            {"correct": correct, "attempted": log.attempted, "failed": log.failed, "metrics": result_metrics},
            separators=(",", ":"),
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
