"""Span recorder installed around qfunc's public functions from outside.

A wrapper replaces a function in every qfunc namespace that imported it,
so calls between modules are recorded too, and `uninstall` puts the
originals back.  Each span is (function index, parent span, operation id,
pass index, start, end, terms, raised, repeat, tag), kept in memory and
written out at the end of the run.  No file under src/ changes.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

# Functions that get per-function metrics, by layer (module).
TRACED: Dict[str, Tuple[str, ...]] = {
    "qcalc": ("qpoch_infinite", "qgamma", "basic_hyper"),
    "qexp": (
        "qexp_eval",
        "lambda_product",
        "lambda_laurent_coeff",
        "lambda_laurent_table",
        "lambda_laurent_eval",
    ),
    "qbessel": (
        "bessel_series",
        "bessel_combination",
        "bessel_phi_repr",
        "bessel_laurent_coeff",
        "type3_coeff",
        "bessel_type3_repr",
        "type3_asymptotic_bracket",
        "a_nu",
    ),
}
# Layer entry points that only count towards the layer totals.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "harness": ("run_suite", "asymptotic_decay_report"),
    "cli": ("main", "cmd_eval", "cmd_asym", "cmd_laurent", "cmd_verify"),
}
LAYERS = ("qcalc", "qexp", "qbessel", "harness", "cli")
# The 23 checks of qfunc.harness.run_suite, in report order.
CHECK_IDS = (
    "classical-limit", "closed-form-type12", "closed-form-type3", "coeff-bound",
    "coeff-recursion-type1", "coeff-recursion-type2", "coeff-recursion-type3",
    "decay-modified", "decay-modified-i2", "decay-oscillatory", "decay-qexp-type12",
    "decay-qexp-type3", "diffeq-residual", "laurent-coeff-methods", "laurent-vs-product",
    "ordering-inequalities", "qexp-functional", "repr-halfinteger", "repr-macdonald",
    "rotation", "type3-bracket", "type3-twosided", "wronskian-closed",
)
STATS = ("calls", "self_ms", "terms", "raised", "repeat_ratio")

# Span tuple fields.
FN, PARENT, OP, PASS, START, END, TERMS, RAISED, REPEAT, TAG = range(10)


def _arg_key(args: tuple, kwargs: dict) -> tuple:
    key = tuple(tuple(a) if type(a) is list else a for a in args)
    if kwargs:
        key += tuple(sorted(kwargs.items()))
    return key


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.names: List[str] = []  # "layer.function"
        self.spans: List[tuple] = []
        self.op = -1
        self.pass_index = -1
        self._stack: List[int] = []
        self._seen: set = set()
        self._patches: List[Tuple[object, str, object, object]] = []  # (namespace, name, original, wrapper)

    def new_pass(self, pass_index: int) -> None:
        """Start a pass: argument repeats are counted within one pass only."""
        self.pass_index = pass_index
        self._seen = set()

    def _wrap(self, fn_index: int, fn: Callable, tag_order: bool) -> Callable:
        """With tag_order, fn is bessel_combination(family, kind, nu, z, base)
        and the span's tag marks a call on the integer-order limit path."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = False
            terms = 0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                terms = getattr(out, "terms_used", 0)
                return out
            except BaseException:
                raised = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                try:
                    key = (fn_index, _arg_key(args, kwargs))
                    repeat = key in self._seen
                    self._seen.add(key)
                except TypeError:  # an unhashable argument: never a repeat
                    repeat = False
                tag = tag_order and float(args[2]).is_integer()
                spans[sid] = (
                    fn_index, parent, self.op, self.pass_index, t0, t1, terms, raised, repeat, tag
                )

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace each listed function in every loaded qfunc namespace.

        The wrappers are made on the first call; later calls put the same
        wrappers back, so install and uninstall may alternate pass by pass.
        """
        if not self._patches:
            homes = {layer: importlib.import_module(f"qfunc.{layer}") for layer in LAYERS}
            namespaces = [m for k, m in sorted(sys.modules.items()) if k == "qfunc" or k.startswith("qfunc.")]
            for layer, home in homes.items():
                for name in TRACED.get(layer, ()) + ENTRY_POINTS.get(layer, ()):
                    orig = getattr(home, name)
                    self.names.append(f"{layer}.{name}")
                    wrapper = self._wrap(len(self.names) - 1, orig, name == "bessel_combination")
                    for ns in namespaces:
                        if getattr(ns, name, None) is orig:
                            self._patches.append((ns, name, orig, wrapper))
        for ns, name, _, wrapper in self._patches:
            setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, orig, _ in reversed(self._patches):
            setattr(ns, name, orig)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["fn", "parent", "op", "pass", "start", "end", "terms", "raised", "repeat", "tag"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def self_times(spans: Sequence[tuple]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(names: Sequence[str], spans: Sequence[tuple], passes: int) -> Dict[str, float]:
    """Per-function and per-layer metrics, each a per-pass figure.

    calls, self_ms, terms and raised are divided by the number of traced
    passes so runs of different lengths compare; repeat_ratio is the share
    of calls whose arguments repeat an earlier call in the same pass.
    """
    n = len(names)
    calls = [0] * n
    selfs = [0.0] * n
    terms = [0] * n
    raised = [0] * n
    repeats = [0] * n
    tagged = [0] * n
    for s, own in zip(spans, self_times(spans)):
        f = s[FN]
        calls[f] += 1
        selfs[f] += own
        terms[f] += s[TERMS]
        raised[f] += s[RAISED]
        repeats[f] += s[REPEAT]
        tagged[f] += s[TAG]
    p = max(passes, 1)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        lc, ls = 0, 0.0
        for f, name in enumerate(names):
            if name.startswith(layer + "."):
                lc += calls[f]
                ls += selfs[f]
        out[f"{layer}.calls"] = lc / p
        out[f"{layer}.self_ms"] = 1e3 * ls / p
    for f, name in enumerate(names):
        layer, fn = name.split(".")
        if fn not in TRACED.get(layer, ()):
            continue
        out[f"{name}.calls"] = calls[f] / p
        out[f"{name}.self_ms"] = 1e3 * selfs[f] / p
        out[f"{name}.terms"] = terms[f] / p
        out[f"{name}.raised"] = raised[f] / p
        out[f"{name}.repeat_ratio"] = repeats[f] / calls[f] if calls[f] else 0.0
    combo = names.index("qbessel.bessel_combination")
    out["qbessel.bessel_combination.int_calls"] = tagged[combo] / p
    cli_fns = {f for f, name in enumerate(names) if name.startswith("cli.")}
    numeric = {f for f, name in enumerate(names) if name.startswith(("qexp.", "qbessel."))}
    direct = sum(1 for s in spans if s[FN] in numeric and s[PARENT] >= 0 and spans[s[PARENT]][FN] in cli_fns)
    out["cli.direct_calls"] = direct / p
    return out


def metric_names() -> List[str]:
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_ms"]
        for fn in TRACED.get(layer, ()):
            names += [f"{layer}.{fn}.{stat}" for stat in STATS]
    names.append("qbessel.bessel_combination.int_calls")
    names.append("cli.direct_calls")
    names += [f"harness.check.{c}.ms" for c in CHECK_IDS]
    names.append("trace.overhead")
    return names


def metric_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"self_ms": "ms", "ms": "ms", "repeat_ratio": "ratio", "overhead": "ratio"}.get(stat, "count")
