"""Per-layer tracing of the axkatz package, done entirely from outside it.

Every public module-level function of a layer module is replaced, wherever
any axkatz module binds its name, by a wrapper that records a span around
the call.  Spans are folded into per-layer aggregates as they close: a
layer's self time is each span's duration minus the time covered by its
child spans, so nested calls are never counted twice.  Counters of work done
are taken at the same boundaries from the call's arguments and result.

The wrappers only record while ``Tracer.recording`` is set, which the runner
turns on around timed operations; correctness checks run unrecorded.
"""

from __future__ import annotations

import functools
import sys
import time

# One layer per source module; the calculus module is split three ways so
# that the degree search, the series box and zero counting show separately.
MODULE_LAYERS = {
    "axkatz.intmath": "intmath",
    "axkatz.partitions": "partitions",
    "axkatz.groups": "groups",
    "axkatz.bounds": "bounds",
    "axkatz.oracle": "oracle",
    "axkatz.cli": "cli",
}
CALCULUS_LAYERS = {
    "functional_degree": "calculus.fdeg",
    "primary_split": "calculus.fdeg",
    "primary_assemble": "calculus.fdeg",
    "difference": "calculus.fdeg",
    "iterated_difference": "calculus.fdeg",
    "zero_count": "calculus.zero_count",
}
CALCULUS_DEFAULT = "calculus.series"
LAYERS = (
    "intmath",
    "partitions",
    "groups",
    "bounds",
    "calculus.fdeg",
    "calculus.series",
    "calculus.zero_count",
    "oracle",
    "cli",
)
COUNTERS = (
    "partitions.dots",
    "bounds.rows",
    "groups.elements",
    "calculus.fdeg.cells",
    "calculus.series.box_cells",
    "calculus.series.domain_cells",
    "oracle.tables",
    "oracle.qualifying",
    "oracle.systems",
    "oracle.samples_accepted",
    "oracle.sample_fdeg_calls",
)


def layer_of(module_name: str, func_name: str) -> str | None:
    if module_name == "axkatz.calculus":
        return CALCULUS_LAYERS.get(func_name, CALCULUS_DEFAULT)
    return MODULE_LAYERS.get(module_name)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _prime_exponent(m: int) -> tuple[int, int]:
    """(p, e) with m = p^e, for m a prime power >= 2."""
    p = 2
    while m % p:
        p += 1
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError("not a prime power")
    return p, e


def series_box_cells(domain_factors, codomain_factors) -> int:
    """Cells of the (cap + 1)^N cube that series_coefficients differences.

    cap is the largest finite functional degree of the domain/codomain pair,
    sum_i (p^a_i - 1) + (beta - 1)(p - 1) p^(a_max - 1).
    """
    pairs = [_prime_exponent(m) for m in domain_factors]
    p = pairs[0][0]
    beta = max(_prime_exponent(m)[1] for m in codomain_factors)
    a_max = max(a for _, a in pairs)
    cap = sum(p**a - 1 for _, a in pairs) + (beta - 1) * (p - 1) * p ** (a_max - 1)
    return (cap + 1) ** len(pairs)


def _hook_weight_sequence(tracer, args, kwargs, result):
    tracer.counters["partitions.dots"] += _arg(args, kwargs, 0, "partition").size


def _hook_rows_first(tracer, args, kwargs, result):
    tracer.counters["bounds.rows"] += len(_arg(args, kwargs, 0, "alpha"))


def _hook_rows_second(tracer, args, kwargs, result):
    tracer.counters["bounds.rows"] += len(_arg(args, kwargs, 1, "alpha"))


def _hook_enumerate(tracer, args, kwargs, result):
    tracer.counters["groups.elements"] += len(result)


def _hook_fdeg(tracer, args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    tracer.counters["calculus.fdeg.cells"] += f.domain.order * len(f.codomain.factors)
    if any(frame[0] == "sample_bounded_map" for frame in tracer.stack):
        tracer.counters["oracle.sample_fdeg_calls"] += 1


def _hook_series(tracer, args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    tracer.counters["calculus.series.box_cells"] += series_box_cells(
        f.domain.factors, f.codomain.factors
    )
    tracer.counters["calculus.series.domain_cells"] += f.domain.order


def _hook_functions_by_degree(tracer, args, kwargs, result):
    domain = _arg(args, kwargs, 0, "domain")
    codomain = _arg(args, kwargs, 1, "codomain")
    tracer.counters["oracle.tables"] += codomain.order**domain.order
    tracer.buckets.append({deg: len(maps) for deg, maps in result.items()})


def _hook_verify(tracer, args, kwargs, result):
    shaped = _arg(args, kwargs, 2, "shaped")
    tracer.counters["oracle.systems"] += result.systems_tested
    if result.mode == "exhaustive":
        # functions_by_degree ran once per target, in target order.
        for (_, cap), buckets in zip(shaped, tracer.buckets[-len(shaped):]):
            tracer.counters["oracle.qualifying"] += sum(
                n for deg, n in buckets.items() if deg.is_finite and 1 <= deg.value <= cap
            )
    tracer.buckets.clear()


def _hook_sample(tracer, args, kwargs, result):
    tracer.counters["oracle.samples_accepted"] += 1


HOOKS = {
    "weight_sequence": _hook_weight_sequence,
    "zero_count_bound": _hook_rows_first,
    "min_valuation": _hook_rows_second,
    "vp_value": _hook_rows_second,
    "enumerate_elements": _hook_enumerate,
    "functional_degree": _hook_fdeg,
    "series_coefficients": _hook_series,
    "functions_by_degree": _hook_functions_by_degree,
    "verify_bound": _hook_verify,
    "sample_bounded_map": _hook_sample,
}


class Tracer:
    """Span aggregation and work counters for the wrapped package."""

    def __init__(self):
        self.recording = False
        self.stack: list[list] = []  # open spans: [function name, child seconds]
        self.buckets: list[dict] = []
        self._saved: list[tuple] = []
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans = 0

    def _wrap(self, fn, layer: str, name: str):
        perf = time.perf_counter
        hook = HOOKS.get(name)
        stack = self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                tracer.calls[layer] += 1
                tracer.self_s[layer] += elapsed - frame[1]
                tracer.spans += 1
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public layer function at every binding in axkatz.*."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "axkatz" or name.startswith("axkatz."))
        }
        wrappers = {}
        for mod_name, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod_name:
                    continue
                layer = layer_of(mod_name, name)
                if layer is not None:
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, entry[1])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "spans": self.spans,
        }

    def merge(self, snap: dict) -> None:
        """Add a snapshot taken in another process (a traced CLI child)."""
        for layer, n in snap["calls"].items():
            self.calls[layer] += n
        for layer, s in snap["self_s"].items():
            self.self_s[layer] += s
        for key, n in snap["counters"].items():
            self.counters[key] += n
        self.spans += snap["spans"]


def layer_metrics(snap: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metric values, by name, from a tracer snapshot."""
    calls, self_s, c = snap["calls"], snap["self_s"], snap["counters"]

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    out["partitions.dots"] = (c["partitions.dots"], "count")
    out["bounds.rows"] = (c["bounds.rows"], "count")
    out["groups.elements"] = (c["groups.elements"], "count")
    out["calculus.fdeg.cells"] = (c["calculus.fdeg.cells"], "count")
    out["calculus.series.box_cells"] = (c["calculus.series.box_cells"], "count")
    out["calculus.series.box_ratio"] = (
        ratio(c["calculus.series.box_cells"], c["calculus.series.domain_cells"]),
        "ratio",
    )
    out["oracle.tables"] = (c["oracle.tables"], "count")
    out["oracle.qualifying"] = (c["oracle.qualifying"], "count")
    out["oracle.qualifying_ratio"] = (
        ratio(c["oracle.qualifying"], c["oracle.tables"]),
        "ratio",
    )
    out["oracle.systems"] = (c["oracle.systems"], "count")
    out["oracle.sample_accept_ratio"] = (
        ratio(c["oracle.samples_accepted"], c["oracle.sample_fdeg_calls"]),
        "ratio",
    )
    return out
