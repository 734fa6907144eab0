"""Spans around calls into sudlerlab's public functions, installed from outside.

The program has no spans of its own, so the benchmark wraps the public
functions of `cfrac`, `trig`, `jones`, `dist`, `verify` and `cli` (plus the
cached `jones._logJ_mag` kernel and the `StableLaw` methods) and rebinds every
module-level name that refers to them.  A span records its name, start, end,
parent span and, for some layers, a work count.  Self time is a span's
duration minus the part covered by its children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc

from workloads import SUITES

LAYERS = ("cfrac", "trig", "jones", "dist", "verify", "cli")
STABLE_LAW_METHODS = ("cdf", "cdf_exact", "quantile", "density", "sample")

_clock = time.perf_counter


def _rebind(original, replacement) -> None:
    """Point every sudlerlab module-level name bound to `original` at `replacement`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "sudlerlab" or name.startswith("sudlerlab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _public_functions(mod):
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name, None)
        if inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        yield name, obj


class Tracer:
    """In-memory span recorder; spans are (id, parent, name, start, end, work)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.stable_law_peak_bytes = 0
        self.logJ_cache = None

    # -- recording --------------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, work=None) -> None:
        t1 = _clock()
        self._stack.pop()
        self.spans.append((sid, parent, name, t0, t1, work))

    def wrap(self, fn, name, work=None):
        """Span-recording wrapper.

        `name` may be a function of the call's arguments.  `work`, if given, is
        called with the arguments before the call and returns a function that
        gives the span's work count after it.
        """
        tracer = self
        naming = name if callable(name) else (lambda *a, **k: name)

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so consumer time between items is not charged
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                label = naming(*args, **kwargs)
                it = fn(*args, **kwargs)
                while True:
                    sid, parent = tracer._open()
                    t0 = _clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid, parent, label, t0)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = naming(*args, **kwargs)
            sid, parent = tracer._open()
            count = work(*args, **kwargs) if work else None
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, label, t0, count() if count else None)

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        import importlib

        from sudlerlab import dist, jones

        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sudlerlab.{layer}")
            for fname, fn in _public_functions(mod):
                if fn in wrapped:
                    continue
                name = f"{layer}.{fname}"
                if name == "verify.run_suite":
                    name = lambda suite, **kw: f"verify.{suite}"  # noqa: E731
                wrapped[fn] = self.wrap(fn, name, _WORK.get(f"{layer}.{fname}"))
        logJ = getattr(jones, "_logJ_mag", None)
        if logJ is not None:
            self.logJ_cache = logJ if hasattr(logJ, "cache_info") else None
            wrapped[logJ] = self.wrap(logJ, "jones.logJ", _logJ_work(self.logJ_cache))
        for original, replacement in wrapped.items():
            _rebind(original, replacement)
        for meth in STABLE_LAW_METHODS:
            fn = getattr(dist.StableLaw, meth, None)
            if fn is not None:
                setattr(dist.StableLaw, meth, self._stable_law_wrap(fn, meth))

    def _stable_law_wrap(self, fn, meth):
        """StableLaw spans; the outermost one also records the allocation peak."""
        inner = self.wrap(fn, f"dist.StableLaw.{meth}")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return inner(*args, **kwargs)
            tracemalloc.start()
            try:
                return inner(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.stable_law_peak_bytes = max(tracer.stable_law_peak_bytes, peak)

        return wrapper

    # -- output -----------------------------------------------------------------

    def write_jsonl(self, fh, op_id: int, origin: float) -> None:
        for sid, parent, name, t0, t1, work in self.spans:
            rec = {"op": op_id, "id": sid, "parent": parent, "name": name,
                   "start": round(t0 - origin, 9), "end": round(t1 - origin, 9)}
            if work is not None:
                rec["work"] = work
            fh.write(json.dumps(rec) + "\n")


def _sudler_work(r, N_max):
    """sudler_prefix_logmags evaluates N_max sines."""
    return lambda: int(N_max)


def _logJ_work(cached):
    """Terms of the J sum actually computed: q - 1 on a cache miss, 0 on a hit."""

    def work(p, q):
        if cached is None:
            return lambda: max(int(q) - 1, 0)
        misses = cached.cache_info().misses
        return lambda: max(int(q) - 1, 0) if cached.cache_info().misses > misses else 0

    return work


_WORK = {"trig.sudler_prefix_logmags": _sudler_work}


# -- aggregation ------------------------------------------------------------------


def self_times(spans) -> dict[str, dict]:
    """Per-name calls, inclusive and self seconds, and summed work."""
    child_time: dict[int, float] = {}
    for sid, parent, name, t0, t1, work in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out: dict[str, dict] = {}
    for sid, parent, name, t0, t1, work in spans:
        agg = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0})
        agg["calls"] += 1
        agg["incl_s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
        agg["work"] += work or 0
    return out


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """The per-layer metrics of one traced operation (zero where a layer is idle)."""
    agg = self_times(tracer.spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    m["cfrac.cf_expand.calls"] = get("cfrac.cf_expand", "calls")
    m["cfrac.cf_expand.self_s"] = get("cfrac.cf_expand", "self_s")
    m["cfrac.rationals_in_interval.self_s"] = get("cfrac.rationals_in_interval", "self_s")
    m["cfrac.convergents.self_s"] = get("cfrac.convergents", "self_s")

    sines = get("trig.sudler_prefix_logmags", "work")
    m["trig.sudler_prefix_logmags.calls"] = get("trig.sudler_prefix_logmags", "calls")
    m["trig.sudler_prefix_logmags.self_s"] = get("trig.sudler_prefix_logmags", "self_s")
    m["trig.sines"] = sines
    m["trig.ns_per_sine"] = 1e9 * m["trig.sudler_prefix_logmags.self_s"] / sines if sines else 0.0
    pf_calls = get("trig.product_form_logs", "calls")
    m["trig.product_form_logs.self_s"] = get("trig.product_form_logs", "self_s")
    m["trig.product_form_logs.ms_per_fraction"] = (
        1e3 * m["trig.product_form_logs.self_s"] / pf_calls if pf_calls else 0.0
    )
    m["trig.shifted_sudler.self_s"] = get("trig.shifted_sudler", "self_s")

    terms = get("jones.logJ", "work")
    m["jones.logJ.calls"] = get("jones.logJ", "calls")
    m["jones.logJ.self_s"] = get("jones.logJ", "self_s")
    m["jones.logJ.us_per_term"] = 1e6 * m["jones.logJ.self_s"] / terms if terms else 0.0
    m["jones.h_eval.self_s"] = get("jones.h_eval", "self_s")
    info = tracer.logJ_cache.cache_info() if tracer.logJ_cache is not None else None
    lookups = (info.hits + info.misses) if info else 0
    m["jones.logJ_cache.hit_ratio"] = info.hits / lookups if lookups else 0.0

    # stable-law time: the outermost StableLaw spans, whose bulk is the CDF grid
    law_ids = {s[0] for s in tracer.spans if s[2].startswith("dist.StableLaw.")}
    m["dist.stable_law.grid_s"] = sum(
        s[4] - s[3] for s in tracer.spans if s[0] in law_ids and s[1] not in law_ids
    )
    m["dist.stable_law.peak_alloc_mb"] = tracer.stable_law_peak_bytes / 2**20
    for fn in ("sweep", "estimate_D", "ks_compare"):
        m[f"dist.{fn}.self_s"] = get(f"dist.{fn}", "self_s")

    for suite in SUITES:
        m[f"verify.{suite}.self_s"] = get(f"verify.{suite}", "self_s")
        m[f"verify.{suite}.cases"] = extra.get("suite_cases", {}).get(suite, 0)

    m["cli.import_s"] = extra["import_s"]
    m["cli.self_s"] = sum(a["self_s"] for n, a in agg.items() if n.startswith("cli."))
    m["cli.csv_bytes"] = extra.get("csv_bytes", 0)
    return m
