"""Outside-in span tracing of monosync's public functions.

The benchmark never edits package code.  For a traced pass it replaces
each public function of the measured modules, at every place it is bound
(the defining module and every ``monosync`` module that imported it by
name, matched by function identity), with a wrapper that records a span:
hook, start, end, parent span and op id.  Spans stay in memory and are
written when the run ends.

Self time is a span's duration minus the time its child spans cover,
including the children's own bookkeeping, so tracer work never lands in a
layer's self time; it shows up in ``trace.uncovered_s`` instead.  Private
helpers (``_BlockTable``, ``_advance_particles``, ``_clamp_points``) are
not wrapped and count toward their nearest wrapped caller.

Hooks are looked up by public name.  A hook whose target is gone is listed
as missing and every metric that needs it is left out, so the same
benchmark runs on both sides of a refactor that renames or merges
functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "streams", "engine", "families", "transport", "clt", "splitting", "sync", "fitting")

# Called only from inside stream_generator/uniforms_at, about four times per
# generator; wrapping them would multiply the span count of the pullback
# workloads.  Their time is part of streams.self_s through their caller.
UNWRAPPED = {"monosync.streams.hash64", "monosync.streams.seed_sequence"}

# Public methods that carry layer work (hook name -> layer).
METHOD_HOOKS = {
    "monosync.families.MapFamily.raw_batch": "families",
    "monosync.families.MapFamily.apply_batch": "families",
}

# Artifact writers: every public class of a measured module with a
# ``write_csv`` method.  Their time is reported as cli.write_s.
WRITE_LAYER = "cli.write"

ENGINE = "monosync.engine."
FAM = "monosync.families."
TR = "monosync.transport."
CLT = "monosync.clt."
SPL = "monosync.splitting."
SYN = "monosync.sync."

IMAGE = ENGINE + "image_points_at_depths"
PULLBACK = ENGINE + "pullback_batch"
RAW_BATCH = FAM + "MapFamily.raw_batch"


def _resolve(qualname: str):
    """(owner, attribute, function) for a dotted public name, or None if gone."""
    parts = qualname.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        owner = obj
        for attr in parts[split:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        func = owner.__dict__.get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
        if not inspect.isfunction(func):
            return None
        return owner, parts[-1], func
    return None


def discover_hooks() -> dict[str, str]:
    """Every public function and listed method of the measured modules -> layer."""
    hooks: dict[str, str] = {}
    for layer in LAYERS:
        modname = f"monosync.{layer}"
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            continue
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if inspect.isfunction(obj):
                qual = f"{modname}.{name}"
                if qual not in UNWRAPPED:
                    hooks[qual] = layer
            elif inspect.isclass(obj) and inspect.isfunction(obj.__dict__.get("write_csv")):
                hooks[f"{modname}.{name}.write_csv"] = WRITE_LAYER
    hooks.update(METHOD_HOOKS)
    return hooks


def _arg_getter(func, name: str):
    """Fast accessor for one parameter of ``func`` from (args, kwargs), defaults applied."""
    params = list(inspect.signature(func).parameters.values())
    for pos, p in enumerate(params):
        if p.name == name:
            default = p.default

            def get(args, kwargs, pos=pos, name=name, default=default):
                if len(args) > pos:
                    return args[pos]
                return kwargs.get(name, default)

            return get
    raise KeyError(name)


def _rows(points) -> int:
    if type(points) is np.ndarray:
        return 1 if points.ndim < 2 else points.shape[0]
    shape = np.shape(points)
    return 1 if len(shape) < 2 else int(shape[0])


def _result_arrays(result):
    """Arrays a call returned: itself, tuple members, or dataclass fields (one level)."""
    if type(result) is tuple:
        return result
    if hasattr(type(result), "__dataclass_fields__"):
        return vars(result).values()
    return (result,)


# ---------------------------------------------------------------------------
# Work counters, read from call arguments and return values.  Each entry is
# (hook, parameter names, counter).  A counter whose parameters no longer
# exist is reported missing with its hook's metrics.


def _count_image(rec, a, result):
    fam, depths, base = a["fam"], np.asarray(a["depths"]), np.asarray(a["base_pts"])
    probe = base.shape[-2]
    evals = int(depths.sum()) * probe
    c = rec.counts
    c["engine.map_evals"] += evals
    c["engine.stages"] += int(depths.max(initial=0))
    c["engine.saturated_rows"] += int(np.count_nonzero(result[1]))
    c["engine.bytes_moved_computed"] += evals * fam.dim * 16
    if rec.active.get(PULLBACK):
        c["engine.pullback.image_calls"] += 1
        c["engine.pullback.map_evals"] += evals


def _count_pullback(rec, a, result):
    c = rec.counts
    probe = np.atleast_2d(np.asarray(a["probe_pts"])).shape[0]
    used = result.n_used[result.converged]
    c["engine.pullback.streams"] += len(a["stream_ids"])
    c["engine.pullback.unconverged"] += int(np.count_nonzero(~result.converged))
    c["engine.pullback.converged"] += int(used.size)
    c["engine.pullback.depth_sum"] += int(used.sum())
    c["engine.pullback.useful_evals"] += int(used.sum()) * probe
    if used.size:
        c["engine.pullback.depth_max"] = max(c["engine.pullback.depth_max"], int(used.max()))


def _count_raw_batch(rec, a, result):
    rec.counts["families.map_evals"] += _rows(a["points"])


def _count_w1(rec, a, result):
    c = rec.counts
    c["transport.w1.points"] += a["mu1"].n + a["mu2"].n
    key = {"sliced": "sliced", "sorted-1d": "sorted1d", "exact-matching": "matching"}.get(result.method)
    if key:
        c[f"transport.w1.{key}_calls"] += 1


def _count_push(rec, a, result):
    rec.counts["transport.push_forward.particle_steps"] += a["mu"].n * int(a["steps"])


def _count_pullback_sample(rec, a, result):
    rec.counts["transport.dropped_streams"] += int(result.meta.get("n_failed", 0))


def _count_chain(replicas_key, steps_key):
    def count(rec, a, result):
        steps = int(a[replicas_key]) * int(a[steps_key])
        rec.counts["clt.chain_steps"] += steps
        rec.counts["clt.noise_table_bytes"] = max(rec.counts["clt.noise_table_bytes"], steps * 8)

    return count


def _count_poisson(rec, a, result):
    rec.counts["clt.poisson.terms"] += int(result.truncation_j) + 1


def _count_exact_scan(rec, a, result):
    rec.counts["splitting.blocks_scanned"] += a["fam"].noise.q ** int(a["m"])


def _count_witness(rec, a, result):
    rec.counts["splitting.blocks_scanned"] += int(a["n_blocks"]) * int(result.m)


def _count_sigma(rec, a, result):
    depth_sum = int(a["m"]) * sum(range(1, len(result.j) + 1))
    rec.counts["splitting.sigma_decay.replica_depth"] += int(a["replicas"]) * depth_sum


def _count_diam(rec, a, result):
    n = int(a["n_max"])
    rec.counts["sync.diameter_series.replica_depth"] += int(a["replicas"]) * n * (n + 1) // 2


COUNTERS = {
    IMAGE: (("fam", "depths", "base_pts"), _count_image),
    PULLBACK: (("stream_ids", "probe_pts"), _count_pullback),
    RAW_BATCH: (("points",), _count_raw_batch),
    TR + "wasserstein1": (("mu1", "mu2"), _count_w1),
    TR + "push_forward": (("mu", "steps"), _count_push),
    TR + "pullback_sample": ((), _count_pullback_sample),
    CLT + "stationary_mean": (("replicas", "steps"), _count_chain("replicas", "steps")),
    CLT + "partial_sum_paths": (("replicas", "n"), _count_chain("replicas", "n")),
    CLT + "poisson_solve": ((), _count_poisson),
    SPL + "exact_splitting_scan": (("fam", "m"), _count_exact_scan),
    SPL + "find_splitting_witness": (("n_blocks",), _count_witness),
    SPL + "sigma_decay": (("m", "replicas"), _count_sigma),
    SYN + "diameter_series": (("n_max", "replicas"), _count_diam),
}


class Recorder:
    """Span store and counters for one traced pass."""

    def __init__(self, hook_names: list[str]):
        self.hook_names = hook_names
        self.spans: list = []          # (hook, t0, t1, parent, op, self_s)
        self.stack: list = []          # [span id, child time]
        self.active: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.largest_array = 0
        self.op = -1

    def summary(self) -> dict:
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        for hook, t0, t1, parent, _op, own in self.spans:
            name = self.hook_names[hook]
            calls[name] += 1
            self_s[name] += own
            incl_s[name] += t1 - t0
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "counts": dict(self.counts),
            "largest_array_bytes": self.largest_array,
            "n_spans": len(self.spans),
        }


class Tracer:
    """Installs and removes the wrappers; one Recorder per traced pass."""

    def __init__(self):
        self.hooks = discover_hooks()
        self.names = sorted(self.hooks)
        self.found: dict[str, tuple] = {}
        self.missing: list[str] = []
        for name in self.names:
            target = _resolve(name)
            if target is None:
                self.missing.append(name)
            else:
                self.found[name] = target
        self.counter_getters: dict[str, tuple] = {}
        self.counter_missing: list[str] = []
        for name, (params, fn) in COUNTERS.items():
            if name not in self.found:
                self.counter_missing.append(name)
                continue
            try:
                getters = tuple((p, _arg_getter(self.found[name][2], p)) for p in params)
            except KeyError:
                self.counter_missing.append(name)
                continue
            self.counter_getters[name] = (getters, fn)
        self.recorder: Recorder | None = None
        self._patches: list = []

    def _wrap(self, name: str, func):
        idx = self.names.index(name)
        counter = self.counter_getters.get(name)
        tracer = self
        perf = time.perf_counter
        ndarray = np.ndarray

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            t_enter = perf()
            rec = tracer.recorder
            spans, stack = rec.spans, rec.stack
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            rec.active[name] += 1
            ok = False
            t0 = perf()
            try:
                result = func(*args, **kwargs)
                ok = True
            finally:
                t1 = perf()
                stack.pop()
                rec.active[name] -= 1
                spans[sid] = (idx, t0, t1, parent, rec.op, t1 - t0 - frame[1])
                if ok:
                    for v in (*args, *kwargs.values(), *_result_arrays(result)):
                        if type(v) is ndarray and v.nbytes > rec.largest_array:
                            rec.largest_array = v.nbytes
                    if counter is not None:
                        getters, fn = counter
                        fn(rec, {p: g(args, kwargs) for p, g in getters}, result)
                if stack:
                    stack[-1][1] += perf() - t_enter
            return result

        return wrapper

    def install(self) -> Recorder:
        """Wrap every found hook at every binding; returns the fresh recorder."""
        self.recorder = Recorder(self.names)
        mods = [m for n, m in list(sys.modules.items()) if n == "monosync" or n.startswith("monosync.")]
        for name, (owner, attr, func) in self.found.items():
            wrapped = self._wrap(name, func)
            if isinstance(owner, type):
                self._patches.append((owner, attr, func))
                setattr(owner, attr, wrapped)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is func:
                        self._patches.append((mod, key, func))
                        setattr(mod, key, wrapped)
        return self.recorder

    def uninstall(self) -> None:
        for owner, attr, func in reversed(self._patches):
            setattr(owner, attr, func)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass.  Each metric names the hooks it
# needs; "all" needs every one, "any" sums over the ones still present.

MIB = float(1 << 20)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(s: dict, tracer: Tracer) -> dict:
    """{metric: (value, unit)} from one pass summary; metrics of missing hooks are left out."""
    calls, self_s, incl = s["calls"], s["self_s"], s["incl_s"]
    c = defaultdict(int, s["counts"])
    found = set(tracer.found)
    counted = tracer.counter_getters

    def layer_hooks(layer):
        return [n for n in tracer.found if tracer.hooks[n] == layer]

    def self_of(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def calls_of(*names):
        return sum(calls.get(n, 0) for n in names)

    SM, PS = CLT + "stationary_mean", CLT + "partial_sum_paths"
    W1, PF = TR + "wasserstein1", TR + "push_forward"
    # (name, unit, needs-all, needs-any, value, read from a work counter)
    table = [
        ("cli.self_s", "s", ["monosync.cli.main"], [], lambda: self_of("monosync.cli.main"), False),
        ("cli.write_s", "s", [], layer_hooks(WRITE_LAYER), lambda: self_of(*layer_hooks(WRITE_LAYER)), False),
        ("streams.generators", "count", [], [
            "monosync.streams.stream_generator", "monosync.streams.uniforms_at"],
         lambda: calls_of("monosync.streams.stream_generator", "monosync.streams.uniforms_at"), False),
        ("streams.self_s", "s", [], layer_hooks("streams"), lambda: self_of(*layer_hooks("streams")), False),
        ("engine.image.calls", "count", [IMAGE], [], lambda: calls_of(IMAGE), False),
        ("engine.image.self_s", "s", [IMAGE], [], lambda: self_of(IMAGE), False),
        ("engine.map_evals", "count", [IMAGE], [], lambda: c["engine.map_evals"], True),
        ("engine.map_evals_per_s", "1/s", [IMAGE], [],
         lambda: _ratio(c["engine.map_evals"], incl.get(IMAGE, 0.0)), True),
        ("engine.stages", "count", [IMAGE], [], lambda: c["engine.stages"], True),
        ("engine.saturated_rows", "count", [IMAGE], [], lambda: c["engine.saturated_rows"], True),
        ("engine.bytes_moved_computed", "B", [IMAGE], [], lambda: c["engine.bytes_moved_computed"], True),
        ("engine.pullback.self_s", "s", [PULLBACK], [], lambda: self_of(PULLBACK), False),
        ("engine.pullback.streams", "count", [PULLBACK], [], lambda: c["engine.pullback.streams"], True),
        ("engine.pullback.unconverged", "count", [PULLBACK], [],
         lambda: c["engine.pullback.unconverged"], True),
        ("engine.pullback.depth_mean", "steps", [PULLBACK], [],
         lambda: _ratio(c["engine.pullback.depth_sum"], c["engine.pullback.converged"]), True),
        ("engine.pullback.depth_max", "steps", [PULLBACK], [], lambda: c["engine.pullback.depth_max"], True),
        ("engine.pullback.image_calls", "count", [PULLBACK, IMAGE], [],
         lambda: c["engine.pullback.image_calls"], True),
        ("engine.pullback.useful_eval_ratio", "ratio", [PULLBACK, IMAGE], [],
         lambda: _ratio(c["engine.pullback.useful_evals"], c["engine.pullback.map_evals"]), True),
        ("families.raw_batch.calls", "count", [RAW_BATCH], [], lambda: calls_of(RAW_BATCH), False),
        ("families.map_evals", "count", [RAW_BATCH], [], lambda: c["families.map_evals"], True),
        ("families.points_per_call", "count", [RAW_BATCH], [],
         lambda: _ratio(c["families.map_evals"], calls_of(RAW_BATCH)), True),
        ("families.raw_batch.self_s", "s", [RAW_BATCH], [], lambda: self_of(RAW_BATCH), False),
        ("families.classify.self_s", "s", [FAM + "classify_monotonicity"], [],
         lambda: self_of(FAM + "classify_monotonicity"), False),
        ("transport.w1.calls", "count", [W1], [], lambda: calls_of(W1), False),
        ("transport.w1.self_s", "s", [W1], [], lambda: self_of(W1), False),
        ("transport.w1.points", "count", [W1], [], lambda: c["transport.w1.points"], True),
        ("transport.w1.sliced_calls", "count", [W1], [], lambda: c["transport.w1.sliced_calls"], True),
        ("transport.w1.sorted1d_calls", "count", [W1], [], lambda: c["transport.w1.sorted1d_calls"], True),
        ("transport.w1.matching_calls", "count", [W1], [], lambda: c["transport.w1.matching_calls"], True),
        ("transport.push_forward.self_s", "s", [PF], [], lambda: self_of(PF), False),
        ("transport.push_forward.particle_steps", "count", [PF], [],
         lambda: c["transport.push_forward.particle_steps"], True),
        ("transport.pullback_sample.self_s", "s", [TR + "pullback_sample"], [],
         lambda: self_of(TR + "pullback_sample"), False),
        ("transport.dropped_streams", "count", [TR + "pullback_sample"], [],
         lambda: c["transport.dropped_streams"], True),
        ("clt.stationary_mean.self_s", "s", [SM], [], lambda: self_of(SM), False),
        ("clt.partial_sum_paths.self_s", "s", [PS], [], lambda: self_of(PS), False),
        ("clt.chain_steps", "count", [], [SM, PS], lambda: c["clt.chain_steps"], True),
        ("clt.chain_steps_per_s", "1/s", [], [SM, PS],
         lambda: _ratio(c["clt.chain_steps"], incl.get(SM, 0.0) + incl.get(PS, 0.0)), True),
        ("clt.noise_table_mb", "MiB", [], [SM, PS], lambda: c["clt.noise_table_bytes"] / MIB, True),
        ("clt.poisson_solve.self_s", "s", [CLT + "poisson_solve"], [],
         lambda: self_of(CLT + "poisson_solve"), False),
        ("clt.poisson.terms", "count", [CLT + "poisson_solve"], [], lambda: c["clt.poisson.terms"], True),
        ("clt.transfer_apply.self_s", "s", [CLT + "transfer_apply"], [],
         lambda: self_of(CLT + "transfer_apply"), False),
        ("clt.fclt_tests.self_s", "s", [CLT + "fclt_tests"], [], lambda: self_of(CLT + "fclt_tests"), False),
        ("splitting.exact_scan.self_s", "s", [SPL + "exact_splitting_scan"], [],
         lambda: self_of(SPL + "exact_splitting_scan"), False),
        ("splitting.blocks_scanned", "count", [], [SPL + "exact_splitting_scan", SPL + "find_splitting_witness"],
         lambda: c["splitting.blocks_scanned"], True),
        ("splitting.witness.self_s", "s", [SPL + "find_splitting_witness"], [],
         lambda: self_of(SPL + "find_splitting_witness"), False),
        ("splitting.sigma_decay.self_s", "s", [SPL + "sigma_decay"], [],
         lambda: self_of(SPL + "sigma_decay"), False),
        ("splitting.sigma_decay.replica_depth", "count", [SPL + "sigma_decay"], [],
         lambda: c["splitting.sigma_decay.replica_depth"], True),
        ("sync.diameter_series.self_s", "s", [SYN + "diameter_series"], [],
         lambda: self_of(SYN + "diameter_series"), False),
        ("sync.diameter_series.replica_depth", "count", [SYN + "diameter_series"], [],
         lambda: c["sync.diameter_series.replica_depth"], True),
        ("sync.fit_rate.self_s", "s", [SYN + "fit_rate"], [], lambda: self_of(SYN + "fit_rate"), False),
        ("sync.assumption2.self_s", "s", [SYN + "assumption2_check"], [],
         lambda: self_of(SYN + "assumption2_check"), False),
        ("sync.forward_gap.self_s", "s", [SYN + "forward_attractor_gap"], [],
         lambda: self_of(SYN + "forward_attractor_gap"), False),
        ("fitting.loglinear_fit.calls", "count", ["monosync.fitting.loglinear_fit"], [],
         lambda: calls_of("monosync.fitting.loglinear_fit"), False),
        ("fitting.self_s", "s", [], layer_hooks("fitting"), lambda: self_of(*layer_hooks("fitting")), False),
    ]
    out = {}
    for name, unit, needs_all, needs_any, value, uses_counts in table:
        if not all(n in found for n in needs_all):
            continue
        if needs_any and not any(n in found for n in needs_any):
            continue
        if uses_counts and any(n in found and n not in counted for n in needs_all + needs_any):
            continue
        out[name] = (float(value()), unit)
    return out
