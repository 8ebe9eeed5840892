"""Spans recorded from outside the program, around calls into its modules.

``Tracer.install`` replaces the public functions of each ``remest`` module
(and every other module-level name bound to the same function object) with
wrappers that record a span: name, layer, start, end, parent span and
request id.  A few class methods, ``scipy.linalg.lu_factor``/``lu_solve``
and ``numpy.random.default_rng`` are wrapped as well; the last three are
attributed to the layer of the innermost open span, so a factorization
called from ``solver_b`` counts as ``solver_b`` work.  Nothing inside the
program changes, and ``uninstall`` restores every original.

Spans stay in memory; ``layer_metrics`` derives the per-layer figures and
``dump`` writes the raw spans once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

LAYERS = ("cli", "validation", "solver_a", "solver_b", "simulate", "dp", "model")

# (module, class, attribute, span name); attributed to the module's layer
_METHODS = (
    ("solver_b", "QuadratureGrid", "gauss_legendre", "solver_b.gauss_legendre"),
    ("model", "SmoothPdf", "density", "model.density"),
    ("model", "SmoothPdf", "sampler", "model.sampler"),
    ("cli", "OutputRecord", "render", "cli.render"),
)

# (module, attribute, span suffix); attributed to the calling layer
_FOREIGN = (
    ("scipy.linalg", "lu_factor", "lu_factor"),
    ("scipy.linalg", "lu_solve", "lu_solve"),
    ("numpy.random", "default_rng", "default_rng"),
)


class Tracer:
    """In-memory span recorder.  Each span is a list
    ``[name, layer, start, end, parent_index, request_id, info]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request_id = None
        self.missing: list[str] = []  # expected entry points this program lacks
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str | None, info_fn=None):
        """``fn`` recording a span.  With ``layer`` None the span takes the
        layer of the innermost open span, and calls made outside any span
        (by the benchmark itself) are not recorded."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if layer is None and not stack:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            own = layer if layer is not None else spans[parent][1]
            span = [name if layer is not None else f"{own}.{name}", own, clock(), 0.0,
                    parent, self.request_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if info_fn is not None:
                span[6] = info_fn(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"remest.{name}") for name in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{obj.__name__}"
                    wrapped[id(obj)] = self._wrap(obj, name, layer, _INFO.get(name))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        for mod_name, cls_name, attr, name in _METHODS:
            cls = getattr(modules[mod_name], cls_name, None)
            if cls is None or attr not in cls.__dict__:
                self.missing.append(name)
                continue
            raw = cls.__dict__[attr]
            layer = name.split(".")[0]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, layer, _INFO.get(name)))
            else:
                new = self._wrap(raw, name, layer, _INFO.get(name))
            self._set(cls, attr, new)
        named = {f"{layer}.{name}" for layer, mod in modules.items() for name in vars(mod)}
        self.missing += [name for name in _EXPECTED if name not in named]
        for mod_name, attr, suffix in _FOREIGN:
            mod = importlib.import_module(mod_name)
            self._set(mod, attr, self._wrap(getattr(mod, attr), suffix, None,
                                            _INFO.get(suffix)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                out[s[4]] -= s[3] - s[2]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent",
                                  "request", "info"],
                       "spans": self.spans}, fh)


# Entry points the per-layer metrics are read from.
_EXPECTED = (
    "cli.main", "validation.run_suite", "solver_a.build_silent_system", "solver_a.solve_lm",
    "solver_a.corner_lambdas", "solver_a.performance", "solver_b.fredholm_solve",
    "solver_b.performance_b", "solver_b.lambda_of_k", "solver_b.algorithm1_costly",
    "solver_b.algorithm2_constrained", "simulate.simulate", "dp.value_iterate",
    "dp.policy_evaluate_fixed_point",
)


# -- per-call details kept on the span (sizes, orders, counts) --------------------


def _size(x) -> int:
    try:
        return int(getattr(x, "size", 1))
    except (TypeError, ValueError):
        return 1


_INFO = {
    "solver_b.fredholm_solve": lambda a, kw, r: {"order": int(r.grid.order)},
    "solver_a.build_silent_system": lambda a, kw, r: {"dim": int(len(r.states))},
    "model.density": lambda a, kw, r: {"points": _size(r)},
    "model.sampler": lambda a, kw, r: {"draws": _size(r)},
    "dp.value_iterate": lambda a, kw, r: {"iterations": int(r.iterations)},
    "validation.run_suite": lambda a, kw, r: {"checks": len(r)},
    "simulate.simulate": lambda a, kw, r: {
        "rep_steps": int(r.replications_used) * int(r.steps_per_replication),
        "model": "A" if type(a[0]).__name__ == "ModelSpecA" else "B",
        "kind": a[1].kind,
    },
    "lu_factor": lambda a, kw, r: {"n": int(a[0].shape[0])},
}


# -- metrics ---------------------------------------------------------------------

POLICY_KINDS = ("threshold", "randomized_threshold", "periodic", "iid_random",
                "steering", "time_sharing")

# Every metric ``layer_metrics`` derives; each reads 0 when its layer is idle.
METRICS = (
    "solver_b.fredholm_calls", "solver_b.fredholm_s", "solver_b.fredholm_self_s",
    "solver_b.performance_calls", "solver_b.price_map_evals", "solver_b.algorithm_calls",
    "solver_b.grid_calls", "solver_b.grid_s", "solver_b.order_sum", "solver_b.order_max",
    "solver_b.lu_factor_calls", "solver_b.lu_factor_s", "solver_b.lu_solve_s",
    "solver_b.lu_flops", "model.density_calls", "model.density_points", "model.density_s",
    "solver_a.build_calls", "solver_a.build_s", "solver_a.silent_states",
    "solver_a.solve_lm_calls", "solver_a.solve_lm_s", "solver_a.lu_factor_calls",
    "solver_a.lu_factor_s", "solver_a.lu_solve_s", "solver_a.lu_flops",
    "solver_a.corner_calls", "solver_a.performance_calls",
    "dp.value_iterate_calls", "dp.value_iterate_s", "dp.vi_iterations", "dp.fixed_point_s",
    "simulate.calls", "simulate.s", "simulate.rep_steps", "simulate.ns_per_rep_step",
    "simulate.model_a.ns_per_rep_step", "simulate.model_b.ns_per_rep_step",
    *(f"simulate.{kind}.ns_per_rep_step" for kind in POLICY_KINDS),
    "simulate.rng_streams", "simulate.rng_setup_s", "model.sampler_draws", "model.sampler_s",
    "cli.requests", "cli.render_s", "validation.suite_s", "validation.checks",
    *(f"{layer}.self_s" for layer in LAYERS),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and busy times from the recorded spans."""
    spans = tracer.spans
    selfs = tracer.self_times()
    m: dict[str, float] = dict.fromkeys(METRICS, 0)

    def add(key, value):
        m[key] = m.get(key, 0) + value

    sim_by: dict[str, list[float]] = {}
    for s, self_t in zip(spans, selfs):
        name, layer, t0, t1, _, _, info = s
        dur = t1 - t0
        add(f"{layer}.self_s", self_t)
        if name == "solver_b.fredholm_solve":
            add("solver_b.fredholm_calls", 1)
            add("solver_b.fredholm_s", dur)
            add("solver_b.fredholm_self_s", self_t)
            add("solver_b.order_sum", info["order"])
            m["solver_b.order_max"] = max(m.get("solver_b.order_max", 0), info["order"])
        elif name == "solver_b.performance_b":
            add("solver_b.performance_calls", 1)
        elif name == "solver_b.lambda_of_k":
            add("solver_b.price_map_evals", 1)
        elif name in ("solver_b.algorithm1_costly", "solver_b.algorithm2_constrained"):
            add("solver_b.algorithm_calls", 1)
        elif name == "solver_b.gauss_legendre":
            add("solver_b.grid_calls", 1)
            add("solver_b.grid_s", dur)
        elif name.endswith(".lu_factor"):
            add(f"{layer}.lu_factor_calls", 1)
            add(f"{layer}.lu_factor_s", dur)
            add(f"{layer}.lu_flops", 2.0 * info["n"] ** 3 / 3.0)
        elif name.endswith(".lu_solve"):
            add(f"{layer}.lu_solve_s", dur)
        elif name.endswith(".default_rng"):
            add(f"{layer}.rng_streams", 1)
            add(f"{layer}.rng_setup_s", dur)
        elif name == "model.density":
            add("model.density_calls", 1)
            add("model.density_points", info["points"])
            add("model.density_s", dur)
        elif name == "model.sampler":
            add("model.sampler_draws", info["draws"])
            add("model.sampler_s", dur)
        elif name == "solver_a.build_silent_system":
            add("solver_a.build_calls", 1)
            add("solver_a.build_s", dur)
            add("solver_a.silent_states", info["dim"])
        elif name == "solver_a.solve_lm":
            add("solver_a.solve_lm_calls", 1)
            add("solver_a.solve_lm_s", dur)
        elif name == "solver_a.corner_lambdas":
            add("solver_a.corner_calls", 1)
        elif name == "solver_a.performance":
            add("solver_a.performance_calls", 1)
        elif name == "dp.value_iterate":
            add("dp.value_iterate_calls", 1)
            add("dp.value_iterate_s", dur)
            add("dp.vi_iterations", info["iterations"])
        elif name == "dp.policy_evaluate_fixed_point":
            add("dp.fixed_point_s", dur)
        elif name == "simulate.simulate":
            add("simulate.calls", 1)
            add("simulate.s", dur)
            add("simulate.rep_steps", info["rep_steps"])
            for key in ("all", f"model_{info['model'].lower()}", info["kind"]):
                acc = sim_by.setdefault(key, [0.0, 0])
                acc[0] += dur
                acc[1] += info["rep_steps"]
        elif name == "cli.main":
            add("cli.requests", 1)
        elif name == "cli.render":
            add("cli.render_s", dur)
        elif name == "validation.run_suite":
            add("validation.suite_s", dur)
            add("validation.checks", info["checks"])

    def per_step(key):
        t, n = sim_by.get(key, (0.0, 0))
        return 1e9 * t / n if n else 0.0

    m["simulate.ns_per_rep_step"] = per_step("all")
    m["simulate.model_a.ns_per_rep_step"] = per_step("model_a")
    m["simulate.model_b.ns_per_rep_step"] = per_step("model_b")
    for kind in POLICY_KINDS:
        m[f"simulate.{kind}.ns_per_rep_step"] = per_step(kind)
    return m
