"""Layer spans recorded from outside the package.

Wrappers replace the public functions as ``sphereopt.cli`` and
``sphereopt.definetti`` import them, so every call the CLI makes into a
layer opens a span: name, start, end, parent span and instance id.  Spans
stay in memory until the run ends.  A wrap target that a later version
renames or drops is reported as an absent layer instead of failing.
"""

import importlib
import pkgutil
import statistics
import time


def _solve_attrs(result):
    problem = getattr(result, "problem", None)
    return {"iterations": getattr(result, "iterations", None),
            "status": getattr(result, "status", None),
            "p": getattr(problem, "p", None),
            "q": getattr(problem, "q", None)}


def _certificate_attrs(result):
    return {"squares": len(result) if result is not None else 0}


# (module, attribute, span name, attributes read from the return value)
TARGETS = (
    ("sphereopt.cli", "canonicalize", "reduction.canonicalize", None),
    ("sphereopt.cli", "choose_level", "cli.choose_level", None),
    ("sphereopt.cli", "build_relaxation", "sdp.build_relaxation", None),
    ("sphereopt.cli", "sphere_maximize", "oracle.sphere_maximize", None),
    ("sphereopt.cli", "solve_and_report", "definetti.solve_and_report", None),
    ("sphereopt.cli", "pullback_bounds", "reduction.pullback_bounds", None),
    ("sphereopt.cli", "extract_sos_certificate",
     "sdp.extract_sos_certificate", _certificate_attrs),
    ("sphereopt.cli", "measure_density", "definetti.measure_density", None),
    ("sphereopt.definetti", "build_relaxation", "sdp.build_relaxation", None),
    ("sphereopt.definetti", "solve_sdp", "sdp.solve_sdp", _solve_attrs),
    ("sphereopt.definetti", "lower_bound", "definetti.lower_bound", None),
)
ROOT = "cli.main"

# Per-layer time metrics: (metric, span name, use self time).
TIME_METRICS = (
    ("cli.self_s", ROOT, True),
    ("cli.choose_level_s", "cli.choose_level", False),
    ("reduction.canonicalize_s", "reduction.canonicalize", False),
    ("reduction.pullback_bounds_s", "reduction.pullback_bounds", False),
    ("oracle.sphere_maximize_s", "oracle.sphere_maximize", False),
    ("sdp.build_relaxation_s", "sdp.build_relaxation", False),
    ("sdp.solve_sdp_s", "sdp.solve_sdp", False),
    ("sdp.extract_sos_certificate_s", "sdp.extract_sos_certificate", False),
    ("definetti.solve_and_report_self_s", "definetti.solve_and_report", True),
    ("definetti.lower_bound_s", "definetti.lower_bound", False),
    ("definetti.measure_density_s", "definetti.measure_density", False),
)
STATUSES = ("optimal", "max_iterations", "numerical_failure")


class Tracer:
    """In-memory span recorder; spans are [id, parent, instance, name, t0,
    t1, attrs]."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self.instance = None
        self._stack = []

    def call(self, name, fn, *args, attrs=None, **kwargs):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                self.instance, name, time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span[6] = attrs(result)
        return result

    def install(self):
        """Wrap every target that exists; record the others as absent."""
        for modname, attr, name, attrs in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{modname}.{attr}")
                continue

            def wrapper(*args, _fn=fn, _name=name, _attrs=attrs, **kwargs):
                return self.call(_name, _fn, *args, attrs=_attrs, **kwargs)

            setattr(module, attr, wrapper)


def package_caches():
    """Every functools cache defined in the package, by module.function."""
    import sphereopt
    out = {}
    for info in pkgutil.iter_modules(sphereopt.__path__):
        module = importlib.import_module(f"sphereopt.{info.name}")
        for attr, obj in sorted(vars(module).items()):
            if (hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", None) == module.__name__):
                out[f"{info.name}.{attr}"] = obj
    return out


def cache_counts(caches):
    return {key: [fn.cache_info().hits, fn.cache_info().misses]
            for key, fn in caches.items()}


def tree_by_instance(spans):
    """Per instance: {name: [total duration, total self time, count]}.

    Checks the nesting on the way: every child lies inside its parent and
    siblings do not overlap, so children plus self time equal the parent.
    """
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    out = {}
    for s in spans:
        kids = sorted(children.get(s[0], []), key=lambda k: k[4])
        covered = 0.0
        last_end = s[4]
        for k in kids:
            if k[4] < last_end or k[5] > s[5]:
                raise RuntimeError(f"span {k[3]} escapes its parent {s[3]}")
            covered += k[5] - k[4]
            last_end = k[5]
        row = out.setdefault(s[2], {}).setdefault(s[3], [0.0, 0.0, 0])
        row[0] += s[5] - s[4]
        row[1] += (s[5] - s[4]) - covered
        row[2] += 1
    return out


def layer_metrics(spans, cache_delta, instances, cache_names):
    """Per-layer metrics over the timed instances.

    Times are medians over instances of the per-instance total; counts of
    cache hits and misses are means per instance.
    """
    trees = tree_by_instance(spans)
    per = [trees.get(i, {}) for i in instances]
    metrics = {}
    for metric, name, use_self in TIME_METRICS:
        col = 1 if use_self else 0
        metrics[metric] = (statistics.median(t.get(name, [0.0, 0.0, 0])[col]
                                             for t in per), "s")
    metrics["oracle.calls"] = (
        statistics.mean(t.get("oracle.sphere_maximize", [0, 0, 0])[2]
                        for t in per), "count")

    wanted = set(instances)

    def calls(name):
        return [s for s in spans if s[3] == name and s[2] in wanted]

    def per_instance(name, attr):
        out = dict.fromkeys(instances, 0)
        for s in calls(name):
            out[s[2]] += (s[6] or {}).get(attr) or 0
        return out

    solves = [s[6] or {} for s in calls("sdp.solve_sdp")]
    iters = per_instance("sdp.solve_sdp", "iterations")
    total_iters = sum(iters.values())
    solve_time = sum(t.get("sdp.solve_sdp", [0.0])[0] for t in per)
    metrics["sdp.iterations"] = (statistics.median(iters.values()), "count")
    metrics["sdp.s_per_iteration"] = (
        solve_time / total_iters if total_iters else 0.0, "s")
    for key in ("p", "q"):
        vals = [s[key] for s in solves if s.get(key) is not None]
        metrics[f"sdp.{key}"] = (statistics.median(vals) if vals else 0,
                                 "count")
    for status in STATUSES:
        metrics[f"sdp.status.{status}"] = (
            sum(1 for s in solves if s.get("status") == status), "count")
    squares = per_instance("sdp.extract_sos_certificate", "squares")
    metrics["sdp.certificate_squares"] = (statistics.median(squares.values()),
                                          "count")

    for key in cache_names:
        hits, misses = cache_delta.get(key, (0, 0))
        total = hits + misses
        metrics[f"cache.{key}.hits"] = (hits / len(instances), "count")
        metrics[f"cache.{key}.misses"] = (misses / len(instances), "count")
        metrics[f"cache.{key}.hit_ratio"] = (hits / total if total else 0.0,
                                             "ratio")
    return metrics


def absent_layers(absent, cache_delta, cache_names):
    """Layers named by the benchmark that this version does not have."""
    out = list(absent)
    out += [f"cache.{key}" for key in cache_names if key not in cache_delta]
    return out
