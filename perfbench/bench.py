"""Workloads, runners and metrics of the sphereopt benchmark.

Imported by ``run.py`` once the BLAS thread count is set in the
environment.
"""

import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import checker
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 3
IMPORT_PROBES = 6
CHILD_TIMEOUT = 60
PROBE = ("import time; t = time.perf_counter(); import sphereopt.cli; "
         "print(repr(time.perf_counter() - t))")
# The functools caches of the package at the commit that defined the
# benchmark; later versions report the ones they lost as absent.
CACHES = ("definetti._sum_index_map", "harmonics._moment_cached",
          "harmonics.moment_table", "multiindex.basis_catalog",
          "polymat._pair_maps", "polymat._trace_maps", "polymat._vec_scale",
          "sdp.uniform_conditioning")
# 32 restarts (the default) of the oracle's projected ascent on dense random
# forms take ~1.6 s, half of a cold invocation; 8 keep the oracle a layer
# of cli-cold rather than all of it.
ORACLE_RESTARTS = 8
# Seed-sequence words that keep the warm-up inputs and the checker's sample
# points apart from the timed instances' inputs.
WARMUP = 0x5741524d
CHECK = 0x43484b


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _case(kind, terms, level, certificate=False, oracle=False):
    argv = ["--poly", inputs.to_expr(terms), "--format", "json"]
    if level is not None:
        argv += ["--level", str(level)]
    if certificate:
        argv.append("--certificate")
    if oracle:
        argv += ["--oracle", "--restarts", str(ORACLE_RESTARTS)]
    degree = max(sum(e) for e in terms)
    shape = (len(next(iter(terms))), degree, level)
    return {"kind": kind, "terms": terms, "level": level,
            "certificate": certificate, "oracle": oracle, "argv": argv,
            "shape": shape}


def _seq(*words):
    return np.random.SeedSequence(list(words))


# --- workloads -------------------------------------------------------------
# Each workload maps (seed, round index) to a round of cases; a run executes
# whole rounds, so every run holds the same mix of case kinds.

DEEP_BASE_SEED = 500  # first quartic of the acceptance suite's level-19 test


def deep_round(seed, r):
    # One fixed quartic in 3 variables under seeded sign flips of the
    # variables.  Flips change every coefficient sign the program reads
    # but not the floating-point path of the solve, so each instance takes
    # the same iterations.  Rotating or permuting the variables does not
    # keep that path: the same quartic then needs 8 to 31 iterations
    # (20 s to 65 s at level 19), more spread than a run of one or two
    # instances can average out.
    base = inputs.random_form(3, 4, DEEP_BASE_SEED)
    signs = np.random.default_rng(_seq(seed, r)).choice([-1, 1], size=3)
    terms = {e: c * float(np.prod(signs ** np.array(e)))
             for e, c in base.items()}
    return [_case("n3-auto", terms, None)]


WIDE_SHAPES = ((6, 3), (8, 2), (10, 2))


def wide_round(seed, r):
    return [_case(f"n{n}-l{level}", inputs.random_form(n, 4, _seq(seed, r, k)),
                  level, certificate=True)
            for k, (n, level) in enumerate(WIDE_SHAPES)]


def _mixed(n, seq):
    rng = np.random.default_rng(seq)
    top = inputs.random_form(n, 4, rng.integers(2**63))
    low = inputs.random_form(n, 2, rng.integers(2**63))
    terms = dict(top)
    for e, c in low.items():
        terms[e] = terms.get(e, 0.0) + 0.5 * c
    return terms


# (kind, n, degree, level or None for automatic); degree 0 marks the
# mixed quartic-plus-quadratic input that the CLI homogenizes.
COLD_KINDS = (
    ("cubic-n2-lift", 2, 3, 3),
    ("quintic-n3-lift", 3, 5, 3),
    ("mixed-n3-homog", 3, 0, 3),
    ("sextic-n3", 3, 6, 4),
    ("quartic-n4", 4, 4, 3),
    ("quartic-n5", 5, 4, 2),
    ("quadratic-n2-auto", 2, 2, None),
    ("quadratic-n3-auto", 3, 2, None),
)


def cold_round(seed, r):
    out = []
    for k, (kind, n, degree, level) in enumerate(COLD_KINDS):
        seq = _seq(seed, r, k)
        terms = (_mixed(n, seq) if degree == 0
                 else inputs.random_form(n, degree, seq))
        out.append(_case(kind, terms, level, certificate=True, oracle=True))
    return out


WORKLOADS = {
    "deep-n3": (deep_round, "in-process"),
    "wide-lowlevel": (wide_round, "in-process"),
    "cli-cold": (cold_round, "process"),
}


def warmup_cases(round_fn, seed):
    """One case per distinct shape, drawn from the workload's warm-up seed."""
    seen = {}
    for case in round_fn(seed, WARMUP):
        seen.setdefault(case["shape"], case)
    return list(seen.values())


# --- environment -----------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return got.stdout.strip() or None


def _blas():
    import ctypes
    import glob
    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                info["threads"] = int(getattr(lib, sym)())
                return info
    info["threads"] = f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"
    return info


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(args):
    import platform
    import scipy
    return {"commit": _git_commit(), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": _blas(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# --- executing one instance ------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def import_probe():
    """(process wall time, in-process import time) of importing the CLI."""
    t0 = time.perf_counter()
    got = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - t0
    if got.returncode != 0:
        raise BenchError(f"cannot import sphereopt.cli: {got.stderr.strip()}")
    return wall, float(got.stdout)


class InProcess:
    """Calls ``sphereopt.cli.main`` in this process."""

    def __init__(self, tracer):
        sys.path.insert(0, SRC)
        import sphereopt.cli as cli
        if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
            raise BenchError(f"sphereopt imported from {cli.__file__}")
        self.main = cli.main
        self.tracer = tracer
        if tracer is not None:
            tracer.install()

    def __call__(self, argv, instance):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.tracer is None:
                    code = self.main(argv)
                else:
                    self.tracer.instance = instance
                    code = self.tracer.call(spans.ROOT, self.main, argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), time.perf_counter() - t0


class Process:
    """Runs each instance as a fresh ``python -m sphereopt.cli`` process."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.imports = []
        self.caches = {}

    def __call__(self, argv, instance):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "sphereopt.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "shim.py"), *argv]
        t0 = time.perf_counter()
        got = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                             capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT)
        dt = time.perf_counter() - t0
        if self.tracer is not None:
            self._collect(got.stderr, instance)
        return got.returncode, got.stdout, dt

    def _collect(self, stderr, instance):
        line = stderr.rstrip("\n").rsplit("\n", 1)[-1]
        if not line.startswith("perfbench-trace "):
            raise BenchError(f"traced child wrote no spans: {stderr[-500:]}")
        record = json.loads(line[len("perfbench-trace "):])
        offset = len(self.tracer.spans)
        for s in record["spans"]:
            s[0] += offset
            s[1] = None if s[1] is None else s[1] + offset
            s[2] = instance
            self.tracer.spans.append(s)
        self.tracer.absent = record["absent"]
        self.imports.append(record["import_s"])
        for key, (hits, misses) in record["caches"].items():
            row = self.caches.setdefault(key, [0, 0])
            row[0] += hits
            row[1] += misses


# --- one run ---------------------------------------------------------------

def _digest_check(key, digests):
    """Compare output digests with earlier runs of the same source and seed.

    Returns the indices of instances whose output changed.
    """
    path = os.path.join(STATE, "digests.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    old = store.get(key, [])
    changed = [i for i, (a, b) in enumerate(zip(old, digests)) if a != b]
    if len(digests) > len(old):
        store[key] = digests
        os.makedirs(STATE, exist_ok=True)
        with open(path + ".tmp", "w") as fh:
            json.dump(store, fh)
        os.replace(path + ".tmp", path)
    return changed


def kind_median(records, field):
    """Median of one field per case kind, then the geometric mean over kinds.

    A plain median over a mix of kinds lands inside whichever kind sits in
    the middle and jumps between kinds from run to run.  With one kind this
    is the plain median.  Instances without the field (failed ones for the
    window) are left out; with none left the result is 1.
    """
    by_kind = {}
    for rec in records:
        if rec[field] is not None:
            by_kind.setdefault(rec["kind"], []).append(rec[field])
    if not by_kind:
        return 1.0
    return statistics.geometric_mean(statistics.median(v)
                                     for v in by_kind.values())


def _tail(times):
    """Highest percentile with at least ten instances beyond it, or None."""
    n = len(times)
    rank = n - 10
    if rank < 1:
        return None
    return {"value": sorted(times)[rank - 1], "unit": "s",
            "percentile": 100.0 * rank / n, "rank": rank, "count": n}


def warmup_pass(runner, caches, round_fn, seed):
    """Clear every package cache, then run one warm-up per shape; seconds."""
    for fn in caches.values():
        fn.cache_clear()
    t0 = time.perf_counter()
    for case in warmup_cases(round_fn, seed):
        code, _, _ = runner(case["argv"] + ["--max-iterations", "1"], -1)
        if code not in (0, 3):
            raise BenchError(f"warm-up {case['kind']} exited {code}")
    return time.perf_counter() - t0


def run_workload(args):
    import resource
    round_fn, mode = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None

    if mode == "process":
        runner = Process(tracer)
        caches = None
    else:
        runner = InProcess(tracer)
        caches = spans.package_caches()
    # Set-up samples are split between the start and the end of the run, so
    # that a slow spell of a shared machine does not take all of them.
    n_probes = IMPORT_PROBES if caches is None else SETUP_REPEATS
    probes = [import_probe() for _ in range((n_probes + 2) // 3)]
    passes = []
    if caches is not None:
        passes.append(warmup_pass(runner, caches, round_fn, args.seed))
        before = spans.cache_counts(caches)

    records = []
    timed = 0.0
    r = 0
    while timed < args.seconds:
        for case in round_fn(args.seed, r):
            idx = len(records)
            code, out, dt = runner(case["argv"], idx)
            timed += dt
            problems = checker.check(case, code, out, _seq(args.seed, idx,
                                                           CHECK))
            window = None
            if code == 0 and not problems:
                window = checker.window_rel(out)
            records.append({"kind": case["kind"], "code": code, "s": dt,
                            "window_rel": window, "problems": problems,
                            "sha256": hashlib.sha256(out.encode()).hexdigest()})
        r += 1

    if caches is not None:
        after = spans.cache_counts(caches)
        passes += [warmup_pass(runner, caches, round_fn, args.seed)
                   for _ in range(SETUP_REPEATS - 1)]
    probes += [import_probe() for _ in range(n_probes - len(probes))]
    import_s = statistics.median(p[1] for p in probes)
    if caches is None:
        passes = [p[0] for p in probes]
        setup_s = statistics.median(passes)
    else:
        setup_s = import_s + statistics.median(passes)

    env = environment(args)
    key = "|".join([args.workload, str(args.seed), env["source_sha256"],
                    str(env["blas"]["threads"])])
    for i in _digest_check(key, [rec["sha256"] for rec in records]):
        records[i]["problems"].append("output differs from an earlier run")

    if mode == "process":
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = [rec["s"] for rec in records]
    failed = sum(1 for rec in records if rec["problems"])
    # Windows relative to a maximum near zero (some random quadratics) are
    # huge, so the window uses a plain median over all instances.
    windows = [rec["window_rel"] for rec in records
               if rec["window_rel"] is not None]
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "instances_per_s": ((len(records) - failed) / timed, "1/s"),
        "instance_s_p50": (kind_median(records, "s"), "s"),
        "window_rel_p50": (statistics.median(windows) if windows else 1.0,
                           "ratio"),
        "peak_rss_mb": (peak / 1024.0, "MB"),
    }
    report = {
        "environment": env,
        "attempted": len(records), "failed": failed,
        "failed_share": failed / len(records),
        "timed_s": timed, "rounds": r, "setup_passes_s": passes,
        "import_s": [p[1] for p in probes],
        "instance_s_tail": _tail(times),
        "output_sha256": hashlib.sha256(
            "".join(rec["sha256"] for rec in records).encode()).hexdigest(),
        "failures": [{"instance": i, "kind": rec["kind"],
                      "problems": rec["problems"]}
                     for i, rec in enumerate(records) if rec["problems"]],
    }
    if tracer is None:
        metrics = end_to_end
        report["end_to_end"] = _as_json(end_to_end)
    else:
        instances = list(range(len(records)))
        if mode == "process":
            delta = runner.caches
            import_s = statistics.median(runner.imports)
        else:
            delta = {k: [after[k][0] - before[k][0], after[k][1] - before[k][1]]
                     for k in after}
        metrics = spans.layer_metrics(tracer.spans, delta, instances, CACHES)
        metrics["import.s"] = (import_s, "s")
        metrics["traced.instance_s_p50"] = end_to_end["instance_s_p50"]
        metrics["traced.instances_per_s"] = end_to_end["instances_per_s"]
        report["absent_layers"] = spans.absent_layers(tracer.absent, delta,
                                                      CACHES)
        report["per_layer"] = _as_json(metrics)
        report["traced_end_to_end"] = _as_json(end_to_end)
    report["kinds"] = _by_kind(records)
    return report, {"correct": failed == 0, "attempted": len(records),
                    "failed": failed, "metrics": _as_json(metrics)}


def _as_json(metrics):
    return {name: {"value": float(v), "unit": unit}
            for name, (v, unit) in metrics.items()}


def _by_kind(records):
    out = {}
    for rec in records:
        out.setdefault(rec["kind"], []).append(rec)
    return {kind: {"count": len(recs),
                   "s_p50": kind_median(recs, "s"),
                   "window_rel_p50": kind_median(recs, "window_rel")}
            for kind, recs in out.items()}


def run_all(args):
    """Run every workload in its own process and print its metrics."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        got = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if got.returncode != 0:
            print(f"{name}: exited {got.returncode}\n{got.stderr}")
            status = 1
            continue
        result = json.loads(got.stdout.splitlines()[-1])
        report = json.loads(got.stdout.splitlines()[-2])
        print(f"{name}: attempted {result['attempted']}, failed "
              f"{result['failed']} (failed_share "
              f"{report['failed_share']:.3g}), correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
        tail = report["instance_s_tail"]
        if tail is None:
            print(f"  {'instance_s_tail':<44} {'absent':>14} "
                  f"(fewer than 11 instances)")
        else:
            print(f"  {'instance_s_tail':<44} {tail['value']:>14.6g} s "
                  f"(p{tail['percentile']:.0f}, rank {tail['rank']} of "
                  f"{tail['count']})")
    return status

