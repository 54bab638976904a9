#!/usr/bin/env python3
"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, default seed, a table

One run: set up (imports and input generation) in a few fresh processes
to time set-up, set up once more in this process, then repeat the
workload's pass over its operations, clearing the program's caches before
each operation, until the passes add up to --seconds (and at least three).
Each operation is timed on its own, right after a short fixed reference
loop is timed; the times are scaled to the speed at which that loop takes
REF_S (see `at_reference_speed`).  wall_s is the median over the passes of
the pass's scaled time, setup_s the median of the scaled set-up times.
Between operations the harness keeps only a digest of each output, and
the first pass's outputs in a temporary file, so the peak memory is the
program's.  Afterwards the outputs of the first pass are checked with
`perfbench.checks`, which shares no code with the program, and every
later pass must give the same bytes.  The last line of standard output is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer split
from `perfbench.layers` (per pass), after one untimed pass that counts
`FieldElt` constructions.  Run from a full checkout: the program is
imported from `src/` next to this directory.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_PROBES = 9
MIN_PASSES = 3
REF_ITERATIONS = 100_000
REF_S = 0.01  # the reference loop's time at the speed the metrics are scaled to
SMOKE_INSTANCES = 9  # battery instances with n <= 3 over F_5


def _import_paths():
    if not (SRC / "wedderburn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}; "
                 "run from a full checkout of the repository")
    sys.path[:0] = [str(ROOT), str(SRC)]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def program_caches():
    """Every lru_cache in the program's modules, found before any wrapping."""
    from perfbench.layers import _modules

    seen = {}
    for module in _modules():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                seen[id(obj)] = obj
    return list(seen.values())


def set_up(args):
    from perfbench.workloads import make_workload

    jobs = 1 if args.trace else None  # the traced sweep grades one at a time
    return make_workload(args.workload, args.seed, jobs=jobs), program_caches()


def reference_loop():
    """Seconds a fixed pure-Python loop takes now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def at_reference_speed(seconds, ref_samples):
    """`seconds` scaled to the speed at which the reference loop takes REF_S.

    On a shared 2-core machine, the same pass of the same program took up
    to 30 % longer from one run to the next, for stretches of half a
    minute to several minutes.  The reference loop,
    timed next to the work, slows down with it, so the scaled time keeps
    the program's own cost.  The loop is not the program's code, so no
    change to the program moves it.
    """
    return seconds * REF_S / statistics.median(ref_samples)


def time_set_up(args):
    """Median over fresh processes of the time from start until set-up is
    done, at reference speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(reference_loop())
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return at_reference_speed(statistics.median(samples), refs)


class Passes:
    """What the timed passes leave behind for the metrics and the checks."""

    def __init__(self, first_file):
        self.op_times = []         # per pass, the seconds of each operation
        self.ref_times = []        # per pass, the reference loop's seconds
        self.attempted = 0
        self.failed = 0
        self.first_file = first_file  # per operation of the first pass, a JSON line
        self.digests = None
        self.unstable = 0          # later passes whose outputs differ
        self.output_bytes = 0
        self.classify_hits = 0
        self.classify_misses = 0

    @property
    def count(self):
        return len(self.op_times)

    def timed_s(self):
        return sum(map(sum, self.op_times))

    def wall_s(self):
        """The median pass, each pass at reference speed."""
        return statistics.median(at_reference_speed(sum(ts), refs)
                                 for ts, refs in zip(self.op_times, self.ref_times))

    def first(self):
        """Per operation of the first pass, its [failed, text] items."""
        self.first_file.seek(0)
        return [json.loads(line) for line in self.first_file]


def _clear(caches, passes):
    for cache in caches:
        if cache.__wrapped__.__qualname__ == "classify":
            info = cache.cache_info()
            passes.classify_hits += info.hits
            passes.classify_misses += info.misses
        cache.cache_clear()


def run_passes(workload, caches, seconds, first_file):
    """Whole passes until they add up to `seconds`, and at least MIN_PASSES.

    Each operation's output is reduced to digests (and, in the first pass,
    written to `first_file`) before the next operation starts.
    """
    from perfbench.workloads import cli_bytes, results

    passes = Passes(first_file)
    ops = workload.operations()
    while passes.count < MIN_PASSES or passes.timed_s() < seconds:
        gc.collect()
        times, refs, digests = [], [], []
        for op in ops:
            _clear(caches, passes)
            refs.append(reference_loop())
            t0 = time.perf_counter()
            raw = op()
            times.append(time.perf_counter() - t0)
            items = results(raw)
            passes.attempted += len(items)
            passes.failed += sum(failed for failed, _ in items)
            passes.output_bytes += cli_bytes(raw)
            digests += [hashlib.sha256(text.encode()).hexdigest() for _, text in items]
            if passes.digests is None:
                first_file.write(json.dumps(items) + "\n")
            del raw, items
        passes.op_times.append(times)
        passes.ref_times.append(refs)
        if passes.digests is None:
            passes.digests = digests
        elif digests != passes.digests:
            passes.unstable += 1
    _clear(caches, passes)
    return passes


def count_elements(workload, caches):
    """`FieldElt` constructions in one untimed pass, before any span is installed."""
    from perfbench.layers import counting_elements

    with counting_elements() as count:
        for op in workload.operations():
            for cache in caches:
                cache.cache_clear()
            op()
    for cache in caches:
        cache.cache_clear()
    return count.built


def check(workload, first, unstable):
    from perfbench import checks

    problems = [f"{unstable} later passes gave other outputs" if unstable else None]
    [(smoke_failed, smoke_text)], *outs = first
    if not smoke_failed:
        smoke = json.loads(smoke_text)["instances"]
        if len(smoke) != SMOKE_INSTANCES:
            problems.append(f"the smoke call graded {len(smoke)} instances")
        for rep in smoke:
            problems.extend(checks.check_sweep_report(rep))
    items = [item for out in outs for item in out]
    if workload.name == "sweep":
        reports = [json.loads(text) for _, text in items]
        keys = {(r["kind"], r["n"], r["s"], r["q"]) for r in reports}
        if keys != set(workload.inputs) or len(reports) != len(keys):
            problems.append("the sweep's reports are not one per input")
        for (failed, _), rep in zip(items, reports):
            if not failed:
                problems.extend(checks.check_sweep_report(rep))
        return [p for p in problems if p]
    for inst, (failed, text) in zip(workload.inputs, items):
        if failed:
            continue
        payload = json.loads(text)
        kind, n, s, q = inst
        if workload.name == "factor-deep":
            N = n if kind == "split" else 2 * n
            problems.extend(checks.check_factor(q, N, s, payload))
        else:
            problems.extend(checks.check_idempotents(kind, n, s, q, payload))
    return [p for p in problems if p]


def layer_metrics(tracer, passes, elements_built):
    """The per-layer split, per pass."""
    from perfbench.layers import GROUPS, LAYERS

    k = passes.count
    wall = passes.timed_s()
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value / k if unit != "ratio" else value,
                     "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.self_s", tracer.layer_self_s(layer), "s")
    put("cyclotomic.splitting_field.total_s",
        tracer.total_s("cyclotomic.splitting_field"), "s")
    for name in ("cyclotomic.root_of_unity", "cyclotomic.factor_xn_minus_1",
                 "cyclotomic.classify", "polys.is_irreducible",
                 "polys.first_irreducible", "polys.powmod", "polys.poly_order",
                 "polys.s_involution", "polys.ext_gcd",
                 "idempotents.cyclic_idempotent",
                 "idempotents.complete_idempotent_set",
                 "idempotents.noncentral_via_interpolation",
                 "decompose.component_matrices_check", "oracle.algebra_for",
                 "oracle.interpolate_idempotent", "oracle.multiply",
                 "fields.sqrt_in_field", "groups.make_group",
                 "battery.check_instance", "battery.run_battery"):
        put(f"{name}.self_s", tracer.self_s(name), "s")
    for group, members in GROUPS.items():
        put(f"{group}.self_s", tracer.self_s(*members), "s")
    for name in ("polys.is_irreducible", "idempotents.cyclic_idempotent",
                 "oracle.multiply"):
        put(f"{name}.calls", tracer.calls(name), "count")
    put("cyclotomic.classify.misses", passes.classify_misses, "count")
    calls = passes.classify_hits + passes.classify_misses
    put("cyclotomic.classify.hit_ratio",
        passes.classify_hits / calls if calls else 0.0, "ratio")
    out["fields.elements_built"] = {"value": elements_built, "unit": "count"}
    put("cli.output_bytes", passes.output_bytes, "bytes")
    put("trace.wall_s", wall, "s")
    put("trace.self_share", tracer.all_self_s() / wall, "ratio")
    return out


def run_one(args):
    setup_s = None if args.trace else time_set_up(args)
    workload, caches = set_up(args)
    tracer = elements_built = None
    if args.trace:
        from perfbench.layers import Tracer
        elements_built = count_elements(workload, caches)
        tracer = Tracer()
    with tempfile.TemporaryFile("w+", encoding="utf-8", dir=HERE) as first_file:
        passes = run_passes(workload, caches, args.seconds, first_file)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = check(workload, passes.first(), passes.unstable)

    print(f"workload {workload.name} seed {args.seed}: {len(workload.inputs)} "
          f"inputs, {passes.count} passes of "
          + ", ".join(f"{sum(ts):.3f}" for ts in passes.op_times) + " s")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more failed checks")
    if tracer:
        metrics = layer_metrics(tracer, passes, elements_built)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": passes.wall_s(), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": passes.attempted,
                      "failed": passes.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process, then one table of the results."""
    from perfbench.workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            return 1
        rows.append((name, json.loads(lines[-1])))
    for name, res in rows:
        print(f"\n{name}: correct={res['correct']} attempted={res['attempted']}"
              f" failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:48s} {m['value']:14.6g} {m['unit']}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    _import_paths()
    if args.setup_probe:
        set_up(args)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
