#!/usr/bin/env python3
"""Measure perfbench/costs.json: each operation's fastest of three cold runs.

    python3 perfbench/measure_costs.py [workload ...]

An operation is what the benchmark times: a CLI call for factor-deep and
idempotents-shallow, the grading of one whole family (q, N) for the sweep,
with `jobs` = usable cores as in the benchmark; in seconds.  Each named
workload's whole population is measured in this one run and replaces that
workload's entry; with no workload named, all three are measured, which
takes about 40 minutes on a 2-core machine.

The costs only balance the seeded slices (see workloads.balanced_slice);
no metric reads them.  A change to this file changes which instances every
seed runs, so it is a change to the benchmark: compare two commits only
with the same costs.json.
"""

import argparse
import json
import sys
import time

from run import ROOT, _import_paths, program_caches

REPEATS = 3


def operations(name):
    """key -> (function, args) for every operation of a workload's population."""
    from perfbench.workloads import (FACTOR_MIN_DEGREE, IDEM_MAX_DEGREE,
                                     _battery, _cli_call, _grade, _key,
                                     _modulus, factor_argv, families,
                                     idempotents_argv, usable_cores)
    from wedderburn.fields import ord_mod

    if name == "sweep":
        return {fam: (_grade, (members, usable_cores()))
                for fam, members in families().items()}
    if name == "idempotents-shallow":
        return {_key(*inst): (_cli_call, (idempotents_argv(*inst),))
                for inst in _battery()
                if ord_mod(inst[3], _modulus(inst[0], inst[1])) <= IDEM_MAX_DEGREE}
    if name == "factor-deep":
        pairs = {(q, _modulus(kind, n)) for kind, n, _, q in _battery()}
        return {f"{q},{N}": (_cli_call, (factor_argv("split", N, N - 1, q),))
                for q, N in pairs if ord_mod(q, N) >= FACTOR_MIN_DEGREE}
    raise SystemExit(f"unknown workload {name!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    _import_paths()
    from perfbench.workloads import COSTS_FILE, WORKLOADS

    caches = program_caches()
    costs = json.loads(COSTS_FILE.read_text()) if COSTS_FILE.exists() else {}
    for name in args.workloads or WORKLOADS:
        out = {}
        for key, (fn, fn_args) in sorted(operations(name).items()):
            times = []
            for _ in range(REPEATS):
                for cache in caches:
                    cache.cache_clear()
                t0 = time.perf_counter()
                fn(*fn_args)
                times.append(time.perf_counter() - t0)
            out[key] = round(min(times), 4)
        costs[name] = out
        print(f"{name}: {len(out)} operations, {sum(out.values()):.1f} s",
              file=sys.stderr)
    COSTS_FILE.write_text(json.dumps(costs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {COSTS_FILE.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
