"""The three workloads: how the seed picks their inputs, and their operations.

Every workload draws its operations once from the seed, and a run
repeats the same pass over them.  Every operation starts with the
program's caches cleared, as a fresh `wedderburn` process would, so every
pass does the same work.  Inside one operation the calls share the
program's `lru_cache`s: in a `run_battery` call, the instances of one
family (q, N) share the factorization of x^N - 1.

  sweep                 `battery.run_battery` on whole families (q, N) of
                        the battery, one call per family, every check
                        class on, `jobs` = usable cores
  factor-deep           `wedderburn factor --format json` through `cli.main`
                        on pairs (q, N) whose splitting degree ord_N(q) is
                        large
  idempotents-shallow   `wedderburn idempotents --include-noncentral
                        --crt-fallback --format json` through `cli.main` on
                        instances whose splitting degree is at most 2

The slices are balanced: the seed shuffles the population and deals it
into bins of equal reference cost (`costs.json`, made by
measure_costs.py), and the pass is the first bin.  So every seed runs
other instances but about the same amount of work.  factor-deep keeps a
fixed list of (q, N) and lets the seed draw the group on each.

Every pass starts with the smoke call, `wedderburn battery` on the nine
instances with n <= 3 over F_5 (about 0.1 s), so that every layer, the
CLI and the battery included, is entered on every workload.
"""

import contextlib
import io
import json
import os
import random
from functools import lru_cache, partial
from math import gcd
from pathlib import Path

from wedderburn import battery, cli
from wedderburn.fields import ord_mod

COSTS_FILE = Path(__file__).with_name("costs.json")

# sweep: battery families (q, N) costing at most SWEEP_CAP_S, dealt into
# SWEEP_BINS bins of about 5.5 s each
SWEEP_CAP_S = 2.0
SWEEP_BINS = 11
# idempotents-shallow: instances with ord_N(q) <= 2 costing at most
# IDEM_CAP_S, in IDEM_BINS bins of about 5.5 s
IDEM_MAX_DEGREE = 2
IDEM_CAP_S = 2.0
IDEM_BINS = 8
# factor-deep: per q, the cheapest pair at the largest splitting degree
# (>= 8) that one call reaches within FACTOR_CAP_S
FACTOR_MIN_DEGREE = 8
FACTOR_CAP_S = 2.5


def load_costs():
    with open(COSTS_FILE) as fh:
        return json.load(fh)


def _modulus(kind, n):
    return n if kind == "split" else 2 * n


def _key(kind, n, s, q):
    return f"{kind},{n},{s},{q}"


def balanced_slice(costs, bins, seed):
    """The first of `bins` bins of about equal total cost, dealt for this seed.

    Largest first, each key goes to the lightest bin; the seed perturbs
    the order by up to 30 %, so that each seed deals another partition.
    """
    rng = random.Random(seed)
    order = sorted(sorted(costs), key=lambda k: -costs[k] * rng.uniform(0.7, 1.3))
    loads = [0.0] * bins
    members = [[] for _ in range(bins)]
    for k in order:
        b = loads.index(min(loads))
        members[b].append(k)
        loads[b] += costs[k]
    return sorted(members[0])


def _involutions(N):
    return [s for s in range(1, max(N, 2)) if gcd(s, N) == 1 and s * s % N == 1 % N]


@lru_cache(maxsize=None)
def _battery():
    return tuple(battery.battery_instances())


def families():
    """"q,N" -> the battery instances whose group has x^N - 1 over F_q."""
    out = {}
    for inst in _battery():
        out.setdefault(f"{inst[3]},{_modulus(inst[0], inst[1])}", []).append(inst)
    return out


def sweep_families(seed, costs):
    """The seed's families, each as its list of instances."""
    pool = {k: c for k, c in costs["sweep"].items() if c <= SWEEP_CAP_S}
    members = families()
    return [members[fam] for fam in balanced_slice(pool, SWEEP_BINS, seed)]


def idempotents_inputs(seed, costs):
    pool = {_key(*inst): costs["idempotents-shallow"][_key(*inst)]
            for inst in _battery()
            if ord_mod(inst[3], _modulus(inst[0], inst[1])) <= IDEM_MAX_DEGREE}
    pool = {k: c for k, c in pool.items() if c <= IDEM_CAP_S}
    chosen = set(balanced_slice(pool, IDEM_BINS, seed))
    return [inst for inst in _battery() if _key(*inst) in chosen]


def factor_pairs(costs):
    """The fixed (q, N) list: per q, the deepest pair one call reaches in time."""
    pairs = {(inst[3], _modulus(inst[0], inst[1])) for inst in _battery()}
    out = []
    for q in sorted({q for q, _ in pairs}):
        fast = [(-ord_mod(q, N), costs["factor-deep"][f"{q},{N}"], N)
                for qq, N in pairs if qq == q
                and ord_mod(q, N) >= FACTOR_MIN_DEGREE
                and costs["factor-deep"][f"{q},{N}"] <= FACTOR_CAP_S]
        if fast:
            out.append((q, min(fast)[2]))
    return out


def factor_inputs(seed, costs):
    """(kind, n, s, q) per fixed pair; the seed draws the family and the twist.

    x^N - 1 and its factorization, which carry the cost, are the same for
    every choice: N = n for split groups and N = 2n for nonsplit ones.
    """
    rng = random.Random(seed)
    out = []
    for q, N in factor_pairs(costs):
        kind = rng.choice(("split", "nonsplit")) if N % 2 == 0 else "split"
        n = N if kind == "split" else N // 2
        out.append((kind, n, rng.choice(_involutions(N)), q))
    rng.shuffle(out)
    return out


def usable_cores():
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# operations


def _cli_call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


SMOKE_ARGV = ["battery", "--max-n", "3", "--qs", "5", "--jobs", "1",
              "--format", "json"]


def factor_argv(kind, n, s, q):
    return ["factor", "--q", str(q), "--group", f"{kind}:n={n},s={s}",
            "--format", "json"]


def idempotents_argv(kind, n, s, q):
    return ["idempotents", "--q", str(q), "--group", f"{kind}:n={n},s={s}",
            "--include-noncentral", "--crt-fallback", "--format", "json"]


class Workload:
    """Inputs for one seed and the operations of one pass over them."""

    def __init__(self, name, inputs, jobs=None, groups=None):
        self.name = name
        self.inputs = inputs
        self.jobs = jobs
        self.groups = groups        # sweep: the instances of each call

    def operations(self):
        """Zero-argument calls, the smoke call first.  Each looks the
        program's functions up when called, so tracing wrappers installed
        later are seen."""
        ops = [partial(_cli_call, SMOKE_ARGV)]
        if self.name == "sweep":
            return ops + [partial(_grade, group, self.jobs) for group in self.groups]
        make_argv = factor_argv if self.name == "factor-deep" else idempotents_argv
        return ops + [partial(_cli_call, make_argv(*inst)) for inst in self.inputs]


def _grade(instances, jobs):
    return battery.run_battery(instances=instances, include_noncentral=True,
                               cross_check=True, jobs=jobs)


def results(raw):
    """One operation's output as (failed, text) items: one per CLI call,
    one per graded instance."""
    if isinstance(raw, tuple):
        rc, text = raw
        return [(rc != 0, text)]
    return [(not rep.ok, json.dumps(rep.to_json(), sort_keys=True))
            for rep in raw.reports]


def cli_bytes(raw):
    """Bytes a CLI call printed; 0 for a run_battery call."""
    return len(raw[1].encode()) if isinstance(raw, tuple) else 0


def make_workload(name, seed, jobs=None, costs=None):
    costs = costs or load_costs()
    if name == "sweep":
        groups = sweep_families(seed, costs)
        return Workload(name, [inst for group in groups for inst in group],
                        jobs=jobs or usable_cores(), groups=groups)
    if name == "factor-deep":
        return Workload(name, factor_inputs(seed, costs))
    if name == "idempotents-shallow":
        return Workload(name, idempotents_inputs(seed, costs))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep", "factor-deep", "idempotents-shallow")
