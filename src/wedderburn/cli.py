"""Command line front end.

Subcommands: factor (the factor lattice of x^N - 1 with the s-action),
decompose (the simple components with generator images), idempotents
(central and optionally non-central sets), verify (grade one instance
against the oracle), battery (grade the whole sweep).  Output is text or
JSON, byte-identical across runs for the same arguments.  In the
idempotents JSON each entry gives its element once, as flat: flat[k] is
the coefficient of x^(k mod N) y^(k div N), as its F_p digits, low digit
first.

Exit codes: 0 success, 1 invalid input, 2 internal consistency failure,
3 a verification check failed.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from . import battery, oracle
from .cyclotomic import classify
from .decompose import decompose
from .fields import make_field, split_prime_power
from .groups import NONSPLIT, SPLIT, GroupPresentation, make_group, parse_group
from .idempotents import complete_idempotent_set

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PANIC = 2
EXIT_CHECK_FAILED = 3


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, parsed and validated up front."""
    command: str
    fmt: str
    group: GroupPresentation | None = None
    include_noncentral: bool = False
    cross_check: bool = True
    max_n: int = 0
    qs: tuple = ()
    kinds: tuple = ()
    jobs: int | None = None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wedderburn",
        description="Wedderburn decompositions and idempotents of F_qG "
                    "for metacyclic G with a cyclic subgroup of index 2.")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    instance = argparse.ArgumentParser(add_help=False, parents=[shared])
    instance.add_argument("--q", type=int, required=True,
                          help="field size, an odd prime power")
    instance.add_argument("--group", required=True,
                          help="group spec, e.g. split:n=4,s=3 or nonsplit:n=2,s=3")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("factor", parents=[instance],
                   help="irreducible factors of x^N - 1 with the s-action")
    sub.add_parser("decompose", parents=[instance],
                   help="simple components with generator images")

    idem_help = ("central primitive idempotents, optionally with the "
                 "non-central splittings; in JSON, flat[k] is the coefficient "
                 "of x^(k mod N) y^(k div N) as F_p digits, low digit first")
    idem = sub.add_parser("idempotents", parents=[instance], help=idem_help,
                          description=idem_help)
    idem.add_argument("--include-noncentral", action="store_true")
    idem.add_argument("--crt-fallback", action="store_true",
                      help="accepted and ignored: every 2x2 component already "
                           "splits by a closed form or by interpolation")

    ver = sub.add_parser("verify", parents=[instance],
                         help="grade one instance against the oracle")
    ver.add_argument("--include-noncentral", action="store_true", default=True)
    ver.add_argument("--skip-noncentral", dest="include_noncentral",
                     action="store_false")
    ver.add_argument("--no-cross-check", dest="cross_check",
                     action="store_false", default=True)

    bat = sub.add_parser("battery", parents=[shared],
                         help="grade every valid instance in the sweep")
    bat.add_argument("--max-n", type=int, default=24)
    bat.add_argument("--qs", default="3,5,7,9,11,13",
                     help="comma separated field sizes; empty for none")
    bat.add_argument("--kind", choices=("both", SPLIT, NONSPLIT), default="both")
    bat.add_argument("--jobs", type=int, default=None,
                     help="worker processes, at most one per family (q, N) "
                          "(default: usable cores)")
    bat.add_argument("--no-cross-check", dest="cross_check",
                     action="store_false", default=True)
    return parser


def config_from_args(args):
    """argparse namespace -> validated RunConfig.  Raises on bad input."""
    # each subcommand's config carries the flags its parser defines
    common = {key: getattr(args, key) for key in ("include_noncentral", "cross_check")
              if hasattr(args, key)}
    common.update(command=args.command, fmt=args.format)
    if args.command == "battery":
        qs = tuple(int(tok) for tok in args.qs.split(",") if tok.strip())
        for q in qs:
            split_prime_power(q)
        kinds = (SPLIT, NONSPLIT) if args.kind == "both" else (args.kind,)
        if args.max_n < 0:
            raise ValueError(f"--max-n must be nonnegative, got {args.max_n}")
        if args.jobs is not None and args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        return RunConfig(max_n=args.max_n, qs=qs, kinds=kinds, jobs=args.jobs, **common)
    split_prime_power(args.q)  # a bad q is reported before a bad group spec
    return RunConfig(group=make_group(*parse_group(args.group), args.q), **common)


def _emit(lines, stream=None):
    print("\n".join(lines), file=stream or sys.stdout)


def _emit_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _field_name(q, m):
    return f"F_{q ** m}"


def _group_header(g, report):
    return (f"group {g!r}  q={g.q}  |G|={g.order}"
            f"  d={report.d} r={report.r} t={report.t}")


def run_factor(config):
    g = config.group
    report = classify(make_field(*split_prime_power(g.q)), g.N, g.s)
    if config.fmt == "json":
        _emit_json(report.to_json())
        return EXIT_OK
    lines = [_group_header(g, report), f"x^{g.N} - 1 over F_{g.q}:"]
    for pos, fac in enumerate(report.factors):
        if fac.divides_x_d_minus_1:
            role = "abelian-side"
        elif fac.self_involutive:
            role = "self-involutive"
        else:
            role = f"pair with [{fac.partner}]"
        lines.append(f"  [{pos}] {fac.poly}  deg={fac.degree}"
                     f"  root-order={fac.root_order}  {role}")
    _emit(lines)
    return EXIT_OK


def run_decompose(config):
    g = config.group
    dec = decompose(g)
    if config.fmt == "json":
        _emit_json(dec.to_json())
        return EXIT_OK
    lines = [_group_header(g, dec.report)]
    for i, comp in enumerate(dec.components):
        mult = f" x{comp.multiplicity}" if comp.multiplicity != 1 else ""
        lines.append(f"  component {i}: M_{comp.l}({_field_name(g.q, comp.m)})"
                     f"{mult}  factor={comp.source.position}"
                     f"  case={battery.component_case_tag(g, comp)}")
    lines.append(f"components={dec.component_count}"
                 f" dimension-sum={dec.dimension_sum} |G|={g.order}")
    _emit(lines)
    return EXIT_OK


def run_idempotents(config):
    g = config.group
    dec = decompose(g)
    notes = []
    ids = complete_idempotent_set(g, dec,
                                  include_noncentral=config.include_noncentral,
                                  notes=notes)
    if config.fmt == "json":
        payload = ids.to_json()
        payload["notes"] = list(notes)
        _emit_json(payload)
        return EXIT_OK
    lines = [_group_header(g, dec.report)]
    for entry in ids.entries:
        P, Q = entry.element.to_polys()
        origin = f" parent={entry.parent}" if entry.parent else ""
        lines.append(f"  {entry.label} [{entry.kind}{origin}]"
                     f" = ({P}) + ({Q})*y")
    for note in notes:
        lines.append(f"  note: {note}")
    _emit(lines)
    return EXIT_OK


def run_verify(config):
    g = config.group
    rep = battery.check_instance(g.kind, g.n, g.s, g.q,
                                 include_noncentral=config.include_noncentral,
                                 cross_check=config.cross_check)
    if config.fmt == "json":
        _emit_json(rep.to_json())
    else:
        lines = [rep.row()]
        lines.extend(f"  {name}: {msg}" for name, msg in rep.checks)
        _emit(lines)
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def run_battery(config):
    instances = battery.battery_instances(max_n=config.max_n, qs=config.qs,
                                          kinds=config.kinds)
    result = battery.run_battery(instances=instances,
                                 cross_check=config.cross_check,
                                 jobs=config.jobs)
    if config.fmt == "json":
        _emit_json(result.to_json())
    else:
        _emit([result.table()])
    return EXIT_OK if result.ok else EXIT_CHECK_FAILED


def run(config):
    handler = {
        "factor": run_factor,
        "decompose": run_decompose,
        "idempotents": run_idempotents,
        "verify": run_verify,
        "battery": run_battery,
    }[config.command]
    return handler(config)


def _exit_code_for(exc):
    if isinstance(exc, (AssertionError, oracle.GroupMismatch)):
        return EXIT_PANIC
    if isinstance(exc, (ValueError, TypeError, ArithmeticError)):
        return EXIT_INVALID
    return EXIT_PANIC


def _report_error(exc, fmt):
    code = type(exc).__name__
    if fmt == "json":
        _emit_json({"error": {"code": code, "message": str(exc)}})
    else:
        _emit([f"error[{code}]: {exc}"], stream=sys.stderr)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on its own for usage errors and --help; fold the
        # usage-error path into the validation exit code
        code = exc.code if isinstance(exc.code, int) else EXIT_INVALID
        return EXIT_OK if code == 0 else EXIT_INVALID
    try:
        config = config_from_args(args)
    except Exception as exc:
        _report_error(exc, args.format)
        return _exit_code_for(exc)
    try:
        return run(config)
    except Exception as exc:
        _report_error(exc, config.fmt)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
