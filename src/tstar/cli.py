"""Command line front end.

One binary, subcommand per activity: bound, search, shift, verify,
kneser, enumerate, repro.  Reports go to stdout as JSON (default) or
aligned key: value lines; family data always uses the text format from
core, so anything written here can be fed back in.  Counts are decimal
strings in JSON output because they outgrow doubles quickly.  Each
subcommand imports the modules it runs when it runs, so a call loads
only its own.

Exit codes: 0 success / property holds, 1 property falsified, 2 bad
input or violated hypothesis, 3 resource cap exceeded, 141 (128 +
SIGPIPE) when the reader closes stdout before the output is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .core import (
    EmptyFamilyError,
    GroundSet,
    HypothesisViolationError,
    InstanceTooLargeError,
    InvalidParametersError,
    ProfileSet,
    elements_of,
    enumerate_block,
    enumerate_profile_union,
    enumerate_quota,
    format_family,
    read_family,
    write_family,
)


# ---------------------------------------------------------------------------
# argument parsing helpers

def _int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _profile_list(text: str) -> tuple[tuple[int, ...], ...]:
    try:
        return tuple(tuple(int(x) for x in chunk.split(","))
                     for chunk in text.split(";"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected profiles like '4,4;3,2', got {text!r}")


def _kneser_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    try:
        for chunk in text.split(","):
            g, h = chunk.split(":")
            pairs.append((int(g), int(h)))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected pairs like '5:2,7:3', got {text!r}")
    return tuple(pairs)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


# ---------------------------------------------------------------------------
# report emission

def _jsonable(value):
    """A count (an int that is not a bool) becomes a decimal string, as
    counts outgrow JSON numbers, and any other rational (a Fraction from
    `bounds`) becomes "p/q"; lists, such as distributions and element
    lists, keep their numbers."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, int):
        return value if isinstance(value, bool) else str(value)
    if hasattr(value, "denominator"):
        return f"{value.numerator}/{value.denominator}"
    return value


def _table_lines(data: dict, prefix: str = ""):
    for key, value in data.items():
        name = prefix + key
        if isinstance(value, dict):
            yield from _table_lines(value, name + ".")
        elif isinstance(value, bool):
            yield f"{name}: {'true' if value else 'false'}"
        elif value is None:
            yield f"{name}: -"
        elif isinstance(value, (list, tuple)):
            yield f"{name}: {json.dumps(value)}"
        else:
            yield f"{name}: {value}"


def emit_report(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_jsonable(data)))
    else:
        for line in _table_lines(data):
            print(line)


def _check_out(path: str | None) -> None:
    """Refuse an output path before the work whose result it would hold:
    a directory, or a file this process cannot create or overwrite."""
    if path is None:
        return
    if not path or os.path.isdir(path):
        raise InvalidParametersError(f"cannot write {path!r}: not a file name")
    if not (os.access(path, os.W_OK) if os.path.exists(path)
            else os.access(os.path.dirname(path) or ".", os.W_OK | os.X_OK)):
        raise InvalidParametersError(
            f"cannot write {path!r}: no such directory or permission denied")


def _write_family_text(text: str, args, report: dict) -> None:
    """Family text to --out, then the report with the path on stdout;
    without --out, the text alone on stdout."""
    if args.out is None:
        sys.stdout.write(text)
        return
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(text)
    emit_report({**report, "out": args.out}, args.format)


# ---------------------------------------------------------------------------
# subcommands

def cmd_bound(args) -> int:
    from . import bounds

    ground = GroundSet(args.n)
    if args.ratio:
        if args.k is None:
            raise InvalidParametersError("--ratio takes --k, not --profiles")
        if args.t not in (None, 1):
            raise InvalidParametersError("the ratio bound is about t=1 only")
        rb = bounds.ratio_bound(ground, args.k)
        emit_report({
            "ratio": rb.ratio,
            "value": rb.absolute,
            "space": rb.block,
            "hypotheses": {"ratio_bound": rb.hypothesis_ok},
        }, args.format)
        return 0
    if args.t is None:
        raise InvalidParametersError("need --t")
    if args.lp:
        if args.k is None:
            raise InvalidParametersError("--lp takes --k, not --profiles")
        lp = bounds.delsarte_bound(ground, args.k, args.t)
        emit_report({"lp": lp, "value": math.floor(lp)}, args.format)
        return 0
    if args.profiles is not None:
        report = bounds.max_union_star_size(args.t, ground,
                                            ProfileSet(args.profiles))
        value, dists, flags = (report.value, report.optimal_distributions,
                               report.hypothesis_flags)
    else:
        dists = bounds.optimal_t_distributions(args.t, ground, args.k)
        value = bounds.max_star_size(args.t, ground, args.k)
        flags = bounds.hypothesis_flags(args.t, ground, k=args.k)
    emit_report({
        "value": value,
        "optimal_distributions": sorted(map(list, dists)),
        "hypotheses": flags,
    }, args.format)
    return 0


def _quota_k(args) -> int:
    if args.k is None or len(args.k) != 1:
        raise InvalidParametersError("quota mode takes a single --k value")
    return args.k[0]


def cmd_search(args) -> int:
    from . import search

    _check_out(args.witness_out)
    ground = GroundSet(args.n)
    if args.quota is not None:
        report = search.check_quota_family(ground, _quota_k(args), args.quota,
                                           1 if args.t is None else args.t,
                                           cap=args.search_cap)
    elif args.t is None:
        raise InvalidParametersError("need --t")
    else:
        report = search.check_block_maximum(ground, args.k, args.t,
                                            cap=args.search_cap,
                                            shifted=args.shifted)
    witness = report.pop("witness")
    if args.witness_out is not None:
        write_family(witness, args.witness_out)
    report["witness_file"] = args.witness_out
    emit_report(report, args.format)
    return 0


def cmd_shift(args) -> int:
    from . import shifting

    _check_out(args.out)
    fam = read_family(args.family)
    if args.all:
        parts = None
    else:
        if not 1 <= args.part <= fam.ground.p:
            raise InvalidParametersError(
                f"--part must be in 1..{fam.ground.p}, got {args.part}")
        parts = (args.part - 1,)
    closed, steps = shifting.shift_closure(fam, parts)
    _write_family_text(format_family(closed) + f"# steps: {steps}\n", args,
                       {"steps": steps, "size": len(closed.members)})
    return 0


def cmd_verify(args) -> int:
    from . import verify

    fam = read_family(args.family)
    extra: dict = {}
    if args.mode == "t-intersecting":
        holds = verify.is_t_intersecting(fam, args.t)
    elif args.mode == "cross":
        holds = verify.are_cross_t_intersecting(fam, read_family(args.other), args.t)
    elif args.mode == "star":
        center = verify.is_full_t_star(fam, read_family(args.space), args.t)
        holds = center is not None
        extra["center"] = None if center is None else list(elements_of(center))
    elif args.mode == "prefix":
        holds = verify.check_prefix_intersection(fam, read_family(args.other), args.t,
                                                 args.r, args.s)
    elif args.mode == "prefix-parts":
        holds = verify.check_partwise_prefix_intersection(
            fam, read_family(args.other), args.t, args.profile_a, args.profile_b)
    else:  # star-shift
        holds = verify.check_star_preservation(fam, read_family(args.space), args.t,
                                               args.i, args.j)
    emit_report({"holds": holds, **extra}, args.format)
    return 0 if holds else 1


def cmd_kneser(args) -> int:
    from . import kneser

    params = kneser.KneserParams(args.params)
    emit_report({
        "connected": kneser.is_connected(params, cap=args.enum_cap),
        "vertices": params.vertex_count,
    }, args.format)
    return 0


def cmd_enumerate(args) -> int:
    _check_out(args.out)
    ground = GroundSet(args.n)
    if args.quota is not None:
        fam = enumerate_quota(ground, _quota_k(args), args.quota, cap=args.enum_cap)
    elif args.k is not None:
        fam = enumerate_block(ground, args.k, cap=args.enum_cap)
    else:
        fam = enumerate_profile_union(ground, ProfileSet(args.profiles),
                                      cap=args.enum_cap)
    _write_family_text(format_family(fam), args, {"size": len(fam.members)})
    return 0


def cmd_repro(args) -> int:
    from . import acceptance

    numbers = [check.number for check in acceptance.ACCEPTANCE_CHECKS]
    for number in args.only or ():
        if number not in numbers:
            raise InvalidParametersError(
                f"--only takes a criterion number {min(numbers)}-{max(numbers)}, "
                f"got {number}")
    failures = 0
    for check in acceptance.ACCEPTANCE_CHECKS:
        if args.only is not None and check.number not in args.only:
            continue
        outcome = check.run()
        print(acceptance.report(check, outcome))
        failures += not outcome.passed
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser assembly and dispatch

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json",
                        help="report format (default json)")
    enum_cap = argparse.ArgumentParser(add_help=False)
    enum_cap.add_argument("--enum-cap", type=_positive_int, default=None,
                          help="override the enumeration size cap")
    space = argparse.ArgumentParser(add_help=False)     # a block or a profile union
    space.add_argument("--n", type=_int_vector, required=True)
    shape = space.add_mutually_exclusive_group(required=True)
    shape.add_argument("--k", type=_int_vector)
    shape.add_argument("--profiles", type=_profile_list)

    parser = argparse.ArgumentParser(
        prog="tstar",
        description="exact computations for t-intersecting families over "
                    "partitioned ground sets")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", parents=[common, space],
                       help="star bounds for blocks and profile unions")
    b.add_argument("--t", type=int)
    kind = b.add_mutually_exclusive_group()
    kind.add_argument("--ratio", action="store_true",
                      help="density bound for intersecting subfamilies")
    kind.add_argument("--lp", action="store_true",
                      help="Delsarte LP bound for t-intersecting subfamilies "
                           "of the block, exact and its floor")
    b.set_defaults(func=cmd_bound)

    s = sub.add_parser("search", parents=[common],
                       help="exact maximum t-intersecting subfamily")
    s.add_argument("--search-cap", type=_positive_int, default=None,
                   help="override the search size cap")
    s.add_argument("--n", type=_int_vector, required=True)
    s.add_argument("--k", type=_int_vector, required=True)
    s.add_argument("--t", type=int)
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--shifted", action="store_true",
                      help="return a shifted witness")
    mode.add_argument("--quota", type=_int_vector,
                      help="per-part minimum quotas; switches to the "
                           "quota-family check (t defaults to 1)")
    s.add_argument("--witness-out", metavar="FILE",
                   help="write the witness family here")
    s.set_defaults(func=cmd_search)

    sh = sub.add_parser("shift", parents=[common],
                        help="compress a family file to its shifted closure")
    sh.add_argument("family", help="family file to read")
    group = sh.add_mutually_exclusive_group(required=True)
    group.add_argument("--part", type=int, help="1-based part to compress")
    group.add_argument("--all", action="store_true",
                       help="compress every part")
    sh.add_argument("--out", metavar="FILE",
                    help="write the closed family here instead of stdout")
    sh.set_defaults(func=cmd_shift)

    v = sub.add_parser("verify", help="check a property of family files")
    v.set_defaults(func=cmd_verify)
    modes = v.add_subparsers(dest="mode", required=True)
    vm = {}
    for name in ("t-intersecting", "cross", "star", "prefix", "prefix-parts",
                 "star-shift"):
        vm[name] = m = modes.add_parser(name, parents=[common])
        m.add_argument("family", help="family file to read")
        if name in ("cross", "prefix", "prefix-parts"):
            m.add_argument("other", help="second family file")
        if name in ("star", "star-shift"):
            m.add_argument("--space", metavar="FILE", required=True,
                           help="ambient family file")
        m.add_argument("--t", type=int, required=True)
    vm["prefix"].add_argument("--r", type=int, required=True,
                              help="uniform size of the first family")
    vm["prefix"].add_argument("--s", type=int, required=True,
                              help="uniform size of the second family")
    vm["prefix-parts"].add_argument("--profile-a", type=_int_vector, required=True,
                                    help="profile of the first family")
    vm["prefix-parts"].add_argument("--profile-b", type=_int_vector, required=True,
                                    help="profile of the second family")
    vm["star-shift"].add_argument("--i", type=int, required=True,
                                  help="target element (1-based)")
    vm["star-shift"].add_argument("--j", type=int, required=True,
                                  help="source element, in the part of --i")

    kn = sub.add_parser("kneser", parents=[common, enum_cap],
                        help="connectivity of a product of Kneser graphs")
    kn.add_argument("--params", type=_kneser_pairs, required=True,
                    help="factors as 'g:h' pairs, e.g. '5:2,7:3'")
    kn.set_defaults(func=cmd_kneser)

    e = sub.add_parser("enumerate", parents=[common, enum_cap, space],
                       help="write out a block, union or quota family")
    e.add_argument("--quota", type=_int_vector)
    e.add_argument("--out", metavar="FILE")
    e.set_defaults(func=cmd_enumerate)

    r = sub.add_parser("repro",
                       help="run the acceptance checks and print the matrix")
    r.add_argument("--only", type=int, action="append",
                   help="run only this criterion (repeatable)")
    r.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):     # no limit before 3.10.7
        # A count is printed in full however many digits it has; the star
        # of --n 16000 --k 8000 --t 1 has 4,814.
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`tstar ... | head`).  Point the
        # descriptor at devnull so the interpreter's final flush of what
        # is still buffered goes nowhere, and exit as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InvalidParametersError, HypothesisViolationError,
            EmptyFamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
