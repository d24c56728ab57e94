"""The five workloads: inputs made from the seed, the calls to time, and
the check of every output.

Each `build_*` function returns the fixed list of calls one pass makes.
Inputs are generated here, in set-up; the library receives only them.
`mode` is "timed" for the measured run and "inprocess" for the traced
run, which differ only for `cli` (subprocesses versus tstar.cli.main).
`tiny` shrinks every pass for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from pathlib import Path

import tstar
from tstar import bounds, core, search, shifting, verify

import oracles as O
from measure import Call, Refused

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Per-call limit in the solve_* workloads.  Every pool instance closes in
# under a quarter of it at the seed commit; every frontier instance needs
# more than ten times it.
SOLVE_LIMIT_S = 1.5
# Guard for every other call, so a hang becomes a failed call.
GUARD_LIMIT_S = 60.0


@lru_cache(maxsize=None)
def pinned() -> dict:
    with open(HERE / "pinned.json", encoding="ascii") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# solve_space

# (kind, part sizes, spec, t): spec is k for a block, (k, quotas) for a
# quota space and the profile list for a profile union.
SPACE_POOL = [
    ("block", (6,), (3,), 1),
    ("block", (7,), (3,), 2),
    ("block", (8,), (3,), 1),
    ("block", (8,), (4,), 1),
    ("block", (8,), (4,), 2),
    ("block", (9,), (3,), 1),
    ("block", (10,), (3,), 1),
    ("block", (4, 4), (2, 2), 1),
    ("block", (3, 4), (1, 2), 1),
    ("block", (4, 5), (2, 2), 1),
    ("block", (5, 5), (2, 2), 1),
    ("block", (5, 5), (2, 2), 2),
    ("block", (5, 5), (3, 2), 2),
    ("block", (4, 4, 4), (1, 1, 1), 1),
    ("block", (4, 4, 4), (2, 1, 1), 2),
    ("quota", (4, 4), (3, (1, 1)), 1),
    ("quota", (5, 5), (3, (1, 1)), 1),
    ("quota", (4, 4, 4), (3, (1, 1, 0)), 1),
    ("union", (5, 5), ((2, 2), (2, 1)), 1),
    ("union", (5, 5), ((2, 2), (2, 1)), 2),
    ("union", (5, 5), ((1, 2), (2, 1)), 1),
]

# Instances the seed commit does not close within the limit: the expected
# failures of solve_space.  Their timeouts count as failed calls but leave
# the run correct; any other timeout, and any exception, makes it incorrect.
FRONTIER = [
    ("block", (9,), (4,), 1),
    ("block", (5, 6), (2, 3), 2),
    ("block", (6, 6), (3, 3), 2),
]


def instance_key(kind, sizes, spec, t) -> str:
    n = ",".join(map(str, sizes))
    if kind == "block":
        return f"block n={n} k={','.join(map(str, spec))} t={t}"
    if kind == "quota":
        k, quotas = spec
        return f"quota n={n} k={k} q={','.join(map(str, quotas))} t={t}"
    profiles = ";".join(",".join(map(str, r)) for r in spec)
    return f"union n={n} r={profiles} t={t}"


def space_profiles(kind, sizes, spec) -> list[tuple[int, ...]]:
    if kind == "block":
        return [tuple(spec)]
    if kind == "quota":
        return O.quota_profile_list(sizes, spec[0], spec[1])
    return [tuple(r) for r in spec]


def permute(kind, sizes, spec, order):
    sizes = tuple(sizes[i] for i in order)
    if kind == "block":
        spec = tuple(spec[i] for i in order)
    elif kind == "quota":
        spec = (spec[0], tuple(spec[1][i] for i in order))
    else:
        spec = tuple(tuple(r[i] for i in order) for r in spec)
    return sizes, spec


def solve_space_run(kind, sizes, spec, t):
    """The timed call for one full space."""
    ground = core.GroundSet(sizes)
    if kind == "block":
        return search.check_block_maximum(ground, spec, t)
    if kind == "quota":
        return search.check_quota_family(ground, spec[0], spec[1])
    space = core.enumerate_profile_union(ground, core.ProfileSet(spec))
    return search.max_t_intersecting(space, t)


def _solve_space_call(kind, sizes, spec, t, answer, suffix="", frontier=False) -> Call:
    label = instance_key(kind, sizes, spec, t) + suffix

    @lru_cache(maxsize=None)
    def expected():
        members = O.space_members(sizes, space_profiles(kind, sizes, spec))
        return members, O.best_star(members, t)

    def unpack(out):
        if isinstance(out, dict):
            return out["max_size"], out["witness"].members
        return out.max_size, out.witness.members

    def check(out):
        size, witness = unpack(out)
        members, star = expected()
        if answer is not None:
            O.expect(size == answer, f"maximum {size}, pinned answer {answer}")
        O.check_witness(witness, members, t, size, star)
        if kind == "block":
            O.expect(out["star_bound"] == star,
                     f"star bound {out['star_bound']}, best star {star}")
            O.expect(out["gap"] == size - star, "gap is not maximum minus star")
        elif kind == "quota":
            O.expect(out["star_size"] == star,
                     f"star size {out['star_size']}, best star {star}")

    def digest(out):
        size, witness = unpack(out)
        nodes = out["nodes_explored"] if isinstance(out, dict) else out.nodes_explored
        return size, tuple(sorted(witness)), nodes

    return Call(label, lambda: solve_space_run(kind, sizes, spec, t),
                check, digest, SOLVE_LIMIT_S, expected_failure=frontier)


def space_answer(kind, sizes, spec, t):
    """Pinned maximum of a pool or frontier instance, or None if unknown.

    For p = 1 the pinned value must equal the Ahlswede-Khachatrian value.
    """
    entry = pinned()["solve_space"][instance_key(kind, sizes, spec, t)]
    if entry["source"] == "ak1997":
        O.expect(entry["max"] == O.ak_maximum(sizes[0], spec[0], t),
                 "pinned p = 1 answer differs from the closed form")
    return entry["max"]


def build_solve_space(seed: int, workdir: Path, mode: str, tiny: bool = False) -> list[Call]:
    """Every pool instance twice and the frontier once, in a seeded order,
    each copy with a seeded order of its parts.  Two copies give the 40
    calls a pass needs for a p75 with ten calls beyond it."""
    rng = random.Random(seed)
    chosen = SPACE_POOL[:6] if tiny else SPACE_POOL * 2 + FRONTIER
    calls = []
    for copy, (kind, sizes, spec, t) in enumerate(chosen):
        answer = space_answer(kind, sizes, spec, t)
        order = list(range(len(sizes)))
        rng.shuffle(order)
        psizes, pspec = permute(kind, sizes, spec, order)
        calls.append(_solve_space_call(kind, psizes, pspec, t, answer, f" #{copy}",
                                       frontier=(kind, sizes, spec, t) in FRONTIER))
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# solve_subfamily

# (name, part sizes, k, t, keep probability)
SUB_CLASSES = [
    ("A", (6, 6), (2, 2), 1, 0.5),
    ("B", (5, 6), (2, 3), 2, 0.3),
    ("C", (10,), (4,), 1, 0.3),
    ("D", (10,), (4,), 2, 0.3),
    ("E", (7, 7), (3, 3), 2, 0.06),
]
SUB_POOL = 200          # pinned subfamilies per class
SUB_PER_PASS = 100      # sampled per class into one pass


@lru_cache(maxsize=None)
def _class_space(class_index: int) -> list[int]:
    _, sizes, k, _, _ = SUB_CLASSES[class_index]
    return sorted(O.space_members(sizes, [k]))


def subfamily_members(class_index: int, index: int) -> frozenset[int]:
    """Pool subfamily `index` of a class: each member of the block kept
    with the class's probability, from a generator seeded by the pair."""
    keep = SUB_CLASSES[class_index][4]
    rng = random.Random(class_index * 1_000_003 + index)
    return frozenset(m for m in _class_space(class_index) if rng.random() < keep)


def build_solve_subfamily(seed: int, workdir: Path, mode: str, tiny: bool = False) -> list[Call]:
    rng = random.Random(seed)
    per_class = 3 if tiny else SUB_PER_PASS
    calls = []
    for ci, (name, sizes, k, t, keep) in enumerate(SUB_CLASSES):
        answers = pinned()["solve_subfamily"][name]
        for index in rng.sample(range(SUB_POOL), per_class):
            members = subfamily_members(ci, index)
            answer = answers[index][0]
            calls.append(_subfamily_call(f"{name}{index} n={sizes} k={k} t={t}",
                                         core.Family(core.GroundSet(sizes), members),
                                         t, answer))
    rng.shuffle(calls)
    return calls


def _subfamily_call(label, family, t, answer) -> Call:
    members = family.members

    def check(out):
        if answer is not None:
            O.expect(out.max_size == answer,
                     f"maximum {out.max_size}, pinned answer {answer}")
        O.check_witness(out.witness.members, members, t, out.max_size,
                        O.best_star(members, t))

    def digest(out):
        return out.max_size, tuple(sorted(out.witness.members)), out.nodes_explored

    return Call(label, lambda: search.max_t_intersecting(family, t),
                check, digest, SOLVE_LIMIT_S)


# ---------------------------------------------------------------------------
# closed_form

# The criterion 2/3 grid: per part 1 <= k_i <= 5 < n_i <= 12, p <= 3, t <= 4.
PER_PART = [(n, k) for k in range(1, 6) for n in range(k + 1, 13)]
CLOSED_PER_PASS = 5000


def build_closed_form(seed: int, workdir: Path, mode: str, tiny: bool = False) -> list[Call]:
    rng = random.Random(seed)
    calls = []
    for index in range(40 if tiny else CLOSED_PER_PASS):
        parts = [rng.choice(PER_PART) for _ in range(rng.randint(1, 3))]
        sizes = tuple(n for n, _ in parts)
        k = tuple(k_i for _, k_i in parts)
        t = rng.randint(1, min(4, sum(k)))
        shrinkable = [i for i, k_i in enumerate(k) if k_i >= 2]
        profiles = [k]
        if shrinkable:
            j = rng.choice(shrinkable)
            profiles.append(tuple(k_i - (i == j) for i, k_i in enumerate(k)))
        calls.append(_closed_form_call(index, sizes, k, t, tuple(profiles)))
    return calls


def closed_form_run(sizes, k, t, profiles, centers):
    ground = core.GroundSet(sizes)
    greedy = bounds.optimal_t_distributions(t, ground, k)
    scan = bounds.enumerate_distribution_argmax(t, ground, k)
    exchange = tuple(bounds.exchange_optimal(ground, k, t, c) for c in centers)
    best = bounds.max_star_size(t, ground, k)
    ratio = bounds.ratio_bound(ground, k)
    flags = bounds.hypothesis_flags(t, ground, k=k)
    union = bounds.max_union_star_size(t, ground, core.ProfileSet(profiles),
                                       strict=False)
    return (greedy, scan.value, scan.optimal_distributions, exchange, best,
            (ratio.ratio, ratio.block, ratio.absolute, ratio.hypothesis_ok),
            tuple(sorted(flags.items())), union.value)


def _closed_form_call(index, sizes, k, t, profiles) -> Call:
    offs = O.offsets(sizes)
    dists = O.compositions(t, [min(t, k_i) for k_i in k])
    centers = tuple(sum(((1 << d) - 1) << off for d, off in zip(dist, offs))
                    for dist in dists)

    def check(out):
        greedy, scan_value, scan_args, exchange, best, ratio, flags, union = out
        top, values = O.block_star_table(sizes, k, t)
        argmax = frozenset(d for d, v in values.items() if v == top)
        O.expect(greedy == argmax, f"greedy {sorted(greedy)} != scan {sorted(argmax)}")
        O.expect(scan_args == argmax and scan_value == top and best == top,
                 "distribution scan disagrees with the star sizes")
        for dist, balanced in zip(dists, exchange):
            O.expect(balanced == (values[dist] == top),
                     f"exchange condition {balanced} at {dist}, "
                     f"size {values[dist]} of best {top}")
        r, block, absolute = O.ratio_value(sizes, k)
        O.expect(ratio == (r, block, absolute,
                           all(n >= 2 * k_i for n, k_i in zip(sizes, k))),
                 f"ratio bound {ratio}")
        p = len(sizes)
        O.expect(dict(flags) == {
            "ratio_bound": all(n >= 2 * k_i for n, k_i in zip(sizes, k)),
            "block_star": all(n > 2 * (t + 1) * p * k_i * k_i
                              for n, k_i in zip(sizes, k))},
            f"hypothesis flags {flags}")
        O.expect(union == O.union_star_value(sizes, profiles, t),
                 f"union star {union}")

    def digest(out):
        greedy, scan_value, scan_args, *rest = out
        return (tuple(sorted(greedy)), scan_value, tuple(sorted(scan_args)), *rest)

    return Call(f"#{index} n={sizes} k={k} t={t}",
                lambda: closed_form_run(sizes, k, t, profiles, centers),
                check, digest, GUARD_LIMIT_S)


# ---------------------------------------------------------------------------
# compress

# (kind, part sizes, k, share of the pool kept, star center size, per pass).
# A star's center has one element in each of its first `center size` parts.
# The seed picks members and centers; sizes are fixed, so that seeds differ
# in inputs but hardly in the amount of work.
CLOSURE_CLASSES = [
    ("random", (10, 10), (3, 3), 0.02, 0, 4),
    ("random", (8, 8), (2, 2), 0.3, 0, 4),
    ("random", (12,), (4,), 0.3, 0, 4),
    ("star", (8, 8), (3, 3), 0.5, 2, 4),
    ("star", (12,), (4,), 0.5, 1, 4),
]
# Pairs are most of the calls, so call_ms_p50 is a pair and the tail a closure.
PAIRS_PER_PASS = 100


def build_compress(seed: int, workdir: Path, mode: str, tiny: bool = False) -> list[Call]:
    rng = random.Random(seed)
    calls = []
    for kind, sizes, k, keep, center_size, count in CLOSURE_CLASSES:
        space = sorted(O.space_members(sizes, [k]))
        for _ in range(1 if tiny else count):
            if kind == "star":
                center = O.mask(off + rng.randint(1, size) for off, size in
                                zip(O.offsets(sizes)[:center_size], sizes))
                pool = [m for m in space if m & center == center]
            else:
                pool = space
            members = frozenset(rng.sample(pool, round(keep * len(pool))))
            calls.append(_closure_call(f"{kind} n={sizes} k={k} #{len(calls)}",
                                       sizes, members))
    for index in range(4 if tiny else PAIRS_PER_PASS):
        calls.append(_pair_call(index, random.Random(index), rng, multi=bool(index % 2)))
    rng.shuffle(calls)
    return calls


def _closure_call(label, sizes, members) -> Call:
    t = O.min_intersection(members)
    family = core.Family(core.GroundSet(sizes), members)

    def run():
        closed, steps = shifting.shift_closure(family)
        return (closed.members, steps, shifting.is_shifted(closed),
                verify.is_t_intersecting(closed, t))

    def check(out):
        closed, steps, shifted, intersecting = out
        O.expect(len(closed) == len(members), "closure changed the size")
        O.expect(shifted and O.is_shifted(closed, sizes), "closure is not shifted")
        O.expect(intersecting and O.is_t_intersecting(closed, t),
                 f"closure lost {t}-intersection")
        O.expect(0 <= steps <= O.weight(members) - O.weight(closed),
                 f"{steps} steps exceed the weight drop")
        O.expect((steps == 0) == (closed == members), "step count inconsistent")

    def digest(out):
        closed, *rest = out
        return (tuple(sorted(closed)), *rest)

    return Call(label, run, check, digest, GUARD_LIMIT_S)


def _random_member(rng, sizes, counts, center_parts) -> int:
    """A member meeting part i in counts[i] elements, holding the given
    per-part center elements."""
    m = 0
    for off, s, c, fixed in zip(O.offsets(sizes), sizes, counts, center_parts):
        rest = [e for e in range(1, s + 1) if e not in fixed]
        for e in list(fixed) + rng.sample(rest, c - len(fixed)):
            m |= 1 << (off + e - 1)
    return m


def _pair_call(index, shape_rng, rng, multi: bool) -> Call:
    """A cross-t-intersecting pair sharing a t-element core, as in
    criterion 5, with enough members that closure does real work.
    shape_rng, seeded by the index, fixes the part sizes and member
    profiles, so every seed has the same pair shapes; rng picks the core
    and the members."""
    t = shape_rng.randint(1, 2)
    if multi:
        p = shape_rng.randint(2, 3)
        sizes = tuple(shape_rng.randint(6, 10) for _ in range(p))
        ra = tuple(shape_rng.randint(1, (s - 1) // 2) for s in sizes)
        rb = tuple(shape_rng.randint(1, s - a) for s, a in zip(sizes, ra))
        core_parts = [[] for _ in range(p)]
        for _ in range(t):
            open_parts = [i for i in range(p) if len(core_parts[i]) < min(ra[i], rb[i])]
            if open_parts:
                i = shape_rng.choice(open_parts)
                core_parts[i].append(rng.choice(
                    [e for e in range(1, sizes[i] + 1) if e not in core_parts[i]]))
        counts_a, counts_b = ra, rb
    else:
        n = shape_rng.randint(8, 12)
        sizes = (n,)
        r = shape_rng.randint(t + 1, n // 2)
        s = shape_rng.randint(r, n - 2)
        core_parts = [sorted(rng.sample(range(1, n + 1), t))]
        counts_a, counts_b = (r,), (s,)
    t = sum(len(c) for c in core_parts)
    a = frozenset(_random_member(rng, sizes, counts_a, core_parts) for _ in range(12))
    b = frozenset(_random_member(rng, sizes, counts_b, core_parts) for _ in range(12))
    ground = core.GroundSet(sizes)
    fa, fb = core.Family(ground, a), core.Family(ground, b)

    def run():
        sa, sb = shifting.simultaneous_closure([fa, fb])
        if multi:
            holds = verify.check_partwise_prefix_intersection(sa, sb, t, counts_a, counts_b)
        else:
            holds = verify.check_prefix_intersection(sa, sb, t, counts_a[0], counts_b[0])
        return sa.members, sb.members, holds

    def check(out):
        sa, sb, holds = out
        O.expect(len(sa) == len(a) and len(sb) == len(b), "closure changed a size")
        O.expect(O.is_shifted(sa, sizes) and O.is_shifted(sb, sizes),
                 "simultaneous closure is not shifted")
        O.expect(O.are_cross_t_intersecting(sa, sb, t),
                 f"closure lost cross {t}-intersection")
        O.expect(holds, "prefix windows miss a cross pair")

    def digest(out):
        sa, sb, holds = out
        return tuple(sorted(sa)), tuple(sorted(sb)), holds

    kind = "partwise" if multi else "prefix"
    return Call(f"{kind} pair #{index} n={sizes} t={t}", run, check, digest, GUARD_LIMIT_S)


# ---------------------------------------------------------------------------
# cli

CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

BOUND_POOL = [((8, 10), (4, 4), 2), ((6, 7, 8), (2, 3, 2), 3), ((12,), (5,), 2), ((9, 9), (3, 4), 1)]
UNION_POOL = [((6, 6), ((2, 2), (3, 2))), ((7, 5), ((3, 2), (2, 2), (1, 3))), ((8, 8), ((2, 3), (3, 2)))]
RATIO_POOL = [((4, 4), (2, 2)), ((9, 7), (3, 2)), ((10, 11, 12), (2, 5, 3))]
SEARCH_POOL = [("block", (7,), (3,), 1), ("block", (8,), (3,), 1), ("block", (4, 4), (2, 2), 1),
               ("block", (3, 4), (1, 2), 1)]
QUOTA_POOL = [("quota", (4, 4), (3, (1, 1)), 1), ("quota", (4, 4, 4), (3, (1, 1, 0)), 1)]
SHIFTED_POOL = [("block", (6,), (3,), 1), ("block", (7,), (3,), 2), ("block", (4, 4), (2, 2), 1)]
SPACE_FILE_POOL = [((5, 5), (2, 2)), ((4, 5), (2, 2)), ((6, 5), (2, 1))]
KNESER_POOL = [((5, 2),), ((7, 3),), ((5, 2), (5, 2)), ((5, 2), (7, 3)), ((4, 2),), ((6, 2), (4, 2))]

# Subcommands with a known defect at the pinning commit: `verify
# star-shift` exits 2 on valid input.  Their refusals count as failed calls
# but leave the run correct; any other refusal makes it incorrect.
KNOWN_CLI_DEFECTS = ("verify star-shift",)


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str
    files: tuple          # (path, text) of every output file the call wrote


def family_text(sizes, members) -> str:
    lines = ["ground: " + ",".join(map(str, sizes))]
    lines += [",".join(map(str, O.bits(m))) for m in sorted(members)]
    return "\n".join(lines) + "\n"


def parse_family_text(text: str | None) -> tuple[tuple[int, ...], frozenset[int]]:
    O.expect(text is not None, "output file was not written")
    sizes, members = None, set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if sizes is None:
            O.expect(line.startswith("ground:"), "family file lacks its header")
            sizes = tuple(int(x) for x in line[len("ground:"):].split(","))
        else:
            members.add(O.mask(int(x) for x in line.split(",")))
    O.expect(sizes is not None, "family file lacks its header")
    return sizes, frozenset(members)


def run_subprocess(argv, workdir: Path, outputs) -> CliResult:
    proc = subprocess.run([sys.executable, "-m", "tstar.cli", *argv], capture_output=True,
                          text=True, cwd=workdir, env=CLI_ENV)
    return CliResult(proc.returncode, proc.stdout, proc.stderr, _read_outputs(outputs))


def run_inprocess(argv, outputs) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tstar.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue(), _read_outputs(outputs))


def _read_outputs(outputs) -> tuple:
    return tuple((str(p), Path(p).read_text() if Path(p).exists() else None)
                 for p in outputs)


def _cli_call(label, argv, workdir, mode, expected_code, check_json, outputs=(),
              expected_failure=False) -> Call:
    """expected_code: the exit code a correct program gives.  check_json
    gets the parsed report and the output files."""
    for p in outputs:
        Path(p).unlink(missing_ok=True)
    if mode == "timed":
        run = lambda: run_subprocess(argv, workdir, outputs)
    else:
        run = lambda: run_inprocess(argv, outputs)

    def check(res: CliResult):
        if res.code in (2, 3) and expected_code in (0, 1):
            raise Refused(f"exit {res.code}: {res.stderr.strip()}")
        O.expect(res.code == expected_code, f"exit {res.code}, expected {expected_code}")
        try:
            report = json.loads(res.stdout)
        except json.JSONDecodeError:
            raise O.Wrong(f"stdout is not one JSON report: {res.stdout[:80]!r}")
        check_json(report, dict(res.files))

    def digest(res: CliResult):
        return res.code, res.stdout, res.files

    return Call(label, run, check, digest, GUARD_LIMIT_S, expected_failure)


def _expect_fields(report, **fields):
    for key, value in fields.items():
        O.expect(report.get(key) == value, f"{key} is {report.get(key)!r}, expected {value!r}")


def _witness_check(path, sizes, profiles, t, answer, shifted=False, **fields):
    def check(report, files):
        _expect_fields(report, max_size=str(answer), **fields)
        _, witness = parse_family_text(files[path])
        members = O.space_members(sizes, profiles)
        O.check_witness(witness, members, t, answer, O.best_star(members, t))
        if shifted:
            O.expect(O.is_shifted(witness, sizes), "witness is not shifted")
    return check


CLI_ROUNDS = 4           # rounds of every subcommand per pass, each on new inputs


def build_cli(seed: int, workdir: Path, mode: str, tiny: bool = False) -> list[Call]:
    """Every subcommand once per round, on seeded small inputs; input files
    are written here, in set-up.  Four rounds give the 40 calls a pass
    needs for a p75 with ten calls beyond it."""
    import tstar.cli  # noqa: F401  (only this workload loads the CLI)

    rng = random.Random(seed)
    calls = []
    for r in range(1 if tiny else CLI_ROUNDS):
        calls += _cli_round(rng, workdir / f"round{r}", mode, f" #{r}")
    return calls[:4] if tiny else calls


def _cli_round(rng, workdir: Path, mode: str, suffix: str) -> list[Call]:
    workdir.mkdir(parents=True, exist_ok=True)
    calls = []
    arg = lambda v: ",".join(map(str, v))

    def add(label, argv, expected_code, check_json, outputs=()):
        calls.append(_cli_call(label + suffix, argv, workdir, mode, expected_code, check_json,
                               tuple(str(workdir / o) for o in outputs),
                               expected_failure=label in KNOWN_CLI_DEFECTS))

    # bound: block, union, ratio
    sizes, k, t = rng.choice(BOUND_POOL)
    top, values = O.block_star_table(sizes, k, t)
    dists = sorted(list(d) for d, v in values.items() if v == top)
    add("bound block", ["bound", "--n", arg(sizes), "--k", arg(k), "--t", str(t)], 0,
        lambda r, f: _expect_fields(r, value=str(top), optimal_distributions=dists))
    usizes, profiles = rng.choice(UNION_POOL)
    uvalue = O.union_star_value(usizes, profiles, 1)
    add("bound profiles", ["bound", "--n", arg(usizes), "--profiles",
                           ";".join(arg(r) for r in profiles), "--t", "1"], 0,
        lambda r, f: _expect_fields(r, value=str(uvalue)))
    rsizes, rk = rng.choice(RATIO_POOL)
    ratio, block, absolute = O.ratio_value(rsizes, rk)
    add("bound ratio", ["bound", "--n", arg(rsizes), "--k", arg(rk), "--ratio"], 0,
        lambda r, f: _expect_fields(r, value=str(absolute), space=str(block),
                                    ratio=f"{ratio.numerator}/{ratio.denominator}"))

    # search: block, quota, shifted
    kind, ssizes, sk, st = rng.choice(SEARCH_POOL)
    answer = space_answer(kind, ssizes, sk, st)
    add("search block", ["search", "--n", arg(ssizes), "--k", arg(sk), "--t", str(st),
                         "--witness-out", str(workdir / "witness_block.txt")], 0,
        _witness_check(str(workdir / "witness_block.txt"), ssizes, [sk], st, answer),
        ["witness_block.txt"])
    kind, qsizes, (qk, quotas), qt = rng.choice(QUOTA_POOL)
    qanswer = space_answer(kind, qsizes, (qk, quotas), qt)
    qprofiles = O.quota_profile_list(qsizes, qk, quotas)
    qstar = O.best_star(O.space_members(qsizes, qprofiles), 1)
    add("search quota", ["search", "--n", arg(qsizes), "--k", str(qk), "--quota", arg(quotas),
                         "--witness-out", str(workdir / "witness_quota.txt")], 0,
        _witness_check(str(workdir / "witness_quota.txt"), qsizes, qprofiles, 1, qanswer,
                       star_size=str(qstar)),
        ["witness_quota.txt"])
    kind, hsizes, hk, ht = rng.choice(SHIFTED_POOL)
    hanswer = space_answer(kind, hsizes, hk, ht)
    add("search shifted", ["search", "--n", arg(hsizes), "--k", arg(hk), "--t", str(ht),
                           "--shifted", "--witness-out", str(workdir / "witness_shifted.txt")], 0,
        _witness_check(str(workdir / "witness_shifted.txt"), hsizes, [hk], ht, hanswer,
                       shifted=True),
        ["witness_shifted.txt"])

    # enumerate --out: a block, a profile union or a quota space
    esizes, ek = rng.choice(SPACE_FILE_POOL)
    which = rng.randrange(3)
    if which == 0:
        eargs, eprofiles = ["--k", arg(ek)], [ek]
    elif which == 1:
        alt = tuple(max(1, x - 1) for x in ek)
        eargs, eprofiles = ["--profiles", f"{arg(ek)};{arg(alt)}"], sorted({ek, alt})
    else:
        quotas = (1,) * len(esizes)
        eargs = ["--k", str(sum(ek)), "--quota", arg(quotas)]
        eprofiles = O.quota_profile_list(esizes, sum(ek), quotas)
    emembers = O.space_members(esizes, eprofiles)
    epath = str(workdir / "enumerated.txt")

    def check_enumerated(r, f):
        _expect_fields(r, size=str(len(emembers)), out=epath)
        O.expect(parse_family_text(f[epath]) == (esizes, emembers),
                 "enumerated file differs from the space")
    add("enumerate", ["enumerate", "--n", arg(esizes), *eargs, "--out", epath], 0,
        check_enumerated, ["enumerated.txt"])

    # input files: a space, a star in it, a random subfamily, a second family
    fsizes, fk = rng.choice(SPACE_FILE_POOL)
    space = sorted(O.space_members(fsizes, [fk]))
    star_center = O.mask([1])
    star = O.star_center_members(space, star_center)
    sample = frozenset(m for m in space if rng.random() < 0.3)
    other = frozenset(m for m in space if rng.random() < 0.3)
    tvalue = rng.randint(1, 2)
    files = {"space.txt": space, "star.txt": star, "sample.txt": sample, "other.txt": other}
    for name, members in files.items():
        (workdir / name).write_text(family_text(fsizes, members), encoding="ascii")
    path = {name: str(workdir / name) for name in files}

    spath = str(workdir / "shifted.txt")

    def check_shifted(r, f):
        _expect_fields(r, size=str(len(sample)), out=spath)
        _, closed = parse_family_text(f[spath])
        O.expect(len(closed) == len(sample) and O.is_shifted(closed, fsizes),
                 "shifted file is not a shifted family of the same size")
    add("shift all", ["shift", path["sample.txt"], "--all", "--out", spath], 0,
        check_shifted, ["shifted.txt"])

    holds = O.is_t_intersecting(sample, tvalue)
    add("verify t-intersecting", ["verify", "t-intersecting", path["sample.txt"],
                                  "--t", str(tvalue)], 0 if holds else 1,
        lambda r, f: _expect_fields(r, holds=holds))
    cross = O.are_cross_t_intersecting(star, other, 1)
    add("verify cross", ["verify", "cross", path["star.txt"], path["other.txt"], "--t", "1"],
        0 if cross else 1, lambda r, f: _expect_fields(r, holds=cross))

    def check_star(r, f):
        _expect_fields(r, holds=True)
        center = O.mask(r["center"])
        O.expect(center.bit_count() == 1 and O.star_center_members(space, center) == star,
                 f"center {r['center']} does not give the star")
    add("verify star", ["verify", "star", path["star.txt"], "--space", path["space.txt"],
                        "--t", "1"], 0, check_star)
    # Compressing 2 into 1 maps the star at {1} to itself, so the
    # star-preservation implication holds.
    add("verify star-shift", ["verify", "star-shift", path["star.txt"], "--space",
                              path["space.txt"], "--t", "1", "--i", "1", "--j", "2"], 0,
        lambda r, f: _expect_fields(r, holds=True))

    pairs = rng.choice(KNESER_POOL)
    connected = O.kneser_connected(pairs)
    vertex_count = prod(comb(g, h) for g, h in pairs)
    add("kneser", ["kneser", "--params", ",".join(f"{g}:{h}" for g, h in pairs)], 0,
        lambda r, f: _expect_fields(r, connected=connected, vertices=str(vertex_count)))
    return calls


BUILDERS = {
    "solve_space": build_solve_space,
    "solve_subfamily": build_solve_subfamily,
    "closed_form": build_closed_form,
    "compress": build_compress,
    "cli": build_cli,
}
