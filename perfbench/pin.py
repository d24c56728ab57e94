"""Regenerate perfbench/pinned.json, the expected answers of the solve
workloads.

    python3 perfbench/pin.py

Sources, recorded per answer:
  ak1997           Ahlswede-Khachatrian closed form (single-part blocks)
  brute_force_max  tstar.search.brute_force_max, for at most 60 members
                   when it finishes within BRUTE_FORCE_LIMIT_S
  seed_solver      tstar.search.max_t_intersecting at the pinning commit
  unknown          not closed within PIN_LIMIT_S; only witness checks apply

Run it only at a commit whose solver is trusted: the pinned answers are
what later solver changes are held to.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402
from measure import Call, execute  # noqa: E402
from tstar import core, search  # noqa: E402

PIN_LIMIT_S = 60.0
BRUTE_FORCE_MAX_MEMBERS = 60
BRUTE_FORCE_LIMIT_S = 1.0


def _maximum(fn, limit_s):
    call = Call("pin", fn, lambda out: None, lambda out: None, limit_s)
    ms, status, out = execute(call)
    if status == "raised":
        raise out
    return ms, (out.max_size if status == "ok" else None)


def pin_family(members, sizes, t) -> tuple[int | None, str, float]:
    """Brute force where it finishes (at most 60 members and a few
    seconds; dense intersection graphs have too many maximal cliques),
    else the solver."""
    family = core.Family(core.GroundSet(sizes), frozenset(members))
    ms, solved = _maximum(lambda: search.max_t_intersecting(family, t), PIN_LIMIT_S)
    if len(members) <= BRUTE_FORCE_MAX_MEMBERS:
        _, brute = _maximum(lambda: search.brute_force_max(family, t), BRUTE_FORCE_LIMIT_S)
        if brute is not None:
            if solved is not None and solved != brute:
                raise SystemExit(f"solver {solved} != brute force {brute} on {sorted(members)}")
            return brute, "brute_force_max", ms
    if solved is None:
        return None, "unknown", ms
    return solved, "seed_solver", ms


def pin_spaces() -> dict:
    instances = (W.SPACE_POOL + W.FRONTIER + W.SEARCH_POOL + W.QUOTA_POOL
                 + W.SHIFTED_POOL)
    out = {}
    for kind, sizes, spec, t in dict.fromkeys(instances):
        key = W.instance_key(kind, sizes, spec, t)
        if kind == "block" and len(sizes) == 1:
            out[key] = {"max": O.ak_maximum(sizes[0], spec[0], t), "source": "ak1997"}
        else:
            members = O.space_members(sizes, W.space_profiles(kind, sizes, spec))
            value, source, ms = pin_family(members, sizes, t)
            out[key] = {"max": value, "source": source}
            print(f"{key}: {value} ({source}, {ms:.0f} ms)", flush=True)
    return out


def pin_subfamilies() -> dict:
    out = {}
    for ci, (name, sizes, k, t, keep) in enumerate(W.SUB_CLASSES):
        answers, slowest = [], 0.0
        for index in range(W.SUB_POOL):
            value, source, ms = pin_family(W.subfamily_members(ci, index), sizes, t)
            answers.append([value, source])
            slowest = max(slowest, ms)
        print(f"class {name}: slowest {slowest:.0f} ms", flush=True)
        out[name] = answers
    return out


def main() -> int:
    start = time.perf_counter()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                            capture_output=True, text=True).stdout.strip()
    data = {"pinned_at": commit or "unknown",
            "solve_space": pin_spaces(),
            "solve_subfamily": pin_subfamilies()}
    with open(HERE / "pinned.json", "w", encoding="ascii") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"pinned in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
