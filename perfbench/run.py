#!/usr/bin/env python3
"""Benchmark of tstar: one workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and their units are read from BENCHMARK.json at the
root of the repository.

A run builds the workload's calls from the seed, then repeats that fixed
set of calls (a pass) while the next pass is predicted to end within
--seconds, at least once.  A call that timed out is run only once per
run; later passes count its first outcome again (measure.run_pass).  One
client makes one call at a time (a closed loop).  Every output is checked
against an independent answer outside the timed region; see oracles.py
and pinned.json.

Call times are scaled by the machine's speed, measured between calls with
a fixed reference kernel (measure.Speed), because the speed of a shared
machine drifts more between runs than the bounds allow.  The run record
gives the unscaled values and the kernel's times beside them.

--trace 0 prints the end-to-end metrics:
  setup_s        median wall time of fresh interpreters that import tstar
                 and build the workload's inputs, then exit
  wall_s         median over passes of the summed call times of one pass
  call_ms_p50    median call time; a call is one instance or one subprocess
  call_ms_tail   the highest percentile of the ladder in measure.py that
                 leaves at least ten calls of one pass beyond it
  peak_rss_mib   peak resident memory of this process, or of the tstar
                 subprocesses for the cli workload
failed_frac (failed over attempted calls) is printed with them and is the
ratio of the result's "failed" and "attempted".  "correct" is false when
an output was wrong or differed between passes (measure.Checker), when a
call raised, or when a call timed out or was refused that is not one of
the expected failures listed in workloads.py (measure.Outcome.incorrect).

--trace 1 alternates untraced and traced passes (spans.py) and prints the
per-layer metrics, medians over the traced passes, with the tracing
overhead.  The cli workload is traced in-process through tstar.cli.main.

The last line of standard output is the JSON result; the lines before it
give every metric by name and unit and a JSON run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

from measure import Checker, Speed, Tally, pass_wall_s, run_pass, tail  # noqa: E402

SETUP_REPEATS = 7
SUBPROCESS_REPEATS = 3
CHILD_TIMEOUT_S = 60


def load_workloads():
    """Import tstar from this checkout's src/ and then the workloads."""
    sys.path.insert(0, str(SRC))
    import tstar
    if Path(tstar.__file__).resolve().parent != (SRC / "tstar").resolve():
        raise SystemExit(f"error: imported tstar from {tstar.__file__}, not from {SRC}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# passes

def measure_passes(run_one, seconds: float) -> None:
    """Call run_one() while the next call, if it takes as long as the
    last one, ends in time."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        run_one()
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            return


def subprocess_ms(argv, env=None) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    ms = (time.perf_counter() - start) * 1000.0
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    return ms, proc.stderr


def setup_samples(workload: str, seed: int, speed: Speed) -> tuple[list, list]:
    """Wall times of fresh interpreters that only set the workload up:
    (scaled by the machine's speed like call times, as measured)."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        factor = speed.factor()
        raw.append(subprocess_ms(argv)[0] / 1000.0)
        scaled.append(raw[-1] * factor)
    return scaled, raw


# ---------------------------------------------------------------------------
# timed run

def timed_run(W, workload, seed, seconds, workdir) -> tuple[dict, Tally, dict]:
    calls = W.BUILDERS[workload](seed, workdir, "timed")
    checker, tally, speed = Checker(), Tally(), Speed()
    measure_passes(lambda: tally.add(run_pass(calls, checker, speed)), seconds)
    if workload == "cli":
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup, raw_setup = setup_samples(workload, seed, speed)

    tail_ms, q = tail(tally.samples, len(calls))
    metrics = {
        "setup_s": median(setup),
        "wall_s": median(tally.walls),
        "call_ms_p50": median(tally.samples),
        "call_ms_tail": tail_ms,
        "peak_rss_mib": peak_kib / 1024.0,
    }
    # Calls that ran out of time take their whole limit: the split shows
    # how much of wall_s is the time limit rather than tstar's work.
    record = {"passes": len(tally.walls), "calls_per_pass": len(calls), "tail_percentile": q,
              "samples": {"call_ms": len(tally.samples), "setup_s": len(setup),
                          "wall_s": len(tally.walls)},
              "pass_s": {"timed_out": median(tally.timed_out),
                         "completed": median(w - t for w, t in
                                             zip(tally.walls, tally.timed_out))},
              "unscaled": {"setup_s": median(raw_setup), "wall_s": median(tally.raw_walls),
                           "call_ms_p50": median(tally.raw_samples),
                           "call_ms_tail": tail(tally.raw_samples, len(calls))[0]},
              "reference_kernel_ms": {"median": median(speed.kernel_ms),
                                      "min": min(speed.kernel_ms), "max": max(speed.kernel_ms),
                                      "samples": len(speed.kernel_ms)}}
    return metrics, tally, record


# ---------------------------------------------------------------------------
# traced run

def _import_metrics() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare = [subprocess_ms([sys.executable, "-c", "pass"])[0]
            for _ in range(SUBPROCESS_REPEATS)]
    cli_ms, nx_ms = [], []
    for _ in range(SUBPROCESS_REPEATS):
        _, stderr = subprocess_ms([sys.executable, "-X", "importtime", "-c",
                                   "import tstar.cli"], env)
        cumulative = {}
        for line in stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum) / 1000.0)
        cli_ms.append(cumulative.get("tstar.cli", 0.0))
        nx_ms.append(cumulative.get("networkx", 0.0))
    return {"cli.interpreter_ms": median(bare), "cli.import_ms": median(cli_ms),
            "cli.import_networkx_ms": median(nx_ms)}


def layer_metrics(tracer, outcomes) -> dict:
    self_ns, calls, counts = tracer.self_ns(), tracer.calls(), tracer.counts

    def ms(group):
        return self_ns.get(group, 0) / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    search_s = ms("search.max_t_intersecting") / 1000.0
    root_ns = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    out = {name: ms(name[:-len(".self_ms")]) for name in PER_LAYER
           if name.endswith(".self_ms")}
    out.update({
        "search.nodes": counts.get("search.nodes", 0),
        "search.nodes_per_s": ratio(counts.get("search.nodes", 0), search_s),
        "search.seed_optimal_frac": ratio(counts.get("search.seed_optimal", 0),
                                          counts.get("search.closed", 0)),
        "search.timeouts": sum(o.status == "timeout" for o in outcomes),
        "core.enumerate.members": counts.get("core.enumerate.members", 0),
        "verify.is_full_t_star.calls": calls.get("verify.is_full_t_star", 0),
        "bounds.exchange_optimal.calls": calls.get("bounds.exchange_optimal", 0),
        "shifting.compress_family.calls": calls.get("shifting.compress_family", 0),
        "shifting.steps": counts.get("shifting.steps", 0),
        "shifting.productive_frac": ratio(counts.get("shifting.steps", 0),
                                          calls.get("shifting.compress_family", 0)),
        "trace.unattributed_ms": (sum(o.raw_ms for o in outcomes if not o.reused)
                                  - root_ns / 1e6),
    })
    return out


def traced_run(W, workload, seed, seconds, workdir) -> tuple[dict, Tally, dict]:
    from spans import Tracer

    reference_calls = W.BUILDERS[workload](seed, workdir, "timed")
    calls = (W.BUILDERS[workload](seed, workdir, "inprocess")
             if workload == "cli" else reference_calls)
    checker, tally, speed = Checker(), Tally(), Speed()
    reference = pass_wall_s(tally.add(run_pass(reference_calls, checker, speed)))
    untraced = [] if workload == "cli" else [reference]
    traced, layers = [], []
    tracer = Tracer()

    def one_round():
        untraced.append(pass_wall_s(tally.add(run_pass(calls, checker, speed))))
        tracer.reset()
        tracer.install()
        try:
            outcomes = tally.add(run_pass(calls, checker, speed))
        finally:
            tracer.uninstall()
        traced.append(pass_wall_s(outcomes))
        layers.append(layer_metrics(tracer, outcomes))

    measure_passes(one_round, seconds)
    metrics = {name: median([layer[name] for layer in layers]) for name in layers[0]}
    metrics.update(_import_metrics())
    metrics["trace.wall_s"] = median(traced)
    metrics["trace.untraced_wall_s"] = median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    record = {"passes": {"reference": 1, "untraced": len(untraced), "traced": len(traced)},
              "calls_per_pass": len(calls)}
    return metrics, tally, record


# ---------------------------------------------------------------------------
# report

def run_record(args, tally: Tally, extra) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "tstar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "attempted": tally.attempted, "failed": tally.failed,
            "failed_frac": tally.failed / tally.attempted, "incorrect": len(tally.incorrect),
            "failures": dict(tally.failures), **extra}


def main(argv=None) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit (times setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / "tstar" / "__init__.py").is_file():
        print(f"error: no tstar sources at {SRC / 'tstar'}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        W = load_workloads()
        if args.setup_only:
            W.BUILDERS[args.workload](args.seed, workdir, "timed")
            return 0
        runner = traced_run if args.trace else timed_run
        metrics, tally, extra = runner(W, args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    record = run_record(args, tally, extra)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<46} {metrics[name]:>16.6f} {unit}")
    print(f"  {'failed_frac':<46} {record['failed_frac']:>16.6f} ratio"
          f"  ({record['failed']} of {record['attempted']} calls)")
    for line in list(record["failures"])[:10]:
        print(f"  failure {line}")
    for line in tally.incorrect[:5]:
        print(f"  INCORRECT {line}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not tally.incorrect,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
