"""Calls, the per-call time limit, and the statistics the benchmark reports."""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

from oracles import Wrong

# On a shared 2-vCPU virtual machine the CPU speed drifted by up to 1.7x
# over tens of seconds, so a run's raw times said more about the machine
# than about tstar.  Every call's time is therefore scaled to a machine on
# which reference_kernel takes REFERENCE_MS, using the kernel's time
# measured between calls at most REFERENCE_EVERY_S before the call.
REFERENCE_MS = 1.5
REFERENCE_EVERY_S = 0.25
_KEYS = tuple(range(0, 3000, 7))

# Percentiles call_ms_tail may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


class CallTimeout(BaseException):
    """Raised by the interval timer inside a call that ran out of time.

    A BaseException, so no `except Exception` in the library can swallow it.
    """


def _on_alarm(signum, frame):
    raise CallTimeout


def reference_kernel() -> int:
    """Fixed pure-Python work of the kinds tstar does: sets of small ints,
    dicts and integer arithmetic.  It shares no code with tstar."""
    acc = 0
    families = []
    for r in range(6):
        members = frozenset(k ^ (r << 3) for k in _KEYS)
        families.append(members)
        table = {k: k & r for k in _KEYS[:200]}
        acc += sum(1 for k in _KEYS if k in members) + len(table)
    acc += len(families[0] & families[1]) + len(families[2] | families[3])
    for i in range(8000):
        acc += (i * 2654435761) & 0xFF
    return acc


@dataclass
class Speed:
    """The machine's speed, from the median of three timings of
    reference_kernel, taken again when REFERENCE_EVERY_S have passed."""

    kernel_ms: list = field(default_factory=list)
    taken_at: float = -math.inf

    def factor(self) -> float:
        """What a call's measured time is multiplied by."""
        if time.perf_counter() - self.taken_at >= REFERENCE_EVERY_S:
            times = []
            for _ in range(3):
                start = time.perf_counter()
                reference_kernel()
                times.append(time.perf_counter() - start)
            self.kernel_ms.append(statistics.median(times) * 1000.0)
            self.taken_at = time.perf_counter()
        return REFERENCE_MS / self.kernel_ms[-1]


@dataclass
class Call:
    """One timed unit of work: an instance or one subprocess.

    `run` is the timed part.  `check` runs outside the timed region and
    raises oracles.Wrong on a wrong output, or Refused when the program
    declined to answer.  `digest` reduces an output to a comparable value,
    so repeated passes and the traced run can be held equal.
    `expected_failure` marks a call that may time out or refuse at the
    pinning commit (a frontier instance or a known defect): it still
    counts as failed, but does not make the run incorrect.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object], object]
    limit_s: float
    expected_failure: bool = False


class Refused(Exception):
    """The program declined to answer, as with an error exit code."""


@dataclass
class Outcome:
    label: str
    ms: float            # scaled by Speed.factor, except for a timeout
    status: str          # "ok", "timeout", "raised", "refused" or "wrong"
    detail: str = ""
    expected_failure: bool = False
    reused: bool = False     # a timeout carried over from an earlier pass, not run again
    raw_ms: float = 0.0      # as measured

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    @property
    def incorrect(self) -> bool:
        """A wrong output or an exception always makes the run incorrect;
        a timeout or a refusal does unless the call expects it."""
        if self.status in ("wrong", "raised"):
            return True
        return self.failed and not self.expected_failure


def execute(call: Call) -> tuple[float, str, object]:
    """Time one call under its limit; returns (ms, status, output)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, call.limit_s)
        start = time.perf_counter()
        try:
            output = call.run()
            # Cancel the timer before anything else, so an alarm cannot
            # turn a finished call into a timeout.
            signal.setitimer(signal.ITIMER_REAL, 0)
            ms = (time.perf_counter() - start) * 1000.0
            return ms, "ok", output
        except CallTimeout:
            ms = (time.perf_counter() - start) * 1000.0
            return ms, "timeout", None
        except Exception as exc:
            ms = (time.perf_counter() - start) * 1000.0
            signal.setitimer(signal.ITIMER_REAL, 0)
            return ms, "raised", exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Checker:
    """Checks a call's first output; every later output of the same call
    (a repeated pass, or the traced run) must have the same digest and
    inherits the verdict, otherwise it counts as wrong.  Keeps the outcome
    of every call that timed out."""

    first: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    timed_out: dict = field(default_factory=dict)

    def judge(self, call: Call, ms: float, status: str, output) -> Outcome:
        outcome = self._judge(call, ms, status, output)
        outcome.expected_failure = call.expected_failure
        if status == "timeout":
            self.timed_out[call.label] = outcome
        return outcome

    def _judge(self, call: Call, ms: float, status: str, output) -> Outcome:
        if status == "timeout":
            return Outcome(call.label, ms, "timeout")
        if status == "raised":
            return Outcome(call.label, ms, "raised", f"{type(output).__name__}: {output}")
        digest = call.digest(output)
        if self.first.setdefault(call.label, digest) != digest:
            return Outcome(call.label, ms, "wrong", "output differs from an earlier pass")
        if call.label not in self.verdicts:
            try:
                call.check(output)
                self.verdicts[call.label] = ("ok", "")
            except Wrong as exc:
                self.verdicts[call.label] = ("wrong", str(exc))
            except Refused as exc:
                self.verdicts[call.label] = ("refused", str(exc))
            except Exception as exc:  # an output malformed enough to break its check
                self.verdicts[call.label] = ("wrong", f"{type(exc).__name__}: {exc}")
        return Outcome(call.label, ms, *self.verdicts[call.label])


def run_pass(calls: list[Call], checker: Checker, speed: Speed) -> list[Outcome]:
    """Runs each call once, except one that timed out in an earlier pass:
    the calls are deterministic, so it would run out of time again, and
    its earlier outcome (failed, its time the limit) stands in for it.
    The time a run measures then goes to calls that finish.

    A timeout's time is its limit, which does not depend on the machine's
    speed, so it is not scaled."""
    outcomes = []
    for call in calls:
        if call.label in checker.timed_out:
            outcomes.append(replace(checker.timed_out[call.label], reused=True))
            continue
        factor = speed.factor()
        ms, status, output = execute(call)
        outcome = checker.judge(call, ms, status, output)
        outcome.raw_ms = ms
        if status != "timeout":
            outcome.ms = ms * factor
        outcomes.append(outcome)
    return outcomes


# ---------------------------------------------------------------------------
# statistics

def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile on the ladder that leaves at least ten of
    n samples beyond it; the median when n is too small for any.

    The benchmark passes the number of calls in one pass, so the
    percentile does not move with the number of passes a run makes."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        # samples beyond the q-th percentile: n * (100 - q) / 100
        if n * (100.0 - q) >= TAIL_BEYOND * 100.0 - 1e-9:
            best = q
    return best


def tail(samples, calls_per_pass: int) -> tuple[float, float]:
    """(value, percentile) for call_ms_tail."""
    q = tail_percentile(calls_per_pass)
    return percentile(samples, q), q


def failed_fraction(outcomes) -> tuple[int, int, float]:
    """(attempted, failed, failed / attempted); any status but "ok" fails."""
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.failed)
    return attempted, failed, (failed / attempted if attempted else 0.0)


@dataclass
class Tally:
    """What a run keeps of its passes: call times, pass times, the part of
    each pass spent in calls that timed out, and failure counts.  Outcomes
    are dropped, so memory does not grow with passes.  The run is correct
    while `incorrect` is empty."""

    samples: array = field(default_factory=lambda: array("d"))
    raw_samples: array = field(default_factory=lambda: array("d"))
    walls: list = field(default_factory=list)
    raw_walls: list = field(default_factory=list)
    timed_out: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    incorrect: list = field(default_factory=list)

    def add(self, outcomes: list[Outcome]) -> list[Outcome]:
        self.samples.extend(o.ms for o in outcomes)
        self.raw_samples.extend(o.raw_ms for o in outcomes)
        self.walls.append(pass_wall_s(outcomes))
        self.raw_walls.append(sum(o.raw_ms for o in outcomes) / 1000.0)
        self.timed_out.append(pass_wall_s(o for o in outcomes if o.status == "timeout"))
        attempted, failed, _ = failed_fraction(outcomes)
        self.attempted += attempted
        self.failed += failed
        for o in outcomes:
            if o.failed:
                self.failures[f"{o.status}: {o.label} {o.detail}".strip()[:200]] += 1
            if o.incorrect:
                self.incorrect.append(f"{o.status}: {o.label} {o.detail}".strip())
        return outcomes


def pass_wall_s(outcomes) -> float:
    """Summed call times of one pass."""
    return sum(o.ms for o in outcomes) / 1000.0
