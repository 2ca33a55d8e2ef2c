"""Per-operation time budget, enforced in-process by an interval timer.

No thread or process is started: ITIMER_REAL delivers SIGALRM to this
process, and the handler raises OverBudget out of whatever the operation
was doing. An overrun is therefore bounded by the budget plus the longest
single C-level step (one big-integer product), and never hangs the run.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass


class OverBudget(Exception):
    """The operation ran past its budget and was interrupted."""


@dataclass
class Attempt:
    status: str  # "ok", "over_budget" or "error"
    seconds: float
    result: object = None
    error: str = ""


def _expire(signum, frame):
    raise OverBudget()


def attempt(fn, budget_s: float, clock=time.perf_counter) -> Attempt:
    """Run fn() under the budget and time it."""
    previous = signal.signal(signal.SIGALRM, _expire)
    start = clock()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return Attempt("ok", clock() - start, result)
    except OverBudget:
        return Attempt("over_budget", clock() - start)
    except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op, recorded
        return Attempt("error", clock() - start, error=f"{type(exc).__name__}: {exc}")
    finally:
        signal.signal(signal.SIGALRM, previous)
