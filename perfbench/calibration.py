"""Times at a reference machine speed.

The machine's speed drifts by 20-30% within seconds and between runs: other
tenants share its cores, and CPU time drifts as much as wall time.  The
benchmark therefore interleaves a fixed calibration chunk with the work it
times and divides every time by the slowdown those chunks show, the mean
chunk time against CALIBRATION_S.  Times read as seconds on a machine where
the chunk takes CALIBRATION_S; raw times are kept in the result files.

Inside the worker a ``Sampler`` runs one chunk every INTERVAL_S on SIGALRM,
in the measuring thread itself, so that a call is calibrated by chunks that
ran while it ran; their time is subtracted from the call's.  On a 2-core
shared x86_64 Linux VM (Python 3.11) that cut the coefficient of variation of one repeated ``normalize`` from 0.23
(raw) to 0.07 per call, and from 0.14 to 0.03 over stretches of 25 calls;
chunks run after each call instead reached 0.20 and 0.04.  The chunk is small
Fractions summed into a dict, like the engine's hot path; an integer loop
tracked the engine about half as well.  The mean, not the median, is used
because chunk times are bimodal (the core is shared or it is not) and the
timed work pays for the share of time spent in the slow mode.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

CALIBRATION_S = 250e-6     # reference time of one chunk
INTERVAL_S = 0.005         # one chunk per 5 ms: about 5% of the run
RECENT = 20                # chunks that calibrate a call shorter than 20 intervals
POST_SHARE = 0.05          # chunks after a child process, as a share of its time


def calibration_chunk():
    acc = {}
    for i in range(1, 40):
        k = (i % 5, i % 3)
        acc[k] = acc.get(k, 0) + Fraction(i, i + 1) * Fraction(2, 3)
    return acc


def _chunk_seconds():
    t0 = perf_counter()
    calibration_chunk()
    return perf_counter() - t0


def slowdown_after(seconds):
    """Slowdown measured right after a call that took ``seconds``, by chunks
    worth POST_SHARE of its time and at least RECENT of them.  For calls that
    cannot be interleaved, such as a child process timed from outside."""
    n = max(RECENT, round(POST_SHARE * seconds / CALIBRATION_S))
    return sum(_chunk_seconds() for _ in range(n)) / n / CALIBRATION_S


class Sampler:
    """Runs a chunk every INTERVAL_S while active; converts intervals of the
    main flow into reference seconds net of the chunks that ran inside."""

    def __init__(self):
        self.starts, self.times = [], []      # chunks, in time order
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        calibration_chunk()
        self.starts.append(t0)
        self.times.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(None, None)           # the first call has a neighbour
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_seconds(self, t0, t1):
        """(t1 - t0 net of chunks, divided by the slowdown; the slowdown).

        The slowdown is the mean of the chunks that ran inside the interval,
        or of the last RECENT chunks before t1 when fewer ran.  A handler runs
        to its end before the main flow resumes, so a chunk that started
        inside the interval also ended inside it."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_left(self.starts, t1)
        inside = self.times[lo:hi]
        recent = self.times[max(0, hi - max(RECENT, hi - lo)):hi]
        slow = sum(recent) / len(recent) / CALIBRATION_S
        return (t1 - t0 - sum(inside)) / slow, slow
