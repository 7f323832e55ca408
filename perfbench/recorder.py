"""Timing, judging and tracing of the calls a workload makes into the program."""

from __future__ import annotations

import signal
import time
from collections import defaultdict


class _Error:
    def __repr__(self):
        return "ERROR"


# what Recorder.call returns when the call raised or ran past its time limit
ERROR = _Error()


class TimeLimit(Exception):
    pass


def _on_alarm(signum, frame):
    raise TimeLimit


class Recorder:
    """Times every call, counts judged operations, and in a traced phase
    adds each call's time to its span.

    A span is named ``<layer>.<function>``.  Tallies are kept apart for the
    set-up phase and for rounds, so the per-layer figures can be given per
    set-up and per round.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.errors = []
        self.in_round = False
        self.tracing = False
        self.wall = 0.0
        self.seconds = {"setup": defaultdict(float), "round": defaultdict(float)}
        self.calls = {"setup": defaultdict(int), "round": defaultdict(int)}
        self.counts = {"setup": defaultdict(int), "round": defaultdict(int)}
        self.longest = defaultdict(float)

    def _phase(self):
        return "round" if self.in_round else "setup"

    def add(self, span, elapsed):
        phase = self._phase()
        self.seconds[phase][span] += elapsed
        self.calls[phase][span] += 1
        self.longest[span] = max(self.longest[span], elapsed)

    def count(self, name, amount):
        if self.tracing:
            self.counts[self._phase()][name] += amount

    def call(self, span, fn, *args, limit_s=None, **kwargs):
        """fn(*args, **kwargs), timed; ERROR if it raised or took longer
        than limit_s seconds."""
        if limit_s is not None:
            signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        try:
            try:
                if limit_s is not None:
                    signal.setitimer(signal.ITIMER_REAL, limit_s)
                out = fn(*args, **kwargs)
            finally:
                if limit_s is not None:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except TimeLimit:
            out = ERROR
        except Exception as exc:  # a failing call is judged, not fatal
            out = ERROR
            self.errors.append(f"{span}: {exc!r}")
        elapsed = time.perf_counter() - start
        if self.in_round:
            self.wall += elapsed
        if self.tracing:
            self.add(span, elapsed)
        return out

    def wrap(self, span, fn):
        """fn with every call added to span; for calls the program makes
        itself, such as the linear counts inside distinguish."""
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(span, time.perf_counter() - start)
        return traced

    def judge(self, ok, expected_failure=False):
        """Count one operation of a round, and whether its check passed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not expected_failure:
                self.unexpected += 1
