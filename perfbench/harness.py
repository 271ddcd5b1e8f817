"""Run bookkeeping shared by the workloads: timing, tracing, checks, digests.

A run is a closed loop with one client. Each loop iteration is a
*request*; a request is made of one or more timed *ops*. Only the library
calls inside an op are timed; the benchmark's own output checks run
between ops, untimed. In a traced run every other request is traced, so
one process yields both traced and untraced wall times and the gap between
them is the tracing overhead. All times are wall times.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

from tracer import Tracer

SETUP_REPEATS = 5
SETUP_REQUEST = -1


class CheckFailed(Exception):
    """An op's output disagreed with the benchmark's own expectation."""


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def derive_seed(*parts: int) -> int:
    """A 63-bit seed that depends only on the given integers."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); q=50 is the median."""
    if len(values) == 1:
        return values[0]
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def supported_percentile(n: int, wanted: int) -> int:
    """Highest of ``wanted``, 75 and 50 that leaves at least ten samples above it
    (50 when none does)."""
    for q in (wanted, 75, 50):
        if q <= wanted and n * (100 - q) / 100 >= 10:
            return q
    return 50


@dataclass
class Run:
    """Everything one benchmark process measures and checks."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    # The first ``min_requests`` requests always run (twice as many when
    # tracing), and the run's output digest covers exactly them.
    min_requests: int = 1
    tracer: Tracer = field(default_factory=Tracer)
    op_times: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    request_times: dict[str, list[tuple[float, bool]]] = field(default_factory=lambda: defaultdict(list))
    setup_times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: list[str] = field(default_factory=list)
    patch_bytes_written: int = 0  # by valid patches in traced requests
    traced_requests: set[int] = field(default_factory=set)
    traced_op_walls: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    deadline: float = float("inf")
    _build: Callable[[], Any] | None = None
    _loop_start: float = 0.0
    _request: int = SETUP_REQUEST
    _request_wall: float = 0.0

    # -- set-up -----------------------------------------------------------------

    def setup(self, build: Callable[[], Any]) -> Any:
        """Run the program's set-up work ``build`` once, timed (traced when
        tracing), and return its result; inputs are made before, untimed.
        The measured loop's clock starts when it ends. ``more`` runs it
        again between requests, spread over the run, until it has run
        SETUP_REPEATS times: the host's speed drifts over tens of seconds,
        so back-to-back set-ups would all see one speed."""
        self._build = build
        result, _wall = self._timed_setup()
        self._loop_start = time.perf_counter()
        self.deadline = self._loop_start + self.seconds
        return result

    def _timed_setup(self) -> tuple[Any, float]:
        self._request = self.tracer.request = SETUP_REQUEST
        start = time.perf_counter()
        if self.trace:
            with self.tracer.installed(), self.tracer.span("setup"):
                result = self._build()
        else:
            result = self._build()
        wall = time.perf_counter() - start
        self.setup_times.append(wall)
        return result, wall

    # -- requests and ops -----------------------------------------------------------

    def more(self, done: int) -> bool:
        """Whether to start another request: until the deadline, and at least
        ``min_requests`` requests (twice that when tracing, so that both
        traced and untraced requests exist). A repeated set-up that falls due
        runs first, and the deadline moves back by its time."""
        due = self._loop_start + len(self.setup_times) * self.seconds / SETUP_REPEATS
        if len(self.setup_times) < SETUP_REPEATS and time.perf_counter() >= due:
            self.deadline += self._timed_setup()[1]
        minimum = self.min_requests * (2 if self.trace else 1)
        return done < minimum or time.perf_counter() < self.deadline

    @contextmanager
    def request(self, index: int, kind: str):
        """One closed-loop request; odd requests are traced in a traced run."""
        self._request = index
        self._request_wall = 0.0
        traced = self.trace and index % 2 == 1
        if traced:
            self.traced_requests.add(index)
        yield
        self.request_times[kind].append((self._request_wall, traced))

    @property
    def traced_now(self) -> bool:
        return self._request in self.traced_requests

    @contextmanager
    def op(self, kind: str):
        """Time one library call sequence and count it as attempted; in
        set-up it only runs the body, since set-up is timed as a whole."""
        if self._request == SETUP_REQUEST:
            yield
            return
        self.attempted += 1
        traced = self.traced_now
        if traced:
            self.tracer.request = self._request
            self.tracer.install()
        try:
            start = time.perf_counter()
            if traced:
                with self.tracer.span(f"op.{kind}"):
                    yield
            else:
                yield
            wall = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        self._request_wall += wall
        (self.traced_op_walls if traced else self.op_times)[kind].append(wall)

    def span(self, name: str):
        """A span for benchmark work inside a traced op that calls no traced
        library function, so that the op's spans cover all of its time."""
        return self.tracer.span(name) if self.traced_now else nullcontext()

    def fail(self, exc: Exception) -> None:
        """Count one failed op and say why on stderr."""
        self.failed += 1
        detail = "".join(traceback.format_exception(exc)).rstrip()
        print(f"[{self.workload}] failed op in request {self._request}: {detail}", file=sys.stderr)

    def digest(self, *parts: str) -> None:
        self.digests.append(sha256_hex("\n".join(parts).encode()))

    # -- summaries --------------------------------------------------------------------

    def request_walls(self, kind: str, traced: bool = False) -> list[float]:
        """Wall times of the traced or untraced requests of ``kind``."""
        return [w for w, t in self.request_times[kind] if t == traced]

    def traced_op_wall(self) -> tuple[float, float]:
        """Wall time of the traced ops, and the untraced estimate of it: per
        op kind, the mean untraced op time times the number of traced ops."""
        traced = untraced = 0.0
        for kind, walls in self.traced_op_walls.items():
            if self.op_times.get(kind):
                traced += sum(walls)
                untraced += statistics.mean(self.op_times[kind]) * len(walls)
        return traced, untraced

    def output_digest(self) -> str:
        """Digest of the first ``min_requests`` requests' outputs, which every
        run with the same seed and code produces whatever its speed."""
        return sha256_hex("\n".join(self.digests[: self.min_requests]).encode())
