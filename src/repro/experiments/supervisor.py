"""Supervised task execution: process-per-task with timeout and retry.

The grid's former ``pool.map`` had no answer to a crashed, hung, or
lying worker: one bad task aborted (or wedged) the whole sweep. This
module replaces it with a *supervisor* that runs each task in its own
short-lived process and watches it:

* **Timeout** -- each attempt gets a wall-clock budget
  (``task_timeout``); a hung worker is terminated and the task
  reclassified as :class:`~repro.errors.TaskTimeout`. The clock guards
  only the supervisor -- results never observe it, so a timed-out-and-
  retried task is still bit-identical.
* **Retry** -- every failure is retried up to ``retries`` times with
  deterministic, attempt-counted accounting. An optional exponential
  backoff (``retry_backoff``) delays each retry by a deterministic,
  *seeded-jitter* amount -- a pure function of ``(seed, task index,
  attempt)``, never of the wall clock or a global RNG -- so retry
  schedules are reproducible while still decorrelating storms of
  failing tasks. Backoff only decides *when* a retry launches, never
  what it computes: results stay bit-identical with any backoff.
  Each retry respawns a fresh process, so a dead worker is always
  replaced.
* **Classification** -- failures map onto the typed taxonomy in
  :mod:`repro.errors` (``TaskTimeout``/``WorkerCrash``/
  ``InvariantViolation``/generic task errors) and are reported as
  ``task_retry``/``task_failed`` trace events and in the run's failure
  manifest.
* **Invariant check** -- results are structurally validated (finite
  floats all the way down) before being accepted, so a worker that
  *returns* garbage is treated exactly like one that crashed.
* **Drain** -- SIGINT/SIGTERM request a drain: no new tasks launch,
  in-flight tasks finish and are journaled, and the run reports itself
  interrupted instead of dying mid-write. A second SIGINT kills
  in-flight work immediately.

Determinism: results are collected by task index, every task is a pure
function of its spec, and the supervisor only decides *whether* and
*when* a task runs -- never what it computes -- so any schedule
(including one with retries) yields bit-identical results.

Two isolation modes share the watching machinery:

* **process-per-task** (the default) -- every attempt gets a fresh
  process, so import/startup cost is paid per task but nothing leaks
  between attempts. Only :func:`~repro.experiments.runner.parallel_map`
  and ``jobs=1`` grids with a timeout or a process-level fault plan
  still use it;
* **persistent pool** (``pool=True``) -- long-lived workers import once
  and serve many tasks over the same pipe. The grid runs its
  ``jobs > 1`` scalar tasks here (a worker's segment memo then serves
  later tasks of the same pair) and so does the sharded batch dispatch
  (a shard is seconds of work; a fresh interpreter per shard would
  dominate). Supervision is unchanged: a worker that
  crashes, hangs past the task timeout, or reports garbage is killed
  and **respawned**, and the task it held is retried under the same
  deterministic accounting as the per-task path.

Either way, worker messages travel as length-prefixed frames (one
``send_bytes`` of a ``pickle.HIGHEST_PROTOCOL`` payload), so a reader
observes either a complete message or a torn frame -- and a torn frame
raises immediately (``OSError``/``EOFError``), classifying as a
:class:`~repro.errors.WorkerCrash` instead of hanging the supervisor.

This module is wall-clock exempt (RL002) alongside the runner: its
clocks bound supervision (timeouts, liveness polling) and never feed
simulation results.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import threading
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    classify_failure,
)
from repro.telemetry import RUNNER as _TRACE_RUNNER
from repro.telemetry import current_sink
from repro.telemetry.events import task_failed, task_retry

__all__ = [
    "SupervisionPolicy",
    "TaskFailure",
    "SupervisedRun",
    "Supervisor",
    "TaskPool",
    "PoolEvent",
    "backoff_delay",
    "check_invariants",
]

#: How long the supervisor blocks waiting for worker messages before
#: re-checking deadlines and drain requests.
_POLL_SECONDS = 0.2

#: Grace given to ``terminate()`` before escalating to ``kill()``.
_TERM_GRACE_SECONDS = 2.0


@dataclass(frozen=True)
class SupervisionPolicy:
    """How failures are bounded: per-attempt timeout, retries, backoff."""

    #: Wall-clock seconds one attempt may run (None = no timeout).
    task_timeout: Optional[float] = None
    #: Extra attempts after the first failure (0 = fail fast).
    retries: int = 2
    #: Base seconds of the deterministic exponential retry backoff
    #: (0 = respawn immediately, the historical behavior). Attempt
    #: ``n``'s retry is delayed by ``backoff_delay(retry_backoff, n,
    #: index=task_index, seed=backoff_seed)``.
    retry_backoff: float = 0.0
    #: Seed of the deterministic backoff jitter (see :func:`backoff_delay`).
    backoff_seed: int = 0

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError("task timeout must be positive seconds")
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.retry_backoff < 0:
            raise ConfigurationError("retry backoff must be >= 0 seconds")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def delay_for(self, index: int, attempt: int) -> float:
        """Backoff before the retry that follows failed ``attempt``."""
        return backoff_delay(
            self.retry_backoff, attempt, index=index, seed=self.backoff_seed
        )


def backoff_delay(
    base: float, attempt: int, *, index: int = 0, seed: int = 0
) -> float:
    """Deterministic exponential backoff with seeded jitter (seconds).

    The delay before the retry following failed ``attempt`` (1-based)
    doubles per attempt and carries an *equal-jitter* factor in
    ``[0.5, 1.0)`` derived from ``sha256(seed, index, attempt)`` --
    a pure function of its arguments, so retry schedules are exactly
    reproducible (no RNG state, no wall clock) while simultaneously
    failing tasks still spread out instead of thundering back in
    lockstep.
    """
    if base <= 0.0 or attempt < 1:
        return 0.0
    window = base * (2.0 ** (attempt - 1))
    digest = hashlib.sha256(
        f"repro-backoff-{seed}-{index}-{attempt}".encode()
    ).digest()
    jitter = int.from_bytes(digest[:8], "big") / 2.0**64
    return window * (0.5 + 0.5 * jitter)


@dataclass(frozen=True)
class TaskFailure:
    """One task that exhausted its retry budget (manifest entry)."""

    index: int
    kind: str
    label: str
    reason: str  #: one of :data:`repro.errors.FAILURE_REASONS`
    message: str
    attempts: int
    #: The original exception, when the failure happened in-process
    #: (inline mode); lets thin wrappers re-raise it unchanged.
    error: Optional[BaseException] = None

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "label": self.label,
            "reason": self.reason,
            "message": self.message,
            "attempts": self.attempts,
        }


@dataclass
class SupervisedRun:
    """Everything one supervised execution produced."""

    #: task index -> raw result (only indices that succeeded)
    results: dict
    failures: List[TaskFailure]
    #: indices that never ran because a drain was requested
    skipped: List[int]
    interrupted: bool = False
    #: total retry attempts consumed across all tasks
    retries: int = 0


def check_invariants(value: object, _path: str = "result") -> None:
    """Validate a task result: every float is finite, recursively.

    Raises :class:`~repro.errors.InvariantViolation` naming the first
    offending field. Simulation results are counters and rates -- a NaN
    or infinity anywhere means the producing run was corrupt, and
    accepting it would poison every figure derived from the grid.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvariantViolation(
                f"non-finite value {value!r} at {_path}"
            )
        return
    if is_dataclass(value) and not isinstance(value, type):
        for field in fields(value):
            check_invariants(
                getattr(value, field.name), f"{_path}.{field.name}"
            )
        return
    if isinstance(value, (list, tuple)):
        for position, element in enumerate(value):
            check_invariants(element, f"{_path}[{position}]")
        return
    if isinstance(value, dict):
        for key, element in value.items():
            check_invariants(element, f"{_path}[{key!r}]")
        return


def _default_descriptor(item: object) -> Tuple[str, str]:
    return "task", type(item).__name__


def _send_frame(
    conn: multiprocessing.connection.Connection, message: object
) -> None:
    """Write one length-prefixed message frame.

    ``send_bytes`` prefixes the payload with its size, so the reader
    either receives the complete pickle or fails loudly mid-frame; the
    payload itself is serialized once with ``pickle.HIGHEST_PROTOCOL``
    (the default ``Connection.send`` re-pickles at the legacy default
    protocol, which is markedly slower for the array-heavy results the
    sharded batch path returns).
    """
    conn.send_bytes(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


def _recv_frame(conn: multiprocessing.connection.Connection) -> object:
    """Read one framed message; raises ``EOFError`` on a clean close
    and ``OSError`` on a frame torn by a mid-write crash."""
    return pickle.loads(conn.recv_bytes())


#: Worker-message failures that classify as a crash: a clean EOF (the
#: worker died before writing), a torn frame (it died mid-write), or a
#: frame whose bytes do not decode (it died scribbling).
_FRAME_ERRORS = (EOFError, OSError, pickle.UnpicklingError)

_Conn = multiprocessing.connection.Connection

#: Parent-side ends of the worker pipes this process has opened. A
#: forked worker inherits the descriptors of all of them -- from every
#: pool in the process, its own pipe's parent end included -- and while
#: any copy stays open a dead parent never reads as EOF, so workers
#: close them all first thing. Process-wide because descriptors are.
_PARENT_ENDS: "weakref.WeakSet[_Conn]" = weakref.WeakSet()


def _worker_pipe(duplex: bool) -> Tuple[_Conn, _Conn]:
    """A ``(parent end, child end)`` worker pipe; the parent end is
    registered so workers forked later close their copy of it."""
    parent_conn, child_conn = multiprocessing.Pipe(duplex=duplex)
    _PARENT_ENDS.add(parent_conn)
    return parent_conn, child_conn


def _detach_worker() -> None:
    """Shed the signal and pipe state a forked worker inherits.

    SIGINT is ignored so a terminal Ctrl-C (delivered to the whole
    foreground process group) lets the parent drain in-flight work.
    SIGTERM goes back to its default action and the signal wakeup fd is
    cleared: a parent running an asyncio loop (the service) or a drain
    handler would otherwise leave the worker with a handler that
    swallows ``terminate()``. Closing the inherited parent pipe ends
    makes the parent's death read as EOF (or EPIPE) in the worker.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    for conn in list(_PARENT_ENDS):
        conn.close()


def _child_main(
    conn: multiprocessing.connection.Connection,
    call: Callable,
    index: int,
    attempt: int,
    item: object,
) -> None:
    """Entry point of one task process.

    Reports exactly one message on ``conn``: ``("ok", result)`` or
    ``("error", reason, message, traceback)``. Dying without reporting
    *is* the crash signal the parent watches for.
    """
    _detach_worker()
    status = 0
    try:
        plan = faults.current_plan()
        plan.on_task_start(index, attempt)
        result = plan.mutate_result(index, attempt, call(item))
        _send_frame(conn, ("ok", result))
    except BaseException as error:  # the parent does the classifying
        status = 1
        try:
            _send_frame(
                conn,
                (
                    "error",
                    classify_failure(error),
                    f"{type(error).__name__}: {error}",
                    traceback.format_exc(),
                ),
            )
        except (OSError, ValueError):  # parent gone / pipe closed
            pass
    finally:
        try:
            conn.close()
        finally:
            os._exit(status)


def _pool_worker_main(
    conn: multiprocessing.connection.Connection, call: Callable
) -> None:
    """Entry point of one persistent pool worker.

    Serves ``(index, attempt, item)`` request frames until the parent
    sends the ``None`` shutdown frame (or closes the pipe), answering
    each with the same one-message protocol as :func:`_child_main`.
    The fault-plan hooks run per served task, so an injected crash or
    hang fires inside the pool worker exactly as it would in a
    process-per-task child -- the parent detects the dead/stuck worker,
    respawns it, and retries the task it held.
    """
    _detach_worker()
    while True:
        try:
            request = _recv_frame(conn)
        except _FRAME_ERRORS:  # parent gone; nothing left to serve
            os._exit(0)
        if request is None:
            break
        index, attempt, item = request
        try:
            plan = faults.current_plan()
            plan.on_task_start(index, attempt)
            result = plan.mutate_result(index, attempt, call(item))
            message: tuple = ("ok", result)
        except BaseException as error:  # the parent does the classifying
            message = (
                "error",
                classify_failure(error),
                f"{type(error).__name__}: {error}",
                traceback.format_exc(),
            )
        try:
            _send_frame(conn, message)
        except (OSError, ValueError):  # parent gone / pipe closed
            os._exit(1)
    try:
        conn.close()
    finally:
        os._exit(0)


@dataclass
class _Running:
    """Book-keeping for one in-flight task process."""

    process: multiprocessing.Process
    conn: multiprocessing.connection.Connection
    index: int
    item: object
    attempt: int
    deadline: Optional[float]


@dataclass
class _PoolWorker:
    """One persistent pool worker and the task it currently holds.

    ``index``/``item``/``attempt``/``deadline`` mirror :class:`_Running`
    while a task is in flight (the retry accounting reads them through
    the same duck-typed surface) and are cleared when the worker goes
    idle.
    """

    process: multiprocessing.Process
    conn: multiprocessing.connection.Connection
    index: int = -1
    item: object = None
    attempt: int = 0
    deadline: Optional[float] = None
    #: affinity group of the last task it took (kept while idle)
    group: object = None

    @property
    def busy(self) -> bool:
        return self.attempt > 0

    def clear(self) -> None:
        self.index = -1
        self.item = None
        self.attempt = 0
        self.deadline = None


class Supervisor:
    """Runs indexed tasks under a :class:`SupervisionPolicy`.

    ``tasks`` is a sequence of ``(index, item)`` pairs -- indices are
    caller-owned (the grid keeps its deterministic decomposition order
    stable across resumes) and are the coordinates fault injection and
    checkpoint records use.

    Isolation is automatic: tasks run in per-task processes when
    concurrency, a timeout, or an active process-level fault plan
    demands it, and inline (zero overhead, exceptions classified but
    never retried -- pure tasks fail deterministically) otherwise.
    ``pool=True`` swaps the per-task processes for persistent workers
    that serve many tasks each (crashed or hung workers are respawned);
    it changes only *where* a task runs, never what it computes.
    ``affinity`` maps a task index to a group: an idle pool worker
    takes the next task of the group it last ran, else the first task
    of a group no busy worker holds, else the head of the queue.
    """

    def __init__(
        self,
        call: Callable,
        tasks: Sequence[Tuple[int, object]],
        *,
        jobs: int = 1,
        policy: Optional[SupervisionPolicy] = None,
        descriptor: Callable[[object], Tuple[str, str]] = _default_descriptor,
        validate: Callable[[object], None] = check_invariants,
        on_result: Optional[Callable[[int, object, object], None]] = None,
        pool: bool = False,
        affinity: Optional[Callable[[int], object]] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be a positive process count")
        self._call = call
        self._tasks = list(tasks)
        self._jobs = jobs
        self._policy = policy if policy is not None else SupervisionPolicy()
        self._descriptor = descriptor
        self._validate = validate
        self._on_result = on_result
        self._pool = pool
        self._affinity = affinity
        self._drain = False
        self._hard_abort = False
        self._signals = 0
        #: retries waiting out their backoff: (ready_at, seq, index,
        #: item, attempt); ``seq`` keeps equal deadlines FIFO-stable.
        self._delayed: List[tuple] = []
        self._delay_seq = 0

    # -- external control ------------------------------------------------

    def request_drain(self) -> None:
        """Stop launching new tasks; let in-flight tasks finish."""
        self._drain = True

    def _on_signal(self, signum: int, frame: object) -> None:
        self._signals += 1
        self._drain = True
        if self._signals >= 2:
            self._hard_abort = True

    # -- execution -------------------------------------------------------

    def run(self) -> SupervisedRun:
        """Execute every task; returns results, failures, and skips."""
        run = SupervisedRun(results={}, failures=[], skipped=[])
        if not self._tasks:
            return run
        use_processes = (
            self._jobs > 1
            or self._policy.task_timeout is not None
            or any(
                spec.kind in ("crash", "hang", "nan")
                for spec in faults.current_plan().specs
            )
        )
        installed = self._install_signal_handlers()
        try:
            if use_processes and self._pool:
                self._run_pool(run)
            elif use_processes:
                self._run_isolated(run)
            else:
                self._run_inline(run)
        finally:
            self._restore_signal_handlers(installed)
        run.interrupted = self._drain and bool(run.skipped or self._signals)
        return run

    def _install_signal_handlers(self) -> list:
        if threading.current_thread() is not threading.main_thread():
            return []
        previous = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous.append((signum, signal.signal(signum, self._on_signal)))
        return previous

    def _restore_signal_handlers(self, previous: list) -> None:
        for signum, handler in previous:
            signal.signal(signum, handler)

    # -- inline mode -----------------------------------------------------

    def _run_inline(self, run: SupervisedRun) -> None:
        for index, item in self._tasks:
            if self._drain:
                run.skipped.append(index)
                continue
            try:
                result = self._call(item)
                self._validate(result)
            except Exception as error:  # classified, surfaces in manifest
                self._record_failure(
                    run,
                    index,
                    item,
                    attempt=1,
                    reason=classify_failure(error),
                    message=f"{type(error).__name__}: {error}",
                    error=error,
                )
                continue
            self._accept(run, index, item, result)

    # -- delayed retries (backoff) ----------------------------------------

    def _defer_retry(self, index: int, item: object, attempt: int,
                     delay: float) -> None:
        """Park a retry until its backoff elapses."""
        self._delay_seq += 1
        self._delayed.append(
            (time.monotonic() + delay, self._delay_seq, index, item, attempt)
        )

    def _release_due(self, pending: deque) -> None:
        """Move delayed retries whose backoff elapsed into ``pending``.

        A drain releases everything immediately: the launcher will not
        start them, so they land in the run's ``skipped`` accounting
        instead of stranding the loop on a sleeping retry.
        """
        if not self._delayed:
            return
        now = time.monotonic()
        due = [
            entry for entry in self._delayed
            if self._drain or entry[0] <= now
        ]
        if not due:
            return
        for entry in sorted(due):
            _ready, _seq, index, item, attempt = entry
            pending.append((index, item, attempt))
        self._delayed = [e for e in self._delayed if e not in due]

    def _next_backoff_wait(self, ceiling: float) -> float:
        """Cap a poll wait so the earliest delayed retry is not missed."""
        if not self._delayed:
            return ceiling
        now = time.monotonic()
        earliest = min(entry[0] for entry in self._delayed)
        return min(ceiling, max(earliest - now, 0.0))

    def _sleep_until_due(self) -> None:
        """Idle wait (nothing running) for the next delayed retry."""
        wait = self._next_backoff_wait(_POLL_SECONDS)
        if wait > 0:
            time.sleep(wait)

    # -- isolated (process-per-task) mode --------------------------------

    def _run_isolated(self, run: SupervisedRun) -> None:
        pending: deque = deque(
            (index, item, 1) for index, item in self._tasks
        )
        running: List[_Running] = []
        while pending or running or self._delayed:
            if self._hard_abort:
                for task in running:
                    self._kill(task)
                    self._record_failure(
                        run,
                        task.index,
                        task.item,
                        attempt=task.attempt,
                        reason="crash",
                        message="killed by repeated interrupt",
                    )
                running.clear()
                self._drain = True
            self._release_due(pending)
            while pending and len(running) < self._jobs and not self._drain:
                running.append(self._launch(*pending.popleft()))
            if not running:
                if self._drain:
                    break
                if not pending and self._delayed:
                    self._sleep_until_due()
                    continue
                if not pending:
                    break
                continue
            self._poll(run, running, pending)
        self._release_due(pending)
        while pending:
            index, _item, _attempt = pending.popleft()
            run.skipped.append(index)
        run.skipped.sort()

    def _launch(self, index: int, item: object, attempt: int) -> _Running:
        parent_conn, child_conn = _worker_pipe(duplex=False)
        process = multiprocessing.Process(
            target=_child_main,
            args=(child_conn, self._call, index, attempt, item),
            daemon=True,
        )
        process.start()
        child_conn.close()
        deadline = (
            time.monotonic() + self._policy.task_timeout
            if self._policy.task_timeout is not None
            else None
        )
        return _Running(
            process=process,
            conn=parent_conn,
            index=index,
            item=item,
            attempt=attempt,
            deadline=deadline,
        )

    def _poll(
        self, run: SupervisedRun, running: List[_Running], pending: deque
    ) -> None:
        wait_for = self._next_backoff_wait(_POLL_SECONDS)
        now = time.monotonic()
        for task in running:
            if task.deadline is not None:
                wait_for = min(wait_for, max(task.deadline - now, 0.0))
        try:
            ready = multiprocessing.connection.wait(
                [task.conn for task in running], timeout=wait_for
            )
        except InterruptedError:  # pragma: no cover - signal during wait
            ready = []
        now = time.monotonic()
        finished: List[_Running] = []
        for task in running:
            if task.conn in ready:
                finished.append(task)
                self._collect(run, pending, task)
            elif task.deadline is not None and now >= task.deadline:
                finished.append(task)
                self._kill(task)
                self._retry_or_fail(
                    run,
                    pending,
                    task,
                    reason="timeout",
                    message=(
                        f"attempt {task.attempt} exceeded the "
                        f"{self._policy.task_timeout:g}s task timeout"
                    ),
                )
            elif not task.process.is_alive():
                # Exited between wait() and this liveness check. A
                # result it managed to send is still buffered in the
                # pipe, so collect first -- only an empty, closed pipe
                # (EOFError in recv) is the crash signal.
                finished.append(task)
                self._collect(run, pending, task)
        for task in finished:
            running.remove(task)

    def _collect(
        self, run: SupervisedRun, pending: deque, task: _Running
    ) -> None:
        try:
            message = _recv_frame(task.conn)
        except _FRAME_ERRORS:
            message = None
        task.conn.close()
        task.process.join()
        if message is None:
            self._retry_or_fail(
                run,
                pending,
                task,
                reason="crash",
                message=(
                    "worker died with exitcode "
                    f"{task.process.exitcode} before reporting a result"
                ),
            )
            return
        self._handle_message(run, pending, task, message)

    def _handle_message(
        self,
        run: SupervisedRun,
        pending: deque,
        task: Union[_Running, _PoolWorker],
        message: tuple,
    ) -> None:
        """Accept / retry / fail from one complete worker message."""
        if message[0] == "ok":
            result = message[1]
            try:
                self._validate(result)
            except InvariantViolation as error:
                self._retry_or_fail(
                    run, pending, task, reason="invariant", message=str(error)
                )
                return
            self._accept(run, task.index, task.item, result)
            return
        _tag, reason, text, _trace = message
        self._retry_or_fail(run, pending, task, reason=reason, message=text)

    def _kill(self, task: Union[_Running, _PoolWorker]) -> None:
        task.conn.close()
        process = task.process
        if process.is_alive():
            process.terminate()
            process.join(_TERM_GRACE_SECONDS)
            if process.is_alive():  # pragma: no cover - stuck in kernel
                process.kill()
                process.join()
        else:
            process.join()

    # -- persistent pool mode --------------------------------------------

    def _spawn_worker(self) -> _PoolWorker:
        parent_conn, child_conn = _worker_pipe(duplex=True)
        process = multiprocessing.Process(
            target=_pool_worker_main,
            args=(child_conn, self._call),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _PoolWorker(process=process, conn=parent_conn)

    def _assign(
        self,
        run: SupervisedRun,
        pending: deque,
        workers: List[_PoolWorker],
        worker: _PoolWorker,
        index: int,
        item: object,
        attempt: int,
    ) -> None:
        worker.index = index
        worker.item = item
        worker.attempt = attempt
        worker.deadline = (
            time.monotonic() + self._policy.task_timeout
            if self._policy.task_timeout is not None
            else None
        )
        try:
            _send_frame(worker.conn, (index, attempt, item))
        except (OSError, ValueError):
            # The worker died between tasks; this attempt never started,
            # but counting it keeps the retry budget a hard bound.
            self._retire_worker(workers, worker)
            self._retry_or_fail(
                run,
                pending,
                worker,
                reason="crash",
                message="pool worker died before accepting the task",
            )

    def _take(
        self, pending: deque, workers: List[_PoolWorker], worker: _PoolWorker
    ) -> tuple:
        """Dequeue the next task for idle ``worker`` (see ``affinity``)."""
        entry = pending[0]
        if self._affinity is not None:
            held = {other.group for other in workers if other.busy}
            groups = [self._affinity(index) for index, _, _ in pending]
            if worker.group in groups:
                entry = pending[groups.index(worker.group)]
            else:
                entry = next(
                    (e for e, g in zip(pending, groups) if g not in held), entry
                )
            worker.group = self._affinity(entry[0])
        pending.remove(entry)
        return entry

    def _retire_worker(
        self, workers: List[_PoolWorker], worker: _PoolWorker
    ) -> None:
        """Kill a worker and drop it from the pool (a replacement is
        spawned by the next scheduling pass if work remains)."""
        self._kill(worker)
        if worker in workers:
            workers.remove(worker)

    def _shutdown_worker(self, worker: _PoolWorker) -> None:
        """Graceful stop of an idle worker: shutdown frame, then reap."""
        try:
            _send_frame(worker.conn, None)
        except (OSError, ValueError):
            pass
        self._kill(worker)

    def _run_pool(self, run: SupervisedRun) -> None:
        pending: deque = deque(
            (index, item, 1) for index, item in self._tasks
        )
        workers: List[_PoolWorker] = []
        try:
            while (
                pending
                or self._delayed
                or any(worker.busy for worker in workers)
            ):
                self._release_due(pending)
                if self._hard_abort:
                    for worker in list(workers):
                        if worker.busy:
                            self._record_failure(
                                run,
                                worker.index,
                                worker.item,
                                attempt=worker.attempt,
                                reason="crash",
                                message="killed by repeated interrupt",
                            )
                        self._retire_worker(workers, worker)
                    self._drain = True
                if not self._drain:
                    wanted = min(
                        self._jobs,
                        len(pending)
                        + sum(1 for worker in workers if worker.busy),
                    )
                    while len(workers) < wanted:
                        workers.append(self._spawn_worker())
                    for worker in list(workers):
                        if pending and not worker.busy:
                            self._assign(
                                run, pending, workers, worker,
                                *self._take(pending, workers, worker)
                            )
                busy = [worker for worker in workers if worker.busy]
                if not busy:
                    if self._drain:
                        break
                    if not pending and self._delayed:
                        self._sleep_until_due()
                        continue
                    if not pending:
                        break
                    continue
                self._poll_pool(run, busy, pending, workers)
            self._release_due(pending)
            while pending:
                index, _item, _attempt = pending.popleft()
                run.skipped.append(index)
            run.skipped.sort()
        finally:
            for worker in list(workers):
                self._shutdown_worker(worker)
            workers.clear()

    def _poll_pool(
        self,
        run: SupervisedRun,
        busy: List[_PoolWorker],
        pending: deque,
        workers: List[_PoolWorker],
    ) -> None:
        wait_for = self._next_backoff_wait(_POLL_SECONDS)
        now = time.monotonic()
        for worker in busy:
            if worker.deadline is not None:
                wait_for = min(wait_for, max(worker.deadline - now, 0.0))
        try:
            ready = multiprocessing.connection.wait(
                [worker.conn for worker in busy], timeout=wait_for
            )
        except InterruptedError:  # pragma: no cover - signal during wait
            ready = []
        now = time.monotonic()
        for worker in busy:
            if worker.conn in ready:
                self._collect_pool(run, pending, workers, worker)
            elif worker.deadline is not None and now >= worker.deadline:
                self._retire_worker(workers, worker)
                self._retry_or_fail(
                    run,
                    pending,
                    worker,
                    reason="timeout",
                    message=(
                        f"attempt {worker.attempt} exceeded the "
                        f"{self._policy.task_timeout:g}s task timeout"
                    ),
                )
            elif not worker.process.is_alive():
                # Died between wait() and this check; a buffered result
                # frame is still collectable, so collect-first (only an
                # empty, closed pipe is the crash signal).
                self._collect_pool(run, pending, workers, worker)

    def _collect_pool(
        self,
        run: SupervisedRun,
        pending: deque,
        workers: List[_PoolWorker],
        worker: _PoolWorker,
    ) -> None:
        try:
            message = _recv_frame(worker.conn)
        except _FRAME_ERRORS:
            message = None
        if message is None:
            exitcode = worker.process.exitcode
            self._retire_worker(workers, worker)
            self._retry_or_fail(
                run,
                pending,
                worker,
                reason="crash",
                message=(
                    f"pool worker died with exitcode {exitcode} "
                    "before reporting a result"
                ),
            )
            return
        self._handle_message(run, pending, worker, message)
        worker.clear()

    # -- accounting ------------------------------------------------------

    def _accept(
        self, run: SupervisedRun, index: int, item: object, result: object
    ) -> None:
        run.results[index] = result
        if self._on_result is not None:
            self._on_result(index, item, result)

    def _retry_or_fail(
        self,
        run: SupervisedRun,
        pending: deque,
        task: _Running,
        reason: str,
        message: str,
    ) -> None:
        kind, label = self._descriptor(task.item)
        sink = current_sink()
        if task.attempt < self._policy.max_attempts and not self._drain:
            run.retries += 1
            delay = self._policy.delay_for(task.index, task.attempt)
            if sink.wants(_TRACE_RUNNER):
                sink.emit(
                    task_retry(
                        kind, label, task.attempt + 1, reason,
                        backoff_s=delay,
                    )
                )
            if delay > 0.0:
                self._defer_retry(
                    task.index, task.item, task.attempt + 1, delay
                )
            else:
                pending.append((task.index, task.item, task.attempt + 1))
            return
        self._record_failure(
            run,
            task.index,
            task.item,
            attempt=task.attempt,
            reason=reason,
            message=message,
        )

    def _record_failure(
        self,
        run: SupervisedRun,
        index: int,
        item: object,
        *,
        attempt: int,
        reason: str,
        message: str,
        error: Optional[BaseException] = None,
    ) -> None:
        kind, label = self._descriptor(item)
        sink = current_sink()
        if sink.wants(_TRACE_RUNNER):
            sink.emit(task_failed(kind, label, attempt, reason))
        run.failures.append(
            TaskFailure(
                index=index,
                kind=kind,
                label=label,
                reason=reason,
                message=message,
                attempts=attempt,
                error=error,
            )
        )


# ---------------------------------------------------------------------------
# Incremental pool: supervision for long-running callers (the service)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolEvent:
    """One observable outcome of a :class:`TaskPool` pump pass.

    ``kind`` is ``"done"`` (``result`` holds the validated value),
    ``"failed"`` (``failure`` holds the manifest entry), or ``"retry"``
    (the task is being retried; ``attempt`` is the upcoming attempt and
    ``backoff_s`` the deterministic delay before it launches).
    """

    kind: str
    index: int
    result: object = None
    failure: Optional[TaskFailure] = None
    attempt: int = 0
    reason: str = ""
    backoff_s: float = 0.0


@dataclass
class _PoolTask:
    """One queued/delayed TaskPool entry (with per-task timeout)."""

    index: int
    item: object
    attempt: int
    timeout: Optional[float]
    ready_at: float = 0.0
    seq: int = 0


class TaskPool:
    """Supervised persistent pool with *incremental* task submission.

    :class:`Supervisor` is batch-shaped: it takes every task up front
    and returns when all of them settled -- the right surface for a
    grid, the wrong one for a long-running service whose work arrives
    one HTTP request at a time. ``TaskPool`` exposes the same
    supervision contract (persistent workers served length-prefixed
    frames, per-attempt wall-clock timeouts, bounded deterministic
    retries with seeded-jitter backoff, crash/invariant classification
    through the :mod:`repro.errors` taxonomy, ``task_retry``/
    ``task_failed`` telemetry, ambient fault-plan hooks in the workers)
    behind an event-pumped API:

    * :meth:`submit` enqueues one ``(index, item)`` task, optionally
      with a per-task timeout override (how job deadlines propagate
      down to attempts);
    * :meth:`pump` performs one scheduling + poll pass and returns the
      :class:`PoolEvent` outcomes that settled during it;
    * :meth:`close` shuts the workers down.

    Like the Supervisor, the pool only decides whether and when a task
    runs, never what it computes -- a retried task is bit-identical to
    one that succeeded first try.
    """

    def __init__(
        self,
        call: Callable,
        *,
        jobs: int = 1,
        policy: Optional[SupervisionPolicy] = None,
        descriptor: Callable[[object], Tuple[str, str]] = _default_descriptor,
        validate: Callable[[object], None] = check_invariants,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be a positive process count")
        self._call = call
        self._jobs = jobs
        self._policy = policy if policy is not None else SupervisionPolicy()
        self._descriptor = descriptor
        self._validate = validate
        self._pending: deque = deque()
        self._delayed: List[_PoolTask] = []
        self._workers: List[_PoolWorker] = []
        #: per-index timeout overrides travel with the task entry, but a
        #: retried in-flight task needs them again -- keep them here.
        self._timeouts: dict = {}
        self._seq = 0
        self._closed = False

    # -- introspection -----------------------------------------------------

    @property
    def pending(self) -> int:
        """Tasks queued or waiting out a retry backoff."""
        return len(self._pending) + len(self._delayed)

    @property
    def in_flight(self) -> int:
        return sum(1 for worker in self._workers if worker.busy)

    @property
    def idle(self) -> bool:
        return self.pending == 0 and self.in_flight == 0

    def alive_workers(self) -> int:
        """Live worker processes (the /readyz liveness signal)."""
        return sum(
            1 for worker in self._workers if worker.process.is_alive()
        )

    # -- submission ---------------------------------------------------------

    def submit(
        self, index: int, item: object, *, timeout: Optional[float] = None
    ) -> None:
        """Enqueue one task; ``timeout`` overrides the policy's
        per-attempt budget (a job deadline propagating down)."""
        if self._closed:
            raise ConfigurationError("task pool is closed")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError("task timeout must be positive seconds")
        self._timeouts[index] = timeout
        self._pending.append(
            _PoolTask(index=index, item=item, attempt=1, timeout=timeout)
        )

    # -- the pump ------------------------------------------------------------

    def pump(self, wait: float = 0.05) -> List[PoolEvent]:
        """One scheduling + poll pass; returns what settled during it."""
        if self._closed:
            raise ConfigurationError("task pool is closed")
        events: List[PoolEvent] = []
        self._release_due()
        self._assign_idle(events)
        busy = [worker for worker in self._workers if worker.busy]
        if not busy:
            if self._delayed and wait > 0:
                now = time.monotonic()
                earliest = min(task.ready_at for task in self._delayed)
                pause = min(wait, max(earliest - now, 0.0))
                if pause > 0:
                    time.sleep(pause)
            return events
        wait_for = wait
        now = time.monotonic()
        for task in self._delayed:
            wait_for = min(wait_for, max(task.ready_at - now, 0.0))
        for worker in busy:
            if worker.deadline is not None:
                wait_for = min(wait_for, max(worker.deadline - now, 0.0))
        try:
            ready = multiprocessing.connection.wait(
                [worker.conn for worker in busy], timeout=max(wait_for, 0.0)
            )
        except InterruptedError:  # pragma: no cover - signal during wait
            ready = []
        now = time.monotonic()
        for worker in busy:
            if worker.conn in ready:
                self._collect(worker, events)
            elif worker.deadline is not None and now >= worker.deadline:
                timeout = self._attempt_timeout(worker.index)
                self._retire(worker)
                self._retry_or_fail(
                    worker,
                    events,
                    reason="timeout",
                    message=(
                        f"attempt {worker.attempt} exceeded the "
                        f"{timeout:g}s task timeout"
                    ),
                )
            elif not worker.process.is_alive():
                # Died between wait() and this check; a buffered result
                # frame is still collectable (collect-first contract).
                self._collect(worker, events)
        return events

    def close(self) -> None:
        """Shut every worker down (idle ones gracefully)."""
        if self._closed:
            return
        self._closed = True
        for worker in list(self._workers):
            try:
                _send_frame(worker.conn, None)
            except (OSError, ValueError):
                pass
            self._kill(worker)
        self._workers.clear()

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _attempt_timeout(self, index: int) -> Optional[float]:
        override = self._timeouts.get(index)
        return override if override is not None else self._policy.task_timeout

    def _release_due(self) -> None:
        if not self._delayed:
            return
        now = time.monotonic()
        due = [task for task in self._delayed if task.ready_at <= now]
        if not due:
            return
        for task in sorted(due, key=lambda t: (t.ready_at, t.seq)):
            self._pending.append(task)
        self._delayed = [task for task in self._delayed if task not in due]

    def _assign_idle(self, events: List[PoolEvent]) -> None:
        for worker in list(self._workers):
            # An idle worker that died between tasks held no work; just
            # reap it (a replacement spawns below if demand remains).
            if not worker.busy and not worker.process.is_alive():
                self._retire(worker)
        wanted = min(self._jobs, len(self._pending) + self.in_flight)
        while (
            sum(1 for w in self._workers if w.process.is_alive()) < wanted
        ):
            self._workers.append(self._spawn())
        for worker in list(self._workers):
            if not self._pending:
                break
            if worker.busy or not worker.process.is_alive():
                continue
            task = self._pending.popleft()
            self._dispatch(worker, task, events)

    def _spawn(self) -> _PoolWorker:
        parent_conn, child_conn = _worker_pipe(duplex=True)
        process = multiprocessing.Process(
            target=_pool_worker_main,
            args=(child_conn, self._call),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _PoolWorker(process=process, conn=parent_conn)

    def _dispatch(
        self, worker: _PoolWorker, task: _PoolTask, events: List[PoolEvent]
    ) -> None:
        worker.index = task.index
        worker.item = task.item
        worker.attempt = task.attempt
        timeout = self._attempt_timeout(task.index)
        worker.deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        try:
            _send_frame(worker.conn, (task.index, task.attempt, task.item))
        except (OSError, ValueError):
            # Died between tasks; the attempt never started but counts,
            # keeping the retry budget a hard bound.
            self._retire(worker)
            self._retry_or_fail(
                worker,
                events,
                reason="crash",
                message="pool worker died before accepting the task",
            )

    def _retire(self, worker: _PoolWorker) -> None:
        self._kill(worker)
        if worker in self._workers:
            self._workers.remove(worker)

    def _kill(self, worker: _PoolWorker) -> None:
        worker.conn.close()
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(_TERM_GRACE_SECONDS)
            if process.is_alive():  # pragma: no cover - stuck in kernel
                process.kill()
                process.join()
        else:
            process.join()

    def _collect(self, worker: _PoolWorker, events: List[PoolEvent]) -> None:
        try:
            message = _recv_frame(worker.conn)
        except _FRAME_ERRORS:
            message = None
        if message is None:
            exitcode = worker.process.exitcode
            self._retire(worker)
            self._retry_or_fail(
                worker,
                events,
                reason="crash",
                message=(
                    f"pool worker died with exitcode {exitcode} "
                    "before reporting a result"
                ),
            )
            return
        if message[0] == "ok":
            result = message[1]
            try:
                self._validate(result)
            except InvariantViolation as error:
                self._retry_or_fail(
                    worker, events, reason="invariant", message=str(error)
                )
                worker.clear()
                return
            index = worker.index
            worker.clear()
            self._timeouts.pop(index, None)
            events.append(PoolEvent(kind="done", index=index, result=result))
            return
        _tag, reason, text, _trace = message
        self._retry_or_fail(worker, events, reason=reason, message=text)
        worker.clear()

    def _retry_or_fail(
        self,
        worker: _PoolWorker,
        events: List[PoolEvent],
        *,
        reason: str,
        message: str,
    ) -> None:
        index, item, attempt = worker.index, worker.item, worker.attempt
        kind, label = self._descriptor(item)
        sink = current_sink()
        if attempt < self._policy.max_attempts:
            delay = self._policy.delay_for(index, attempt)
            if sink.wants(_TRACE_RUNNER):
                sink.emit(
                    task_retry(kind, label, attempt + 1, reason,
                               backoff_s=delay)
                )
            self._seq += 1
            retry = _PoolTask(
                index=index,
                item=item,
                attempt=attempt + 1,
                timeout=self._timeouts.get(index),
                ready_at=time.monotonic() + delay,
                seq=self._seq,
            )
            if delay > 0.0:
                self._delayed.append(retry)
            else:
                self._pending.append(retry)
            events.append(
                PoolEvent(
                    kind="retry",
                    index=index,
                    attempt=attempt + 1,
                    reason=reason,
                    backoff_s=delay,
                )
            )
            return
        if sink.wants(_TRACE_RUNNER):
            sink.emit(task_failed(kind, label, attempt, reason))
        self._timeouts.pop(index, None)
        events.append(
            PoolEvent(
                kind="failed",
                index=index,
                failure=TaskFailure(
                    index=index,
                    kind=kind,
                    label=label,
                    reason=reason,
                    message=message,
                    attempts=attempt,
                ),
                reason=reason,
            )
        )
