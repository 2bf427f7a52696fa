"""Event-driven segment-level SOE timing engine.

This engine implements Switch-on-Event multithreading over the paper's
own program-behaviour model (Section 2.1): each thread is a stream of
instruction segments delimited by last-level cache misses. Within a
segment, retirement is uniform at the segment's IPC, so the time of the
next event -- segment end (= miss), instruction-quota exhaustion,
cycle-quota exhaustion, or a policy sampling boundary -- is closed-form
and the engine advances event-to-event with no per-cycle loop.

Semantics mirror Section 4.1's machine:

* the active thread switches out on a last-level miss; the miss resolves
  ``miss_lat`` cycles later, and the thread is not runnable before that;
* every dispatch pays ``switch_lat`` overhead cycles (the paper's ~25
  cycles of drain plus pipeline refill);
* each dispatch is bounded by the maximum-cycles quota (50,000 cycles),
  ensuring every thread runs inside every sampling period;
* the attached :class:`~repro.core.policy.SwitchPolicy` can impose an
  instruction budget (the fairness mechanism's deficit counter) and a
  cycle budget (time sharing), and receives retirement/miss callbacks;
* when no thread is ready (all waiting on misses) the core idles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.core.policy import NoFairnessPolicy, SwitchPolicy
from repro.engine.results import SoeRunResult, ThreadStats
from repro.engine.segments import SegmentStream
from repro.engine.thread import EngineThread
from repro.errors import ConfigurationError, SimulationError
from repro.telemetry import SWITCH as _TRACE_SWITCH
from repro.telemetry import resolve_sink
from repro.telemetry.events import segment_end, stall, thread_switch
from repro.telemetry.profile import PROFILE
from repro.telemetry.sinks import TraceSink

__all__ = ["SoeParams", "RunLimits", "SoeEngine", "run_soe", "MAX_EVENTS"]

_EPS = 1e-9

#: Watchdog on boundary-callback storms: a single simulated instant may
#: fire at most this many policy/recorder boundaries before the engine
#: concludes the callbacks are failing to advance their schedule.
MAX_EVENTS = 1_000_000


@dataclass(frozen=True)
class SoeParams:
    """Machine-level SOE parameters (paper Table 3 / Section 4.1)."""

    miss_lat: float = 300.0
    switch_lat: float = 25.0
    max_cycles_quota: float = 50_000.0

    def __post_init__(self) -> None:
        if self.miss_lat < 0 or self.switch_lat < 0:
            raise ConfigurationError("latencies must be non-negative")
        if self.max_cycles_quota <= 0:
            raise ConfigurationError("max_cycles_quota must be positive")


@dataclass(frozen=True)
class RunLimits:
    """Stopping and measurement-window configuration for a run.

    The paper simulates until every thread completes ``min_instructions``
    (6,000,000 in the evaluation) and excludes the first
    ``warmup_instructions`` (1,000,000, counted across all threads) from
    the statistics. ``max_cycles`` is a safety net against pathological
    configurations.
    """

    min_instructions: float = 100_000.0
    warmup_instructions: float = 0.0
    max_cycles: float = 5e9

    def __post_init__(self) -> None:
        if self.min_instructions <= 0:
            raise ConfigurationError("min_instructions must be positive")
        if self.warmup_instructions < 0:
            raise ConfigurationError("warmup_instructions must be non-negative")
        if self.max_cycles <= 0:
            raise ConfigurationError("max_cycles must be positive")


class _Snapshot:
    """Raw statistics captured at the end of warmup."""

    def __init__(self, engine: "SoeEngine") -> None:
        self.time = engine.now
        self.idle_cycles = engine.idle_cycles
        self.switch_overhead_cycles = engine.switch_overhead_cycles
        self.threads = [
            (t.retired, t.run_cycles, t.misses, t.miss_switches,
             t.forced_switches, t.cycle_quota_switches)
            for t in engine.threads
        ]


class SoeEngine:
    """The SOE core: dispatches threads, applies the switch policy."""

    def __init__(
        self,
        streams: Sequence[SegmentStream],
        policy: Optional[SwitchPolicy] = None,
        params: SoeParams = SoeParams(),
        recorder: Optional["IntervalRecorderProtocol"] = None,
        sink: Optional[TraceSink] = None,
    ) -> None:
        if len(streams) < 2:
            raise ConfigurationError("the SOE engine needs at least two threads")
        self.params = params
        self.policy = policy if policy is not None else NoFairnessPolicy()
        self.recorder = recorder
        # Tracing is observation only: a disabled (ambient) sink, or one
        # not taking SWITCH events, leaves the hot path one None test.
        trace = resolve_sink(sink)
        self._emit_switch = (
            trace.emit if trace is not None and trace.wants(_TRACE_SWITCH) else None
        )
        self.threads = [EngineThread(i, s) for i, s in enumerate(streams)]
        self.now = 0.0
        self.idle_cycles = 0.0
        self.switch_overhead_cycles = 0.0
        self._active: Optional[EngineThread] = None
        self._dispatch_seq = 0
        self._dispatch_cycles = 0.0

    def _fire_due_boundaries(self, due: bool = False) -> None:
        """Deliver every boundary due at ``now``; ``due=True`` skips the
        fast-path due-check (:meth:`run` made it inline)."""
        policy = self.policy
        recorder = self.recorder
        threshold = self.now + _EPS
        if not due and (
            policy.next_boundary(self.now) > threshold
            and (recorder is None or recorder.next_boundary(self.now) > threshold)
        ):
            return
        for _ in range(MAX_EVENTS):
            fired = False
            # Evaluate each schedule exactly once per iteration: a
            # policy whose ``next_boundary`` advances on query must see
            # the value that passed the guard handed to ``on_boundary``.
            boundary = policy.next_boundary(self.now)
            if boundary <= self.now + _EPS:
                policy.on_boundary(boundary)
                fired = True
            if recorder is not None:
                recorder_boundary = recorder.next_boundary(self.now)
                if recorder_boundary <= self.now + _EPS:
                    recorder.on_boundary(recorder_boundary, self)
                    fired = True
            if not fired:
                return
        states = "; ".join(
            f"T{t.thread_id}: retired={t.retired:.0f} ready_at={t.ready_at:.1f} "
            f"done={t.done} active={t is self._active}"
            for t in self.threads
        )
        raise SimulationError(
            f"boundary callbacks failed to advance their schedule after "
            f"{MAX_EVENTS} firings at t={self.now:.1f} "
            f"({self.now:.1f} cycles elapsed); threads: {states}"
        )

    def _store(self, *state: Any) -> None:
        """Write :meth:`run`'s local engine state back to the engine."""
        (
            self.now,
            self.idle_cycles,
            self.switch_overhead_cycles,
            self._active,
            self._dispatch_seq,
            self._dispatch_cycles,
        ) = state

    def run(self, limits: RunLimits = RunLimits()) -> SoeRunResult:
        """Run until every thread retired ``limits.min_instructions``.

        Returns statistics over the post-warmup window. The event loop
        keeps its state in locals (a call per event cost more than the
        event's arithmetic); :meth:`_store` writes it back before
        anything can observe the engine. Each ``min``/``max`` is a
        branch with the builtin's tie and signed-zero result.
        """
        threads = self.threads
        policy = self.policy
        recorder = self.recorder
        emit = self._emit_switch
        select = (
            policy.select_thread
            if type(policy).select_thread is not SwitchPolicy.select_thread
            else None
        )
        fire = self._fire_due_boundaries
        store = self._store
        policy_next = policy.next_boundary
        rec_at = recorder.next_boundary if recorder is not None else None
        instruction_budget = policy.instruction_budget
        cycle_budget = policy.cycle_budget
        switch_lat, miss_lat = self.params.switch_lat, self.params.miss_lat
        quota = self.params.max_cycles_quota
        min_instructions = limits.min_instructions
        warmup = limits.warmup_instructions
        max_cycles = limits.max_cycles
        isfinite = math.isfinite
        now, idle, overhead = self.now, self.idle_cycles, self.switch_overhead_cycles
        active, seq = self._active, self._dispatch_seq
        dispatch_cycles = self._dispatch_cycles

        snapshot = _Snapshot(self) if warmup == 0 else None
        while True:
            for t in threads:
                if not t.done and t.retired < min_instructions:
                    break
            else:
                break  # every thread finished
            if now >= max_cycles:
                break
            if snapshot is None and sum(t.retired for t in threads) >= warmup:
                store(now, idle, overhead, active, seq, dispatch_cycles)
                snapshot = _Snapshot(self)

            if active is None:
                # Schedule: the least-recently-dispatched ready thread
                # (round robin) unless the policy overrides select_thread.
                threshold = now + _EPS
                thread = None
                if select is not None:
                    ready = tuple(
                        t.thread_id
                        for t in threads
                        if not t.done and t.ready_at <= threshold
                    )
                    choice = select(ready, now) if ready else None
                    if choice is not None:
                        if choice not in ready:
                            store(now, idle, overhead, active, seq, dispatch_cycles)
                            raise SimulationError(
                                f"policy selected thread {choice!r} at "
                                f"t={now:.1f}, but the ready set is {ready}"
                            )
                        thread = threads[choice]
                if thread is None:
                    best_seq = 0
                    for t in threads:
                        if not t.done and t.ready_at <= threshold:
                            if thread is None or t.last_dispatch_seq < best_seq:
                                thread = t
                                best_seq = t.last_dispatch_seq

                capped = False
                if thread is not None:
                    thread.last_dispatch_seq = seq
                    seq += 1
                    active = thread
                    dispatch_cycles = 0.0
                    duration = switch_lat
                else:
                    # Idle until the earliest pending miss resolves.
                    target = None
                    for t in threads:
                        if not t.done and (target is None or t.ready_at < target):
                            target = t.ready_at
                    if target is None or target <= now + _EPS:
                        store(now, idle, overhead, active, seq, dispatch_cycles)
                        raise SimulationError(
                            "no runnable threads and none pending"
                            if target is None
                            else "idle requested while a thread is ready"
                        )
                    # With every ``ready_at`` at or past the cap, idle to
                    # the cap and pin ``now`` there: ``target - now`` would
                    # not advance once ``now`` is within _EPS of the cap.
                    capped = target >= max_cycles
                    duration = (max_cycles if capped else target) - now
                    if emit is not None and (duration > _EPS or not capped):
                        emit(stall(now, duration, "engine"))

                # Inactive span: elapse the switch overhead or idle time,
                # split at boundaries so sampling periods stay exact.
                if duration > _EPS:
                    boundary = policy_next(now)
                    if rec_at is not None and (rb := rec_at(now)) < boundary:
                        boundary = rb
                    # With no boundary ahead, nothing can fire inside the
                    # span (nothing advances a schedule while the core is
                    # not executing): it elapses in one unsplit step.
                    split = boundary != math.inf
                    remaining = duration
                    while remaining > _EPS:
                        if split:
                            boundary = policy_next(now)
                            if rec_at is not None and (rb := rec_at(now)) < boundary:
                                boundary = rb
                        step = boundary - now
                        if step < 0.0:
                            step = 0.0
                        if not step < remaining:
                            step = remaining
                        if step <= _EPS:
                            store(now, idle, overhead, active, seq, dispatch_cycles)
                            fire()
                            continue
                        now += step
                        if isfinite(boundary) and -_EPS <= boundary - now <= _EPS:
                            # Snap off the drift of ``now += step`` so a
                            # boundary cannot fire one iteration late.
                            now = boundary
                        if thread is None:
                            idle += step
                        else:
                            overhead += step
                        remaining -= step
                        threshold = now + _EPS
                        if split and not (
                            policy_next(now) > threshold
                            and (rec_at is None or rec_at(now) > threshold)
                        ):
                            store(now, idle, overhead, active, seq, dispatch_cycles)
                            fire(True)

                if thread is not None:
                    policy.on_run_start(thread.thread_id, now)
                elif capped and now < max_cycles:
                    idle += max_cycles - now
                    now = max_cycles
                continue

            # Active step: advance the active thread to its next event
            # (segment end, either quota, a boundary or the cap).
            thread = active
            assert thread is not None
            tid = thread.thread_id
            boundary = policy_next(now)
            if rec_at is not None and (rb := rec_at(now)) < boundary:
                boundary = rb
            t_boundary = boundary - now
            if t_boundary <= _EPS:
                store(now, idle, overhead, active, seq, dispatch_cycles)
                fire()
                continue
            segment = thread.segment
            if segment is None:
                store(now, idle, overhead, active, seq, dispatch_cycles)
                raise SimulationError(f"thread {tid} has no active segment")
            ipc = thread._segment_ipc
            t_segment = segment.cycles - thread.segment_cycles_done
            if t_segment < 0.0:
                t_segment = 0.0
            instr_budget = instruction_budget(tid)
            t_instr = instr_budget / ipc if isfinite(instr_budget) else math.inf
            t_cycle = cycle_budget(tid)
            if quota - dispatch_cycles < t_cycle:
                t_cycle = quota - dispatch_cycles
            if t_cycle < 0.0:
                t_cycle = 0.0
            t_limit = max_cycles - now
            if t_limit <= _EPS:
                # The step could advance nothing: end the run here (as
                # the batch backend does) instead of spinning at the cap.
                break
            dt = t_segment
            if t_instr < dt:
                dt = t_instr
            if t_cycle < dt:
                dt = t_cycle
            if t_boundary < dt:
                dt = t_boundary
            if t_limit < dt:
                dt = t_limit

            if dt <= _EPS:
                # A zero budget at dispatch: switch at once (segment end
                # beats instruction quota beats cycle quota).
                if t_segment <= _EPS:
                    reason = "segment"
                else:
                    reason = "quota" if t_instr <= _EPS else "cycle_quota"
            else:
                retired = dt * ipc
                thread.segment_cycles_done += dt
                thread.retired += retired
                thread.run_cycles += dt
                dispatch_cycles += dt
                now += dt
                policy.on_retired(tid, retired, dt)
                threshold = now + _EPS
                if not (
                    policy_next(now) > threshold
                    and (rec_at is None or rec_at(now) > threshold)
                ):
                    store(now, idle, overhead, active, seq, dispatch_cycles)
                    fire(True)
                if dt >= t_segment - _EPS and (
                    segment.cycles - thread.segment_cycles_done <= _EPS
                ):
                    reason = "segment"
                elif dt >= t_instr - _EPS:
                    reason = "quota"
                elif dt >= t_cycle - _EPS:
                    reason = "cycle_quota"
                else:
                    continue  # the step ended at a boundary: keep running

            if reason == "segment":
                # Segment completion: account the miss, load the next one.
                latency: Optional[float] = None
                if segment.ends_with_miss:
                    latency = segment.miss_latency
                    if latency is None:
                        latency = miss_lat
                    thread.misses += 1
                    thread.ready_at = now + latency
                else:
                    thread.ready_at = now
                following = next(thread._iterator, None)
                if following is None:
                    thread.segment = None
                    thread.done = True
                else:
                    thread.segment = following
                    thread._segment_ipc = following.instructions / following.cycles
                    thread.segment_cycles_done = 0.0
                if emit is not None:
                    emit(segment_end(now, tid, latency))
                if latency is not None:
                    thread.miss_switches += 1
                    policy.on_miss(tid, now, latency=latency)
                    reason = "miss"
                elif thread.done:
                    reason = "done"
                else:
                    continue  # a rare miss-free join: keep executing
            elif reason == "quota":
                thread.forced_switches += 1
                thread.ready_at = now
            else:
                thread.cycle_quota_switches += 1
                thread.ready_at = now
            if emit is not None:
                emit(thread_switch(now, tid, reason, "engine"))
            policy.on_switch_out(tid, reason, now)
            active = None

        store(now, idle, overhead, active, seq, dispatch_cycles)
        if snapshot is None:
            # The run ended inside warmup; measure the whole run instead
            # of returning an empty window.
            snapshot = _Snapshot(self)
            snapshot.time = 0.0
            snapshot.idle_cycles = 0.0
            snapshot.switch_overhead_cycles = 0.0
            snapshot.threads = [(0.0, 0.0, 0, 0, 0, 0) for _ in threads]
        PROFILE.record_cycles(now)
        return self._build_result(snapshot)

    def _build_result(self, snapshot: _Snapshot) -> SoeRunResult:
        window = self.now - snapshot.time
        if window <= 0:
            raise SimulationError("measurement window is empty; increase run length")
        stats = []
        for thread, base in zip(self.threads, snapshot.threads):
            retired0, cycles0, misses0, msw0, fsw0, qsw0 = base
            stats.append(
                ThreadStats(
                    retired=thread.retired - retired0,
                    run_cycles=thread.run_cycles - cycles0,
                    misses=thread.misses - misses0,
                    miss_switches=thread.miss_switches - msw0,
                    forced_switches=thread.forced_switches - fsw0,
                    cycle_quota_switches=thread.cycle_quota_switches - qsw0,
                )
            )
        return SoeRunResult(
            cycles=window,
            threads=tuple(stats),
            idle_cycles=self.idle_cycles - snapshot.idle_cycles,
            switch_overhead_cycles=(
                self.switch_overhead_cycles - snapshot.switch_overhead_cycles
            ),
        )


class IntervalRecorderProtocol:
    """Structural interface the engine expects from a recorder."""

    def next_boundary(self, now: float) -> float:  # pragma: no cover - protocol
        raise NotImplementedError

    def on_boundary(self, now: float, engine: SoeEngine) -> None:  # pragma: no cover
        raise NotImplementedError


def run_soe(
    streams: Sequence[SegmentStream],
    policy: Optional[SwitchPolicy] = None,
    params: SoeParams = SoeParams(),
    limits: RunLimits = RunLimits(),
    recorder: Optional[IntervalRecorderProtocol] = None,
) -> SoeRunResult:
    """Convenience wrapper: build an engine and run it once."""
    return SoeEngine(streams, policy, params, recorder).run(limits)
