"""Vectorized batch engine: many independent SOE runs as arrays.

The scalar :class:`~repro.engine.soe.SoeEngine` advances one run
event-to-event in Python; a paper-scale grid is thousands of such runs,
all independent. This backend advances a whole batch in lockstep: every
data-parallel iteration moves each unfinished run forward by one
scalar-loop iteration's worth of work, with the per-run state held in
numpy arrays of shape ``(runs,)`` and ``(runs, threads)``.

Each lockstep iteration mirrors the scalar engine's run loop exactly:

* the loop-top checks (finished, ``max_cycles``, the warmup snapshot)
  apply to every run standing at its loop top;
* runs with no active thread schedule: they pick the least-recently-
  dispatched ready thread and elapse its switch overhead (boundary-
  split, like the scalar loop's inactive span), or idle until the
  earliest pending miss resolves;
* runs with an active thread take one step equivalent to the scalar
  loop's active step: the time to the next event is the minimum of
  segment end, instruction-quota exhaustion, cycle-quota exhaustion,
  sampling boundary, and the cycle cap, with the scalar engine's
  tie-breaking order (segment end, then instruction quota, then cycle
  quota).

The fairness mechanism (counters, Eq. 11-13 estimates, Eq. 9 quotas,
deficit counters) is evaluated as arrays across runs with the same
per-thread arithmetic and operation order as the scalar
:class:`~repro.core.controller.FairnessController`, and segments come
from the same Python stream iterators (via
:mod:`repro.workloads.materialize`), so for supported configurations
the per-run arithmetic is the scalar engine's, operation for operation.
docs/SIMULATORS.md states the resulting equivalence guarantees; the
differential test suite enforces them.

Supported configuration envelope (:meth:`BatchBackend.supports`): any
thread count, any :class:`~repro.engine.soe.SoeParams` and
:class:`~repro.engine.soe.RunLimits`, fairness parameters within the
paper's evaluation defaults (no smoothing, no deficit cap, no weights,
no runtime latency measurement), and -- of the residual policy-zoo
policies -- the ``drr-arbiter``, whose fixed-quantum deficit carryover
rides the same deficit-counter arrays with a constant grant size and no
boundary schedule. Recorders and per-event trace sinks are
scalar-only; the batch emits a single batch-level telemetry event
instead.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

from repro.engine.backend import SoeRunSpec
from repro.engine.results import SoeRunResult, ThreadStats
from repro.engine.soe import MAX_EVENTS, _EPS
from repro.errors import ConfigurationError, SimulationError
from repro.telemetry import RUNNER as _TRACE_RUNNER
from repro.telemetry import current_sink
from repro.telemetry.events import batch_event
from repro.workloads.materialize import ChunkedMaterializer

__all__ = ["BatchBackend", "HAVE_NUMPY"]

#: Segments buffered per (run, thread) lane between refills from the
#: Python stream iterator.
_CHUNK = 256

#: Lane states of the lockstep machine. Inactive spans (switch overhead
#: and idle) run to completion inside one iteration, as in the scalar
#: engine, so only the loop-top states persist across iterations.
_SCHED, _RUN, _DONE = 0, 1, 2

#: Sentinel "never dispatched / no thread" markers.
_NO_THREAD = -1

if HAVE_NUMPY:
    #: Shared empty index/mask/value arrays (avoids re-allocating in
    #: the per-iteration hot path).
    _EMPTY_I = np.empty(0, dtype=np.int64)
    _EMPTY_B = np.empty(0, dtype=bool)
    _EMPTY_F = np.empty(0)


def _require_numpy() -> None:
    if not HAVE_NUMPY:
        raise ConfigurationError(
            "the batch engine backend needs numpy, which is not installed"
        )


class BatchBackend:
    """Data-parallel engine backend over numpy arrays."""

    name = "batch"

    def supports(self, spec: SoeRunSpec) -> bool:
        if not HAVE_NUMPY:
            return False
        policy = spec.policy
        if policy is not None:
            # Spec normalization folds batch-capable policy selections
            # into ``fairness``; of the residual policy objects only
            # the DRR arbiter is vectorized (its whole state is a
            # deficit counter with a constant grant), so anything else
            # here is scalar-only by its registry capability flag.
            if policy.name != "drr-arbiter":
                return False
            return True
        fairness = spec.fairness
        if fairness is None:
            return True
        return (
            fairness.smoothing == 0.0
            and fairness.deficit_cap is None
            and fairness.weights is None
            and not fairness.measure_miss_latency
        )

    def run_batch(self, specs: Sequence[SoeRunSpec]) -> list[SoeRunResult]:
        _require_numpy()
        specs = list(specs)
        for index, spec in enumerate(specs):
            if not self.supports(spec):
                raise ConfigurationError(
                    f"spec {index} is outside the batch backend's supported "
                    "configuration envelope (smoothing, deficit_cap, "
                    "weights, and measure_miss_latency must be defaults, "
                    "and of the residual policies only drr-arbiter is "
                    "vectorized); run it on the scalar backend"
                )
        if not specs:
            return []
        sink = current_sink()
        traced = sink.wants(_TRACE_RUNNER)
        if traced:
            sink.emit(batch_event("start", self.name, len(specs)))
        # Lockstep vectorization wants rectangular (runs, threads)
        # arrays, so runs are grouped by thread count and each group
        # advances as one batch.
        by_threads: dict[int, list[int]] = {}
        for index, spec in enumerate(specs):
            by_threads.setdefault(spec.num_threads, []).append(index)
        results: list[Optional[SoeRunResult]] = [None] * len(specs)
        iterations = 0
        for indices in by_threads.values():
            batch = _Batch([specs[index] for index in indices])
            for position, result in zip(indices, batch.run()):
                results[position] = result
            iterations += batch.iterations
        if traced:
            sink.emit(
                batch_event("stop", self.name, len(specs), iterations)
            )
        return [result for result in results if result is not None]


class _Batch:
    """One rectangular batch: N runs with T threads each.

    Per-thread quantities live in flat ``(N * T,)`` arrays indexed by
    ``run * T + thread`` (gathers and scatters on flat indices are the
    hot path); ``*_2d`` reshape views expose the same memory as
    ``(N, T)`` for row-wise reductions.
    """

    def __init__(self, specs: Sequence[SoeRunSpec]) -> None:
        self.iterations = 0
        n = len(specs)
        t = specs[0].num_threads
        self._n = n
        self._t = t

        as_f = lambda values: np.asarray(values, dtype=np.float64)
        # Machine and limit parameters, one entry per run.
        self.switch_lat = as_f([s.params.switch_lat for s in specs])
        self.miss_lat = as_f([s.params.miss_lat for s in specs])
        self.max_quota = as_f([s.params.max_cycles_quota for s in specs])
        self.min_instr = as_f([s.limits.min_instructions for s in specs])
        self.warmup = as_f([s.limits.warmup_instructions for s in specs])
        self.max_cycles = as_f([s.limits.max_cycles for s in specs])

        # Fairness-mechanism parameters. Runs without a controller get
        # an infinite boundary schedule and infinite budgets, which is
        # exactly the scalar NoFairnessPolicy.
        fairness = [s.fairness for s in specs]
        self.has_ctrl = np.asarray(
            [f is not None for f in fairness], dtype=bool
        )
        self.F = as_f([0.0 if f is None else f.fairness_target for f in fairness])
        self.ctrl_lat = as_f([0.0 if f is None else f.miss_lat for f in fairness])
        self.period = as_f(
            [math.inf if f is None else f.sample_period for f in fairness]
        )
        self.min_quota = as_f([1.0 if f is None else f.min_quota for f in fairness])

        # Residual policy runs: supports() admits only the DRR arbiter,
        # whose state is the same deficit machinery with a constant
        # grant -- the quota is pinned to the quantum from t=0 and
        # (fairness is None, so the boundary schedule is infinite) no
        # boundary ever re-sizes it. ``has_grant`` marks every run
        # whose dispatches grant and whose retirements drain a deficit;
        # the counter/estimate machinery stays controller-only.
        policies = [s.policy for s in specs]
        self.has_drr = np.asarray(
            [p is not None for p in policies], dtype=bool
        )
        self.drr_quantum = as_f(
            [0.0 if p is None else p.param("quantum") for p in policies]
        )
        self.has_grant = self.has_ctrl | self.has_drr

        # Engine clock and ledgers.
        self.now = np.zeros(n)
        self.idle = np.zeros(n)
        self.overhead = np.zeros(n)
        self.state = np.full(n, _SCHED, dtype=np.int64)
        self.active = np.full(n, _NO_THREAD, dtype=np.int64)
        self.dispatch_seq = np.zeros(n, dtype=np.int64)
        self.dispatch_cycles = np.zeros(n)
        self.next_boundary = self.period.copy()

        # Per-thread scheduling, statistics, and controller state.
        lanes = n * t
        self.ready_at = np.zeros(lanes)
        self.t_done = np.zeros(lanes, dtype=bool)
        self.last_seq = np.full(lanes, _NO_THREAD, dtype=np.int64)
        self.retired = np.zeros(lanes)
        self.run_cycles = np.zeros(lanes)
        self.misses = np.zeros(lanes, dtype=np.int64)
        self.miss_switches = np.zeros(lanes, dtype=np.int64)
        self.forced_switches = np.zeros(lanes, dtype=np.int64)
        self.cycle_quota_switches = np.zeros(lanes, dtype=np.int64)

        # Current-segment view (gathered from the lane buffers).
        self.seg_cycles = np.zeros(lanes)
        self.seg_ipc = np.zeros(lanes)
        self.seg_miss = np.zeros(lanes, dtype=bool)
        self.seg_lat = np.zeros(lanes)
        self.seg_done_cycles = np.zeros(lanes)

        # Controller state (counters, estimates, quotas, deficits).
        self.cnt_instr = np.zeros(lanes)
        self.cnt_cycles = np.zeros(lanes)
        self.cnt_miss = np.zeros(lanes, dtype=np.int64)
        self.deficit = np.zeros(lanes)
        self.quota = np.full(lanes, math.inf)
        if self.has_drr.any():
            self.quota[:] = np.repeat(
                np.where(self.has_drr, self.drr_quantum, math.inf), t
            )
        self.est_ipm = np.zeros(lanes)
        self.est_cpm = np.zeros(lanes)
        self.est_ipc = np.zeros(lanes)

        # (N, T) views over the flat lane arrays, for row reductions.
        self.ready_at_2d = self.ready_at.reshape(n, t)
        self.t_done_2d = self.t_done.reshape(n, t)
        self.last_seq_2d = self.last_seq.reshape(n, t)
        self.retired_2d = self.retired.reshape(n, t)
        self.cnt_instr_2d = self.cnt_instr.reshape(n, t)
        self.cnt_cycles_2d = self.cnt_cycles.reshape(n, t)
        self.cnt_miss_2d = self.cnt_miss.reshape(n, t)
        self.est_ipm_2d = self.est_ipm.reshape(n, t)
        self.est_cpm_2d = self.est_cpm.reshape(n, t)
        self.est_ipc_2d = self.est_ipc.reshape(n, t)
        self.quota_2d = self.quota.reshape(n, t)

        # Warmup snapshot.
        # repro-lint: disable=RL004 - exact zero warmup, as in the scalar run()
        self.snap_taken = self.warmup == 0.0
        self.snap_time = np.zeros(n)
        self.snap_idle = np.zeros(n)
        self.snap_overhead = np.zeros(n)
        self.snap_retired = np.zeros(lanes)
        self.snap_run_cycles = np.zeros(lanes)
        self.snap_misses = np.zeros(lanes, dtype=np.int64)
        self.snap_miss_switches = np.zeros(lanes, dtype=np.int64)
        self.snap_forced = np.zeros(lanes, dtype=np.int64)
        self.snap_cycle_quota = np.zeros(lanes, dtype=np.int64)

        self._int64_max = np.iinfo(np.int64).max
        # Homogeneity shortcuts: an all-controller batch (the grid's
        # shape) skips per-run controller masks; a no-controller batch
        # never has a boundary to fire.
        self._all_ctrl = bool(self.has_ctrl.all())
        self._any_ctrl = bool(self.has_ctrl.any())
        self._all_grant = bool(self.has_grant.all())
        self._has_cap = bool(np.isfinite(self.max_cycles).any())
        self._all_snapped = bool(self.snap_taken.all())

        # Segment sources, one per flat (run, thread) lane. Lanes whose
        # stream is column-backed (a ColumnStream) are concatenated into
        # single flat arrays and indexed directly -- no per-segment
        # Python at all. Other lanes buffer chunks pulled from the same
        # Python iterators the scalar engine would consume.
        streams = [
            spec.streams[thread] for spec in specs for thread in range(t)
        ]
        self._ptr = np.full(lanes, -1, dtype=np.int64)
        #: Total segments for a columnar lane; current chunk fill for a
        #: chunked lane.
        self._fill = np.zeros(lanes, dtype=np.int64)
        self._is_columnar = np.zeros(lanes, dtype=bool)
        self._col_offset = np.zeros(lanes, dtype=np.int64)
        self._materializers: list[Optional[ChunkedMaterializer]] = []
        parts: tuple[list, list, list, list] = ([], [], [], [])
        total = 0
        for lane, stream in enumerate(streams):
            columns = getattr(stream, "columns", None)
            if columns is not None and len(columns) > 0:
                self._is_columnar[lane] = True
                self._col_offset[lane] = total
                self._fill[lane] = len(columns)
                total += len(columns)
                arrays = columns.arrays_cache
                if arrays is None:
                    arrays = (
                        np.asarray(columns.instructions),
                        np.asarray(columns.cycles),
                        np.asarray(columns.ends_with_miss, dtype=bool),
                        np.asarray(columns.miss_latency),
                    )
                    columns.arrays_cache = arrays
                parts[0].append(arrays[0])
                parts[1].append(arrays[1])
                parts[2].append(arrays[2])
                parts[3].append(arrays[3])
                self._materializers.append(None)
            else:
                self._materializers.append(
                    ChunkedMaterializer(stream, chunk_size=_CHUNK)
                )
        if total:
            instructions = np.concatenate(parts[0])
            self._cat_cycles = np.concatenate(parts[1])
            # The same division EngineThread performs at segment load.
            self._cat_ipc = instructions / self._cat_cycles
            self._cat_miss = np.concatenate(parts[2])
            latency = np.concatenate(parts[3])
            lane_default = np.repeat(self.miss_lat, t)
            defaults = np.repeat(
                lane_default[self._is_columnar],
                self._fill[self._is_columnar],
            )
            self._cat_lat = np.where(np.isnan(latency), defaults, latency)
        if not self._is_columnar.all():
            self._buf_cycles = np.zeros((lanes, _CHUNK))
            self._buf_ipc = np.zeros((lanes, _CHUNK))
            self._buf_miss = np.zeros((lanes, _CHUNK), dtype=bool)
            self._buf_lat = np.zeros((lanes, _CHUNK))
        self._load_segments(np.arange(lanes, dtype=np.int64))

    # ------------------------------------------------------------------
    # Segment buffers
    # ------------------------------------------------------------------
    def _refill(self, lane: int) -> None:
        materializer = self._materializers[lane]
        assert materializer is not None
        chunk = materializer.take(_CHUNK)
        count = len(chunk)
        self._ptr[lane] = 0
        self._fill[lane] = count
        if count == 0:
            return
        instructions = np.asarray(chunk.instructions)
        cycles = np.asarray(chunk.cycles)
        self._buf_cycles[lane, :count] = cycles
        # The same division EngineThread performs at segment load.
        self._buf_ipc[lane, :count] = instructions / cycles
        self._buf_miss[lane, :count] = chunk.ends_with_miss
        default = self.miss_lat[lane // self._t]
        latency = np.asarray(chunk.miss_latency)
        self._buf_lat[lane, :count] = np.where(
            np.isnan(latency), default, latency
        )

    def _load_segments(self, lanes: "np.ndarray") -> None:
        """Advance each lane to its next segment (the segment load in the
        scalar loop's segment completion); lanes whose stream ended are
        marked done."""
        if lanes.size == 0:
            return
        self._ptr[lanes] += 1
        columnar = self._is_columnar[lanes]
        if columnar.all():
            self._load_columnar(lanes)
        elif not columnar.any():
            self._load_chunked(lanes)
        else:
            self._load_columnar(lanes[columnar])
            self._load_chunked(lanes[~columnar])

    def _load_columnar(self, lanes: "np.ndarray") -> None:
        have = self._ptr[lanes] < self._fill[lanes]
        if have.all():
            loaded = lanes
        else:
            loaded = lanes[have]
            self.t_done[lanes[~have]] = True
        source = self._col_offset[loaded] + self._ptr[loaded]
        self.seg_cycles[loaded] = self._cat_cycles[source]
        self.seg_ipc[loaded] = self._cat_ipc[source]
        self.seg_miss[loaded] = self._cat_miss[source]
        self.seg_lat[loaded] = self._cat_lat[source]
        self.seg_done_cycles[loaded] = 0.0

    def _load_chunked(self, lanes: "np.ndarray") -> None:
        exhausted = lanes[self._ptr[lanes] >= self._fill[lanes]]
        for lane in exhausted.tolist():
            self._refill(lane)
        have = self._ptr[lanes] < self._fill[lanes]
        loaded = lanes[have]
        pointers = self._ptr[loaded]
        self.seg_cycles[loaded] = self._buf_cycles[loaded, pointers]
        self.seg_ipc[loaded] = self._buf_ipc[loaded, pointers]
        self.seg_miss[loaded] = self._buf_miss[loaded, pointers]
        self.seg_lat[loaded] = self._buf_lat[loaded, pointers]
        self.seg_done_cycles[loaded] = 0.0
        self.t_done[lanes[~have]] = True

    # ------------------------------------------------------------------
    # Fairness controller, vectorized across runs
    # ------------------------------------------------------------------
    def _on_boundary(self, runs: "np.ndarray") -> None:
        """One Delta boundary for each run in ``runs``: sample-and-reset
        counters, Eq. 11-13 estimates, Eq. 9 quotas, advance the
        schedule. Matches FairnessController.on_boundary op-for-op."""
        instr = self.cnt_instr_2d[runs]
        cycles = self.cnt_cycles_2d[runs]
        misses = self.cnt_miss_2d[runs]
        self.cnt_instr_2d[runs] = 0.0
        self.cnt_cycles_2d[runs] = 0.0
        self.cnt_miss_2d[runs] = 0
        # repro-lint: disable=RL004 - exact zero means "never retired"
        empty = instr == 0.0
        divisor = np.maximum(misses, 1)
        ipm = instr / divisor
        cpm = cycles / divisor
        latency = self.ctrl_lat[runs, None]
        # run() suppresses invalid/divide warnings batch-wide: np.where
        # evaluates both branches, so masked-out lanes transiently
        # produce inf/nan the scalar controller never computes.
        ipc = np.where(empty, 0.0, ipm / (cpm + latency))
        # An empty window carries the previous estimate over (including
        # the all-zero "no information yet" estimate).
        self.est_ipm_2d[runs] = np.where(empty, self.est_ipm_2d[runs], ipm)
        self.est_cpm_2d[runs] = np.where(empty, self.est_cpm_2d[runs], cpm)
        self.est_ipc_2d[runs] = np.where(empty, self.est_ipc_2d[runs], ipc)

        est_ipm = self.est_ipm_2d[runs]
        est_cpm = self.est_cpm_2d[runs]
        est_ipc = self.est_ipc_2d[runs]
        usable = est_ipc > 0.0
        scale = np.min(
            np.where(usable, est_cpm + latency, math.inf), axis=1
        )
        target = self.F[runs]
        quota = est_ipc * scale[:, None] / target[:, None]
        quota = np.minimum(est_ipm, quota)
        quota = np.maximum(quota, self.min_quota[runs, None])
        # Unusable estimates, F = 0 runs, and no-usable-thread runs all
        # yield infinite quotas (switch only on misses).
        # repro-lint: disable=RL004 - F=0 is an exact, validated sentinel
        no_enforce = (
            ~usable
            | (target[:, None] == 0.0)
            | ~np.any(usable, axis=1)[:, None]
        )
        self.quota_2d[runs] = np.where(no_enforce, math.inf, quota)

        # Advance the schedule. The engine hands ``on_boundary`` the
        # boundary value it queried, so the controller's
        # ``while next <= now`` loop advances exactly one period per
        # firing; the engine's fire loop absorbs any backlog. The same
        # single `+=` keeps the schedule's float accumulation identical.
        self.next_boundary[runs] += self.period[runs]

    def _fire_due_boundaries(self, runs: "np.ndarray") -> None:
        if runs.size == 0 or not self._any_ctrl:
            return
        for _ in range(MAX_EVENTS):
            due = self.next_boundary[runs] <= self.now[runs] + _EPS
            if not due.any():
                return
            self._on_boundary(runs[due])
        raise SimulationError(
            "batch boundary callbacks failed to advance their schedule "
            f"after {MAX_EVENTS} firings"
        )

    def _grant(self, lanes: "np.ndarray") -> None:
        """DeficitCounter.grant at switch-in: an infinite quota floods
        the counter; a finite grant first collapses a stale infinity."""
        quota = self.quota[lanes]
        deficit = self.deficit[lanes]
        self.deficit[lanes] = np.where(
            np.isinf(quota),
            math.inf,
            np.where(np.isinf(deficit), 0.0, deficit) + quota,
        )

    # ------------------------------------------------------------------
    # Lockstep phases
    # ------------------------------------------------------------------
    def _loop_top_checks(self, runs: "np.ndarray") -> "np.ndarray":
        """The scalar run loop's per-iteration prologue: stop finished
        or capped runs, take warmup snapshots. Returns the runs that
        continue this iteration."""
        retired = self.retired_2d[runs]
        alive = ~self.t_done_2d[runs] & (
            retired < self.min_instr[runs, None]
        )
        stop = ~np.any(alive, axis=1)
        if self._has_cap:
            stop |= self.now[runs] >= self.max_cycles[runs]
        if stop.any():
            self.state[runs[stop]] = _DONE
            keep = ~stop
            runs = runs[keep]
            retired = retired[keep]
            if runs.size == 0:
                return runs
        if self._all_snapped:
            return runs
        need_snap = ~self.snap_taken[runs]
        if need_snap.any():
            need_snap[need_snap] = (
                np.sum(retired[need_snap], axis=1)
                >= self.warmup[runs[need_snap]]
            )
            if need_snap.any():
                snap = runs[need_snap]
                self.snap_taken[snap] = True
                self.snap_time[snap] = self.now[snap]
                self.snap_idle[snap] = self.idle[snap]
                self.snap_overhead[snap] = self.overhead[snap]
                rows = (
                    snap[:, None] * self._t + np.arange(self._t)
                ).ravel()
                self.snap_retired[rows] = self.retired[rows]
                self.snap_run_cycles[rows] = self.run_cycles[rows]
                self.snap_misses[rows] = self.misses[rows]
                self.snap_miss_switches[rows] = self.miss_switches[rows]
                self.snap_forced[rows] = self.forced_switches[rows]
                self.snap_cycle_quota[rows] = self.cycle_quota_switches[rows]
                # Runs that stopped inside warmup never snapshot and
                # never come back: once every *continuing* run has its
                # snapshot, the check can retire for good.
                self._all_snapped = bool(self.snap_taken[runs].all())
        return runs

    def _elapse_span(
        self, runs: "np.ndarray", spans: "np.ndarray", idle: "np.ndarray"
    ) -> None:
        """Pass inactive time to completion, splitting at boundaries --
        one full inactive span of the scalar run loop per run,
        data-parallel.
        ``idle`` marks, per run, whether the span accrues to the idle
        counter (True) or to switch overhead (False)."""
        # Fast path: no span reaches within _EPS of its run's next
        # boundary, so every run elapses in a single unsplit step --
        # the same one `now += duration` the scalar engine performs
        # when the boundary lies beyond the span.
        live_m = spans > _EPS
        moved = self.now[runs] + spans
        if bool(((moved < self.next_boundary[runs] - _EPS) | ~live_m).all()):
            if live_m.all():
                idx, step, was_idle = runs, spans, idle
            else:
                idx = runs[live_m]
                step = spans[live_m]
                was_idle = idle[live_m]
                moved = moved[live_m]
            self.now[idx] = moved
            if was_idle.all():
                self.idle[idx] += step
            elif not was_idle.any():
                self.overhead[idx] += step
            else:
                self.idle[idx[was_idle]] += step[was_idle]
                self.overhead[idx[~was_idle]] += step[~was_idle]
            return
        remaining = spans.copy()
        while True:
            live = np.flatnonzero(remaining > _EPS)
            if live.size == 0:
                return
            idx = runs[live]
            boundary = self.next_boundary[idx]
            now = self.now[idx]
            step = np.minimum(
                remaining[live], np.maximum(boundary - now, 0.0)
            )
            stuck = step <= _EPS
            if stuck.any():
                # The span starts on a due boundary: fire it first, the
                # next pass sees the advanced schedule.
                self._fire_due_boundaries(idx[stuck])
                go = ~stuck
                live, idx = live[go], idx[go]
                if live.size == 0:
                    continue
                step, boundary, now = step[go], boundary[go], now[go]
            moved = now + step
            # Snap onto a boundary the step lands within _EPS of, so
            # sampling periods stay exact despite += drift.
            snap = np.isfinite(boundary) & (np.abs(boundary - moved) <= _EPS)
            self.now[idx] = np.where(snap, boundary, moved)
            was_idle = idle[live]
            if was_idle.all():
                self.idle[idx] += step
            elif not was_idle.any():
                self.overhead[idx] += step
            else:
                self.idle[idx[was_idle]] += step[was_idle]
                self.overhead[idx[~was_idle]] += step[~was_idle]
            remaining[live] -= step
            self._fire_due_boundaries(idx)

    def _schedule(self, runs: "np.ndarray") -> "np.ndarray":
        """Dispatch every scheduling run, idling first where no thread
        is ready; returns the runs that dispatched (they stand at the
        scalar loop top, ready to step).

        In the scalar engine an idle span returns to the loop top and
        dispatches on the next iteration. Idling changes nothing the
        loop-top prologue tests except ``now`` -- retirement and stream
        exhaustion are untouched -- so after re-checking only the cycle
        cap, idled runs re-enter scheduling within the same call. That
        fuses the scalar's [idle] [dispatch] iteration pair into one
        lockstep iteration without changing any run's event sequence.
        """
        dispatched: list["np.ndarray"] = []
        for _ in range(MAX_EVENTS):
            if runs.size == 0:
                break
            now = self.now[runs]
            ready = ~self.t_done_2d[runs] & (
                self.ready_at_2d[runs] <= now[:, None] + _EPS
            )
            any_ready = np.any(ready, axis=1)
            all_ready = any_ready.all()

            dispatch = runs if all_ready else runs[any_ready]
            idlers = _EMPTY_I if all_ready else runs[~any_ready]
            spans = (
                np.empty(runs.size) if not all_ready else _EMPTY_F
            )
            lanes = _EMPTY_I
            beyond = _EMPTY_B
            cap = _EMPTY_F
            if dispatch.size:
                seq = np.where(
                    ready if all_ready else ready[any_ready],
                    self.last_seq_2d[dispatch],
                    self._int64_max,
                )
                # argmin's first-minimum tie-break reproduces the
                # scalar scan, which keeps the lowest thread id among
                # least recently dispatched ready threads.
                pick = np.argmin(seq, axis=1)
                lanes = dispatch * self._t + pick
                self.last_seq[lanes] = self.dispatch_seq[dispatch]
                self.dispatch_seq[dispatch] += 1
                self.active[dispatch] = pick
                self.dispatch_cycles[dispatch] = 0.0
                if all_ready:
                    spans = self.switch_lat[dispatch]
                else:
                    spans[any_ready] = self.switch_lat[dispatch]
            if idlers.size:
                pending = np.min(
                    np.where(
                        self.t_done_2d[idlers],
                        math.inf,
                        self.ready_at_2d[idlers],
                    ),
                    axis=1,
                )
                cap = self.max_cycles[idlers]
                beyond = pending >= cap
                spans[~any_ready] = np.where(
                    beyond,
                    np.maximum(cap - self.now[idlers], 0.0),
                    pending - self.now[idlers],
                )
            # One fused pass: switch overhead for dispatchers, idle
            # waiting for the rest. The scalar interleaving is
            # preserved because the runs are independent and the spans
            # were fixed above.
            self._elapse_span(runs, spans, idle=~any_ready)
            if dispatch.size:
                if self._all_grant:
                    self._grant(lanes)
                else:
                    grants = self.has_grant[dispatch]
                    if grants.any():
                        self._grant(lanes[grants])
                self.state[dispatch] = _RUN
                dispatched.append(dispatch)
            if idlers.size == 0:
                break
            if beyond.any():
                # Every pending readiness lies at or beyond the hard
                # cycle cap: pin ``now`` to the cap so the loop-top
                # check terminates the run (the scalar cap-clamp path).
                pin = idlers[beyond]
                short = self.now[pin] < cap[beyond]
                self.idle[pin] += np.where(
                    short, cap[beyond] - self.now[pin], 0.0
                )
                self.now[pin] = np.where(short, cap[beyond], self.now[pin])
                idlers = idlers[~beyond]
            # The idled runs return to the scalar loop top; only the
            # cycle-cap test can newly trip there, so apply it and
            # reschedule the survivors immediately.
            if self._has_cap:
                capped = self.now[idlers] >= self.max_cycles[idlers]
                if capped.any():
                    self.state[idlers[capped]] = _DONE
                    idlers = idlers[~capped]
            runs = idlers
        if not dispatched:
            return _EMPTY_I
        if len(dispatched) == 1:
            return dispatched[0]
        return np.concatenate(dispatched)

    def _complete_segments(self, runs: "np.ndarray") -> None:
        """The scalar loop's segment completion: account the terminating
        miss (if any), park or release the thread, load the next
        segment, and switch out unless this is a miss-free join."""
        lanes = runs * self._t + self.active[runs]
        ends_miss = self.seg_miss[lanes]
        self.misses[lanes] += ends_miss
        self.ready_at[lanes] = self.now[runs] + np.where(
            ends_miss, self.seg_lat[lanes], 0.0
        )
        self._load_segments(lanes)

        missed = lanes[ends_miss]
        if missed.size:
            self.miss_switches[missed] += 1
            if self._all_ctrl:
                self.cnt_miss[missed] += 1
            else:
                ctrl = missed[self.has_ctrl[runs[ends_miss]]]
                self.cnt_miss[ctrl] += 1
            out = runs[ends_miss]
            self.active[out] = _NO_THREAD
            self.state[out] = _SCHED

        joined = ~ends_miss
        if joined.any():
            # A thread whose stream ended switches out; a miss-free
            # join keeps executing the next segment in this dispatch.
            ended = self.t_done[lanes[joined]]
            out = runs[joined][ended]
            self.active[out] = _NO_THREAD
            self.state[out] = _SCHED

    def _switch_out(self, runs: "np.ndarray", counter: "np.ndarray") -> None:
        """A quota-forced switch: the thread stays ready immediately."""
        lanes = runs * self._t + self.active[runs]
        counter[lanes] += 1
        self.ready_at[lanes] = self.now[runs]
        self.active[runs] = _NO_THREAD
        self.state[runs] = _SCHED

    def _step_active(self, runs: "np.ndarray") -> None:
        """One scalar-loop active step per run: advance the active
        thread to its next event and classify what ended the step."""
        if runs.size == 0:
            return
        now = self.now[runs]
        boundary = self.next_boundary[runs]
        t_boundary = np.maximum(boundary - now, 0.0)
        at_boundary = t_boundary <= _EPS
        if at_boundary.any():
            # The scalar engine fires and returns to its loop top; the
            # checks there are no-ops (nothing changed), so firing and
            # re-reading the schedule continues the step directly.
            due = runs[at_boundary]
            self._fire_due_boundaries(due)
            t_boundary[at_boundary] = np.maximum(
                self.next_boundary[due] - now[at_boundary], 0.0
            )

        lanes = runs * self._t + self.active[runs]
        ipc = self.seg_ipc[lanes]
        t_segment = np.maximum(
            self.seg_cycles[lanes] - self.seg_done_cycles[lanes], 0.0
        )
        if self._all_grant:
            budget = self.deficit[lanes]
        else:
            budget = np.where(
                self.has_grant[runs], self.deficit[lanes], math.inf
            )
        t_instr = budget / ipc
        t_cycle = np.maximum(
            self.max_quota[runs] - self.dispatch_cycles[runs], 0.0
        )
        if self._has_cap:
            t_limit = np.maximum(self.max_cycles[runs] - now, 0.0)
            dt = np.minimum(
                np.minimum(np.minimum(t_segment, t_instr), t_cycle),
                np.minimum(t_boundary, t_limit),
            )
            # A run whose remaining headroom is below _EPS (but not yet
            # zero) can advance nothing more: the scalar active step
            # ends such a run at this point, and so does this one.
            limited = t_limit <= _EPS
            if limited.any():
                self.state[runs[limited]] = _DONE
                keep = ~limited
                runs, lanes, ipc = runs[keep], lanes[keep], ipc[keep]
                t_segment, t_instr = t_segment[keep], t_instr[keep]
                t_cycle, dt = t_cycle[keep], dt[keep]
                if runs.size == 0:
                    return
        else:
            dt = np.minimum(
                np.minimum(t_segment, t_instr),
                np.minimum(t_cycle, t_boundary),
            )

        # Zero budget at dispatch: immediate switch, with the scalar
        # tie-breaking order (segment end, instruction quota, cycle
        # quota).
        zero = dt <= _EPS
        if zero.any():
            z_runs = runs[zero]
            z_seg = t_segment[zero] <= _EPS
            z_instr = ~z_seg & (t_instr[zero] <= _EPS)
            z_cycle = ~z_seg & ~z_instr
            if z_seg.any():
                self._complete_segments(z_runs[z_seg])
            if z_instr.any():
                self._switch_out(z_runs[z_instr], self.forced_switches)
            if z_cycle.any():
                self._switch_out(z_runs[z_cycle], self.cycle_quota_switches)
            keep = ~zero
            runs, lanes, ipc = runs[keep], lanes[keep], ipc[keep]
            t_segment, t_instr = t_segment[keep], t_instr[keep]
            t_cycle, dt = t_cycle[keep], dt[keep]
            if runs.size == 0:
                return

        retired = dt * ipc
        self.seg_done_cycles[lanes] += dt
        self.retired[lanes] += retired
        self.run_cycles[lanes] += dt
        self.dispatch_cycles[runs] += dt
        self.now[runs] += dt
        # Policy retirement callbacks. Counter accumulation is the
        # fairness controller's alone; the deficit consume (clamped at
        # zero; an infinite deficit never shrinks) is shared by the
        # controller and the DRR arbiter, whose on_retired is exactly
        # this consume with no counters.
        if self._all_ctrl:
            c_lanes, c_retired, c_dt = lanes, retired, dt
        else:
            ctrl = self.has_ctrl[runs]
            c_lanes = lanes[ctrl] if not ctrl.all() else lanes
            c_retired, c_dt = retired[ctrl], dt[ctrl]
        if c_lanes.size:
            self.cnt_instr[c_lanes] += c_retired
            self.cnt_cycles[c_lanes] += c_dt
        if self._all_grant:
            g_lanes, g_retired = lanes, retired
        else:
            grants = self.has_grant[runs]
            g_lanes = lanes[grants] if not grants.all() else lanes
            g_retired = retired[grants]
        if g_lanes.size:
            deficit = self.deficit[g_lanes]
            self.deficit[g_lanes] = np.where(
                np.isinf(deficit),
                deficit,
                np.maximum(0.0, deficit - g_retired),
            )
        self._fire_due_boundaries(runs)

        ends_segment = (dt >= t_segment - _EPS) & (
            self.seg_cycles[lanes] - self.seg_done_cycles[lanes] <= _EPS
        )
        ends_instr = ~ends_segment & (dt >= t_instr - _EPS)
        ends_cycle = ~ends_segment & ~ends_instr & (dt >= t_cycle - _EPS)
        if ends_segment.any():
            self._complete_segments(runs[ends_segment])
        if ends_instr.any():
            self._switch_out(runs[ends_instr], self.forced_switches)
        if ends_cycle.any():
            self._switch_out(runs[ends_cycle], self.cycle_quota_switches)
        # Remaining runs ended at a boundary: same thread keeps running.

    # ------------------------------------------------------------------
    def run(self) -> list[SoeRunResult]:
        # np.where evaluates both branches, so masked-out lanes can
        # transiently divide by zero or produce inf*0 where the scalar
        # engine's guarded scalar code never would; the results are
        # always discarded by the mask. Suppress batch-wide.
        with np.errstate(invalid="ignore", divide="ignore"):
            return self._run_loop()

    def _run_loop(self) -> list[SoeRunResult]:
        state = self.state
        while True:
            live = np.flatnonzero(state != _DONE)
            if live.size == 0:
                break
            self.iterations += 1
            # Every live run stands at the scalar loop top.
            runs = self._loop_top_checks(live)
            if runs.size == 0:
                continue
            sched_m = state[runs] == _SCHED
            dispatched = self._schedule(runs[sched_m])
            if dispatched.size and self._has_cap:
                # Dispatch elapsed switch overhead, so of the scalar
                # loop-top checks only the max_cycles test can newly
                # trip before the first step.
                capped = (
                    self.now[dispatched] >= self.max_cycles[dispatched]
                )
                if capped.any():
                    state[dispatched[capped]] = _DONE
                    dispatched = dispatched[~capped]
            # Runs that stood at _RUN stayed there; the dispatched ones
            # just joined them (order within the step is immaterial --
            # every operation is element-aligned per run).
            was_running = runs[~sched_m]
            if dispatched.size:
                running = np.concatenate((was_running, dispatched))
            else:
                running = was_running
            self._step_active(running)
        return [self._build_result(run) for run in range(self._n)]

    def _build_result(self, run: int) -> SoeRunResult:
        t = self._t
        base = run * t
        if self.snap_taken[run]:
            window = float(self.now[run] - self.snap_time[run])
            idle = float(self.idle[run] - self.snap_idle[run])
            overhead = float(self.overhead[run] - self.snap_overhead[run])
            snap_retired = self.snap_retired
            snap_cycles = self.snap_run_cycles
            snap_misses = self.snap_misses
            snap_msw = self.snap_miss_switches
            snap_fsw = self.snap_forced
            snap_qsw = self.snap_cycle_quota
        else:
            # The run ended inside warmup; measure the whole run, as
            # the scalar engine does.
            window = float(self.now[run])
            idle = float(self.idle[run])
            overhead = float(self.overhead[run])
            zeros_f = np.zeros(self._n * t)
            zeros_i = np.zeros(self._n * t, dtype=np.int64)
            snap_retired = snap_cycles = zeros_f
            snap_misses = snap_msw = snap_fsw = snap_qsw = zeros_i
        if window <= 0:
            raise SimulationError(
                "measurement window is empty; increase run length"
            )
        stats = tuple(
            ThreadStats(
                retired=float(self.retired[base + i] - snap_retired[base + i]),
                run_cycles=float(
                    self.run_cycles[base + i] - snap_cycles[base + i]
                ),
                misses=int(self.misses[base + i] - snap_misses[base + i]),
                miss_switches=int(
                    self.miss_switches[base + i] - snap_msw[base + i]
                ),
                forced_switches=int(
                    self.forced_switches[base + i] - snap_fsw[base + i]
                ),
                cycle_quota_switches=int(
                    self.cycle_quota_switches[base + i] - snap_qsw[base + i]
                ),
            )
            for i in range(t)
        )
        return SoeRunResult(
            cycles=window,
            threads=stats,
            idle_cycles=idle,
            switch_overhead_cycles=overhead,
        )
