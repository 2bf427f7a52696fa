"""Span tracer for the benchmark's traced runs.

The program is never edited: :func:`install` replaces the public
functions at each layer boundary with timing wrappers, from outside,
and :meth:`Tracer.uninstall` puts the originals back. Task boundaries
are the module-level callables the supervisor hands its workers
(``runner._run_grid_task``, ``runner._run_shard_task`` and the
service's ``app._execute_job``); they have no public equivalent. Each wrapped call
records one span ``[name, start, end, parent, gen_s, drawn, extra]`` in
memory; ``gen_s``/``drawn`` are the segment-generation seconds and
segments drawn while the span was open, so every layer's self time can
exclude the generation that happened inside it. Generation itself is
not a span per segment (295k of them per grid) but a counter bumped by
a timed iterator around each ``BenchmarkProfile.stream``.

Pool and per-task worker processes are forked, so they inherit the
wrappers. A forked worker drops the spans it inherited, records its
own, and appends them to ``worker-<pid>.jsonl`` in the trace directory
when each task returns; :meth:`Tracer.collect` merges those files into
the parent's span list when the run ends. Clocks are
``time.perf_counter`` (CLOCK_MONOTONIC on Linux), shared by all
processes of the host.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

clock = time.perf_counter

#: Span names whose calls are one supervised task on some worker.
TASK_SPANS = ("task", "shard")


class Tracer:
    """In-memory spans and generation counters of one process tree."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: List[list] = []
        #: one ``[stream key, segments drawn]`` cell per stream iterator
        self.draws: List[list] = []
        self.gen_s = 0.0
        self.drawn = 0
        self._local = threading.local()
        self._patched: List[tuple] = []

    # -- recording ------------------------------------------------------

    def _adopt(self) -> None:
        """In a freshly forked worker, forget what the parent recorded."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.draws = []
            self.gen_s = 0.0
            self.drawn = 0
            self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        func: Callable,
        extra: Optional[Callable] = None,
        flush: bool = False,
    ) -> Callable:
        """``func`` recording one span per call.

        ``extra(args, result)`` computes the span's payload (a count or
        a small list); ``flush`` marks a task boundary, after which a
        forked worker writes out what it recorded.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args: object, **kwargs: object) -> object:
            tracer._adopt()
            stack = tracer._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else None, 0.0, 0, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            gen_before, drawn_before = tracer.gen_s, tracer.drawn
            record[1] = clock()
            try:
                result = func(*args, **kwargs)
                if extra is not None:
                    record[6] = extra(args, result)
                return result
            finally:
                record[2] = clock()
                record[4] = tracer.gen_s - gen_before
                record[5] = tracer.drawn - drawn_before
                stack.pop()
                if flush and not stack and os.getpid() != tracer.root_pid:
                    tracer._flush_worker()

        return traced

    def timed_segments(self, iterator, cell: list):
        """Yield from ``iterator``, charging each draw to generation."""
        draw = iterator.__next__
        while True:
            start = clock()
            try:
                segment = draw()
            except StopIteration:
                return
            self.gen_s += clock() - start
            self.drawn += 1
            cell[1] += 1
            yield segment

    def _flush_worker(self) -> None:
        line = json.dumps(
            {"spans": self.spans, "draws": self.draws, "gen_s": self.gen_s}
        )
        with open(self.out_dir / f"worker-{self.pid}.jsonl", "a") as handle:
            handle.write(line + "\n")
        self.spans = []
        self.draws = []
        self.gen_s = 0.0
        self.drawn = 0

    # -- patching -------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- collection -----------------------------------------------------

    def collect(self) -> "Trace":
        """This process's spans plus every worker's, as one :class:`Trace`."""
        spans = [list(span) + [self.root_pid] for span in self.spans]
        draws = [list(cell) for cell in self.draws]
        gen_s = self.gen_s
        for path in sorted(self.out_dir.glob("worker-*.jsonl")):
            pid = int(path.stem.split("-", 1)[1])
            for line in path.read_text().splitlines():
                batch = json.loads(line)
                offset = len(spans)
                for span in batch["spans"]:
                    if span[3] is not None:
                        span[3] += offset
                    spans.append(span + [pid])
                draws.extend(batch["draws"])
                gen_s += batch["gen_s"]
        return Trace(spans, draws, gen_s)


def _batch_extra(args: tuple, result: object) -> list:
    """``[segments of all lanes, longest lane, lanes]`` of one batch."""
    specs = args[1]
    lanes = [
        sum(
            cell[1]
            for stream in spec.streams
            for cell in getattr(stream, "perfbench_cells", ())
        )
        for spec in specs
    ]
    return [sum(lanes), max(lanes, default=0), len(lanes)]


def _records_extra(args: tuple, result: object) -> int:
    return len(args[1]) if isinstance(args[1], list) else 1


def install(tracer: Tracer, batch: bool = False, service: bool = False) -> None:
    """Wrap every layer boundary the workload crosses.

    ``batch`` also wraps the vectorized backend (importing numpy, which
    the scalar workload never does); ``service`` wraps the job journal
    and the pool's job callable.
    """
    from repro.engine import backend
    from repro.engine.segments import SegmentStream
    from repro.experiments import checkpoint, runner, supervisor
    from repro.workloads import profiles

    original_stream = profiles.BenchmarkProfile.stream

    def stream(profile: object, seed: int = 0, skip_instructions: float = 0.0):
        inner = original_stream(profile, seed=seed, skip_instructions=skip_instructions)
        key = f"{inner.name}/{seed}/{skip_instructions!r}"
        cells: list = []

        def factory():
            tracer._adopt()
            cell = [key, 0]
            tracer.draws.append(cell)
            cells.append(cell)
            return tracer.timed_segments(inner.segments(), cell)

        wrapped = SegmentStream(factory, name=inner.name)
        wrapped.perfbench_cells = cells
        return wrapped

    tracer.patch(profiles.BenchmarkProfile, "stream", stream)
    soe = tracer.wrap("engine.soe", runner.run_soe)
    tracer.patch(runner, "run_soe", soe)
    tracer.patch(backend, "run_soe", soe)
    tracer.patch(
        runner, "run_single_thread", tracer.wrap("engine.st", runner.run_single_thread)
    )
    tracer.patch(
        runner, "_run_grid_task", tracer.wrap("task", runner._run_grid_task, flush=True)
    )
    tracer.patch(
        runner,
        "_run_shard_task",
        tracer.wrap("shard", runner._run_shard_task, flush=True),
    )
    tracer.patch(
        supervisor.Supervisor,
        "run",
        tracer.wrap("supervisor.phase", supervisor.Supervisor.run),
    )
    writer = checkpoint.CheckpointWriter
    for attr in ("record", "record_many"):
        tracer.patch(
            writer,
            attr,
            tracer.wrap("checkpoint.write", getattr(writer, attr), _records_extra),
        )
    tracer.patch(
        runner.ResultCache, "load", tracer.wrap("cache.load", runner.ResultCache.load)
    )
    tracer.patch(
        runner.ResultCache,
        "store",
        tracer.wrap("cache.store", runner.ResultCache.store),
    )
    if batch:
        from repro.engine.batch import BatchBackend

        tracer.patch(
            BatchBackend,
            "run_batch",
            tracer.wrap("engine.batch", BatchBackend.run_batch, _batch_extra),
        )
    if service:
        from repro.service import app, state

        tracer.patch(app, "_execute_job", tracer.wrap("task", app._execute_job, flush=True))
        for attr in ("record_spec", "record_done", "record_fail"):
            tracer.patch(
                state.JobJournal,
                attr,
                tracer.wrap("service.journal", getattr(state.JobJournal, attr)),
            )


class Trace:
    """Merged spans of one traced execution, and the layer metrics."""

    def __init__(self, spans: list, draws: list, gen_s: float) -> None:
        #: ``[name, start, end, parent, gen_s, drawn, extra, pid]``
        self.spans = spans
        self.draws = draws
        self.gen_s = gen_s
        self._children: Dict[int, List[int]] = {}
        for index, span in enumerate(spans):
            if span[3] is not None:
                self._children.setdefault(span[3], []).append(index)

    def named(self, name: str) -> List[list]:
        return [span for span in self.spans if span[0] == name]

    def self_time(self, index: int) -> float:
        """Duration minus direct children and generation not in them."""
        span = self.spans[index]
        children = [self.spans[child] for child in self._children.get(index, ())]
        covered = sum(child[2] - child[1] for child in children)
        gen = span[4] - sum(child[4] for child in children)
        return (span[2] - span[1]) - covered - gen

    def _self_sum(self, name: str) -> float:
        return sum(
            self.self_time(index)
            for index, span in enumerate(self.spans)
            if span[0] == name
        )

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "gen_s", "drawn", "extra", "pid")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, jobs: int) -> Dict[str, float]:
        """Per-layer counts and self times (see ``perfbench/README.md``)."""
        metrics: Dict[str, float] = {}
        drawn = sum(cell[1] for cell in self.draws)
        longest: Dict[str, int] = {}
        for key, count in self.draws:
            longest[key] = max(longest.get(key, 0), count)
        unique = sum(longest.values())
        metrics["workloads.segments_drawn"] = drawn
        metrics["workloads.segments_unique"] = unique
        metrics["workloads.reuse_ratio"] = unique / drawn if drawn else 0.0
        metrics["workloads.gen_s"] = self.gen_s

        soe = self.named("engine.soe")
        soe_self = self._self_sum("engine.soe")
        soe_drawn = sum(span[5] for span in soe)
        metrics["engine.soe.runs"] = len(soe)
        metrics["engine.soe.self_s"] = soe_self
        metrics["engine.soe.ns_per_seg"] = soe_self / soe_drawn * 1e9 if soe_drawn else 0.0
        metrics["engine.st.runs"] = len(self.named("engine.st"))
        metrics["engine.st.s"] = self._self_sum("engine.st")

        batches = self.named("engine.batch")
        lane_segments = sum(span[6][0] for span in batches)
        lane_slots = sum(span[6][1] * span[6][2] for span in batches)
        metrics["engine.batch.runs"] = sum(span[6][2] for span in batches)
        metrics["engine.batch.s"] = self._self_sum("engine.batch")
        metrics["engine.batch.lane_fill"] = lane_segments / lane_slots if lane_slots else 0.0

        tasks = [span for span in self.spans if span[0] in TASK_SPANS]
        metrics["supervisor.tasks"] = len(tasks)
        busy = 0.0
        slot_wall = 0.0
        overhead = 0.0
        for index, phase in enumerate(self.spans):
            if phase[0] != "supervisor.phase":
                continue
            inside = [
                task for task in tasks if phase[1] <= task[1] and task[2] <= phase[2]
            ]
            if not inside:
                continue
            wall = phase[2] - phase[1]
            work = sum(task[2] - task[1] for task in inside)
            if all(task[7] == phase[7] for task in inside):
                slots = 1
                overhead += self.self_time(index)
            else:
                slots = min(jobs, len(inside))
                overhead += max(0.0, wall - work / slots)
            busy += work
            slot_wall += slots * wall
        metrics["supervisor.worker_busy_frac"] = busy / slot_wall if slot_wall else 0.0
        metrics["supervisor.overhead_s"] = overhead
        shards = [span[2] - span[1] for span in self.named("shard")]
        metrics["sharding.shards"] = len(shards)
        metrics["sharding.imbalance"] = (
            max(shards) / statistics.mean(shards) if shards else 0.0
        )

        writes = self.named("checkpoint.write")
        metrics["checkpoint.records"] = sum(span[6] for span in writes)
        metrics["checkpoint.write_s"] = sum(span[2] - span[1] for span in writes)
        for kind in ("load", "store"):
            spans = self.named(f"cache.{kind}")
            metrics[f"cache.{kind}s"] = len(spans)
            metrics[f"cache.{kind}_s"] = sum(span[2] - span[1] for span in spans)

        metrics["runner.self_s"] = self._self_sum("runner.run_grid") + self._self_sum("task")
        roots = self.named("runner.run_grid")
        wall = sum(span[2] - span[1] for span in roots)
        metrics["runner.attributed_frac"] = (
            1.0 - metrics["runner.self_s"] / wall if wall else 0.0
        )
        return metrics
