"""The grid's ``jobs > 1`` path: scalar tasks on the persistent pool.

With more than one job, ``run_grid`` hands its scalar tasks to the
supervisor's persistent pool in pair-major order (each pair's ST
baselines, then its SOE levels). Only the dispatch sequence changes:
task indices, checkpoint keys, fault addresses and results stay what
they are at ``jobs=1``.
"""

from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.experiments import runner
from repro.experiments.common import EvalConfig
from repro.experiments.runner import (
    ExecutionSettings,
    _pair_major,
    _SoeTask,
    _st_tasks_for,
    reset_degraded,
    run_grid,
)
from repro.experiments.supervisor import Supervisor, _PoolWorker
from repro.telemetry import RingBufferSink, tracing
from repro.workloads.pairs import BenchmarkPair

PAIRS = (
    BenchmarkPair("gcc", "eon"),
    BenchmarkPair("lucas", "applu"),
    BenchmarkPair("gcc", "gcc"),
)

#: The grid's global task indices for PAIRS at two levels: unique ST
#: baselines in first-appearance order, then (pair, level) SOE tasks.
LABELS = (
    "gcc@s1",
    "eon@s2",
    "lucas@s1",
    "applu@s2",
    "gcc@s2",
    "gcc:eon@F0",
    "gcc:eon@F0.5",
    "lucas:applu@F0",
    "lucas:applu@F0.5",
    "gcc:gcc@F0",
    "gcc:gcc@F0.5",
)
ST_INDEX = 1
SOE_INDEX = 8


@pytest.fixture(scope="module")
def config():
    """A sub-second grid: tiny windows, two fairness levels."""
    return replace(
        EvalConfig.quick(),
        fairness_levels=(0.0, 0.5),
        sample_period=20_000,
        min_instructions=60_000,
        warmup_instructions=20_000,
        st_min_instructions=60_000,
    )


@pytest.fixture(scope="module")
def serial(config):
    return run_grid(config, PAIRS, ExecutionSettings(jobs=1)).results


@pytest.fixture(autouse=True)
def _clean_degraded():
    reset_degraded()
    yield
    reset_degraded()


def _noop(item):
    return item


def _specs(config):
    """The grid's tasks in global-index order, as ``run_grid`` builds them."""
    baselines = {}
    for pair in PAIRS:
        for task in _st_tasks_for(pair, config):
            baselines.setdefault(task)
    return list(baselines) + [
        _SoeTask(pair=pair, level=level, config=config)
        for pair in PAIRS
        for level in config.fairness_levels
    ]


class TestDecomposition:
    def test_labels_match_the_global_indices(self, config):
        labels = [runner._task_descriptor(spec)[1] for spec in _specs(config)]
        assert tuple(labels) == LABELS


class TestPairMajorOrder:
    def test_full_grid_order_and_pairs(self, config):
        order = _pair_major(list(enumerate(_specs(config))))
        assert list(order) == [0, 1, 5, 6, 2, 3, 7, 8, 4, 9, 10]
        assert [order[i].label for i in order] == (
            ["gcc:eon"] * 4 + ["lucas:applu"] * 4 + ["gcc:gcc"] * 3
        )

    def test_baselines_no_pending_soe_task_needs_lead(self, config):
        specs = _specs(config)
        to_run = [(i, specs[i]) for i in (1, 3, 9)]
        assert _pair_major(to_run) == {1: None, 3: None, 9: PAIRS[2]}

    @settings(max_examples=60, deadline=None)
    @given(keep=st.sets(st.integers(min_value=0, max_value=len(LABELS) - 1)))
    def test_permutation_with_baselines_first(self, keep):
        config = replace(EvalConfig.quick(), fairness_levels=(0.0, 0.5))
        to_run = [
            (position, spec)
            for position, spec in enumerate(_specs(config))
            if position in keep
        ]
        order = list(_pair_major(to_run))
        assert sorted(order) == [position for position, _ in to_run]
        specs = dict(to_run)
        slot_of = {specs[position]: slot for slot, position in enumerate(order)}
        for slot, position in enumerate(order):
            spec = specs[position]
            if isinstance(spec, _SoeTask):
                for task in _st_tasks_for(spec.pair, spec.config):
                    assert slot_of.get(task, -1) < slot


def _worker(group=None, busy=False):
    worker = _PoolWorker(process=None, conn=None, group=group)
    if busy:
        worker.attempt = 1
    return worker


class TestAffinityDispatch:
    """An idle pool worker's pick under ``affinity`` (index -> group)."""

    GROUPS = {0: "a", 1: "a", 2: "b", 3: "b", 4: "c"}

    def _take(self, indices, workers, worker, affinity=GROUPS.get):
        supervisor = Supervisor(_noop, [], jobs=2, pool=True, affinity=affinity)
        pending = deque((index, None, 1) for index in indices)
        entry = supervisor._take(pending, workers, worker)
        return entry[0], [index for index, _, _ in pending]

    def test_without_affinity_takes_the_head(self):
        idle = _worker(group="b")
        assert self._take([0, 2, 4], [idle], idle, affinity=None) == (0, [2, 4])

    def test_prefers_its_own_group(self):
        idle = _worker(group="b")
        assert self._take([0, 1, 3, 4], [idle], idle) == (3, [0, 1, 4])
        assert idle.group == "b"

    def test_else_a_group_no_busy_worker_holds(self):
        busy, idle = _worker(group="a", busy=True), _worker(group="c")
        assert self._take([1, 2, 3], [busy, idle], idle) == (2, [1, 3])
        assert idle.group == "b"

    def test_else_steals_the_head(self):
        busy, idle = _worker(group="a", busy=True), _worker(group="c")
        assert self._take([1, 0], [busy, idle], idle) == (1, [0])
        assert idle.group == "a"


class TestPoolGridIdentity:
    def test_jobs_2_runs_on_the_pool(self, config, serial, monkeypatch):
        seen = []
        original = runner.Supervisor

        def spy(call, tasks, **kwargs):
            seen.append(
                (
                    kwargs["pool"],
                    [index for index, _ in tasks],
                    [kwargs["affinity"](index) for index, _ in tasks],
                )
            )
            return original(call, tasks, **kwargs)

        monkeypatch.setattr(runner, "Supervisor", spy)
        outcome = run_grid(config, PAIRS, ExecutionSettings(jobs=2))
        assert outcome.ok and outcome.results == serial
        order = [0, 1, 5, 6, 2, 3, 7, 8, 4, 9, 10]
        pairs = [PAIRS[0]] * 4 + [PAIRS[1]] * 4 + [PAIRS[2]] * 3
        assert seen == [(True, order, pairs)]

    def test_jobs_2_is_bit_identical_to_jobs_1(self, config, serial):
        outcome = run_grid(config, PAIRS, ExecutionSettings(jobs=2))
        assert outcome.ok and outcome.retries == 0
        assert outcome.results == serial

    @pytest.mark.parametrize("index", [ST_INDEX, SOE_INDEX])
    def test_resume_from_partial_journal(self, config, serial, tmp_path, index):
        journal = tmp_path / "grid.ckpt"
        with faults.fault_injection(faults.parse_fault_plan(f"crash@{index}*9")):
            partial = run_grid(
                config,
                PAIRS,
                ExecutionSettings(
                    jobs=2, retries=0, on_failure="degrade", checkpoint=journal
                ),
            )
        assert [failure.index for failure in partial.failures] == [index]
        resumed = run_grid(
            config,
            PAIRS,
            ExecutionSettings(jobs=2, checkpoint=journal, resume=True),
        )
        assert resumed.ok
        assert resumed.resumed_tasks == len(LABELS) - 1
        assert resumed.results == serial


class TestPoolGridFaults:
    @pytest.mark.parametrize("index", [ST_INDEX, SOE_INDEX])
    def test_crash_fails_that_task_once_and_retry_recovers(
        self, config, serial, index
    ):
        sink = RingBufferSink(capacity=10_000)
        with tracing(sink), faults.fault_injection(
            faults.parse_fault_plan(f"crash@{index}")
        ):
            outcome = run_grid(
                config, PAIRS, ExecutionSettings(jobs=2, retries=2)
            )
        retries = [
            event for event in sink.events if event["event"] == "task_retry"
        ]
        assert [(event["label"], event["reason"]) for event in retries] == [
            (LABELS[index], "crash")
        ]
        assert outcome.ok and outcome.retries == 1
        assert outcome.results == serial

    @pytest.mark.parametrize("index", [ST_INDEX, SOE_INDEX])
    def test_nan_lands_in_manifest_under_its_label(self, config, index):
        with faults.fault_injection(faults.parse_fault_plan(f"nan@{index}")):
            outcome = run_grid(
                config,
                PAIRS,
                ExecutionSettings(jobs=2, retries=0, on_failure="degrade"),
            )
        manifest = outcome.failure_manifest()
        assert [
            (failure["index"], failure["label"], failure["reason"])
            for failure in manifest["failures"]
        ] == [(index, LABELS[index], "invariant")]
