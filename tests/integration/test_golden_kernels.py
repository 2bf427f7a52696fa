"""Golden regression tests for the two simulation kernels.

Every value below was captured from the pre-optimization kernels and is
pinned exactly (integers and float bit patterns alike). Any kernel
optimization — ``__slots__``, decode tables, event-driven fast-forward,
issue-loop rewrites — must keep these runs *bit-identical*; a change to
any number here means the optimization altered simulation semantics,
not just its speed. See docs/PERFORMANCE.md.

The scenarios are deliberately small (sub-second each) but exercise the
hot paths the optimizations touch: miss-triggered switches, pipeline
flush/refill, fairness quotas and Delta boundaries, single-thread
ROB-head stalls (the fast-forward path), idle gaps, and the segment
engine's event arithmetic with and without a controller.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.controller import FairnessController, FairnessParams
from repro.core.policies import PolicyConfig, policy_names
from repro.cpu.soe_core import run_cpu_single_thread, run_cpu_soe
from repro.engine.recorder import IntervalRecorder
from repro.engine.soe import RunLimits, SoeEngine, SoeParams, run_soe
from repro.telemetry import SWITCH
from repro.telemetry.sinks import RingBufferSink
from repro.workloads.events import EventType, multi_event_stream
from repro.workloads.synthetic import uniform_stream
from repro.workloads.tracegen import (
    COMPUTE_SPEC,
    MEMORY_SPEC,
    MIXED_SPEC,
    make_trace,
)


def _thread_tuples(result):
    return [
        (
            t.retired,
            t.run_cycles,
            t.misses,
            t.miss_switches,
            t.forced_switches,
            t.cycle_quota_switches,
        )
        for t in result.threads
    ]


class TestDetailedCoreGolden:
    """Pinned ``CpuRunResult`` values for the cycle-level core."""

    def test_mt_no_policy(self):
        result = run_cpu_soe(
            [
                make_trace(MIXED_SPEC, seed=3, thread_index=0),
                make_trace(MEMORY_SPEC, seed=4, thread_index=1),
            ],
            min_instructions=1_500,
            warmup_instructions=500,
        )
        assert result.cycles == 67917
        assert _thread_tuples(result) == [
            (1289, 16324, 101, 101, 0, 0),
            (5284, 25516, 101, 101, 0, 0),
        ]
        assert len(result.switch_latencies) == 202
        assert sum(result.switch_latencies) == 3812
        assert result.mean_switch_latency == 3812 / 202
        assert result.l2_miss_rate == 0.9848197343453511
        assert result.branch_mispredict_rate == 0.37988826815642457

    def test_mt_fairness_controller(self):
        controller = FairnessController(
            2, FairnessParams(fairness_target=0.5, sample_period=2_000.0)
        )
        result = run_cpu_soe(
            [
                make_trace(MEMORY_SPEC, seed=5, thread_index=0),
                make_trace(COMPUTE_SPEC, seed=6, thread_index=1),
            ],
            controller,
            min_instructions=1_500,
            warmup_instructions=500,
        )
        assert result.cycles == 55599
        assert _thread_tuples(result) == [
            (1274, 12279, 82, 82, 0, 0),
            (1453, 20870, 80, 80, 2, 0),
        ]
        assert len(result.switch_latencies) == 164
        assert sum(result.switch_latencies) == 3099
        assert result.l2_miss_rate == 1.0
        assert result.branch_mispredict_rate == 0.6718346253229974

    def test_single_thread_memory_bound(self):
        """The ROB-head-stall workload the fast-forward path targets."""
        result = run_cpu_single_thread(
            make_trace(MEMORY_SPEC, seed=1),
            min_instructions=2_000,
            warmup_instructions=500,
        )
        assert result.cycles == 34140
        assert _thread_tuples(result) == [(1500, 34140, 0, 0, 0, 0)]
        assert result.switch_latencies == ()
        assert result.l2_miss_rate == 1.0
        assert result.branch_mispredict_rate == 1.0


class TestSegmentEngineGolden:
    """Pinned ``SoeRunResult`` values for the segment-level engine."""

    def test_no_policy_variable_segments(self):
        result = run_soe(
            [
                uniform_stream(2.5, 15_000, ipm_cv=0.5, ipc_cv=0.3, seed=1),
                uniform_stream(1.2, 800, ipm_cv=1.0, seed=2),
            ],
            limits=RunLimits(min_instructions=50_000),
        )
        assert result.cycles == 362995.4064727473
        assert _thread_tuples(result) == [
            (727472.3966640637, 317179.16956988006, 53, 53, 0, 0),
            (50155.05053210322, 41795.87544341936, 53, 53, 0, 0),
        ]
        assert result.idle_cycles == 1370.3614594478058
        assert result.switch_overhead_cycles == 2650.0

    def test_fairness_controller_uniform_segments(self):
        controller = FairnessController(
            2, FairnessParams(fairness_target=0.5, sample_period=25_000.0)
        )
        result = run_soe(
            [
                uniform_stream(2.5, 15_000, seed=1),
                uniform_stream(2.5, 1_000, seed=2),
            ],
            controller,
            SoeParams(),
            RunLimits(min_instructions=50_000, warmup_instructions=10_000),
        )
        assert result.cycles == 103470.83559228173
        assert _thread_tuples(result) == [
            (202352.22794394754, 80940.89117757893, 13, 13, 37, 0),
            (50000.0, 20000.0, 50, 50, 1, 0),
        ]
        assert result.idle_cycles == 4.944414702855283
        assert result.switch_overhead_cycles == 2525.0


# ----------------------------------------------------------------------
# Segment-engine paths the evaluation grid does not run: every registered
# policy (including the ``select_thread`` override and per-segment miss
# latencies), the interval recorder, per-event tracing, and a run that
# ends inside warmup. Every ``SoeRunResult`` field is pinned exactly,
# floats via ``float.hex``.
# ----------------------------------------------------------------------
_PATH_PARAMS = SoeParams(switch_lat=25.0, miss_lat=300.0, max_cycles_quota=6_000.0)
_PATH_LIMITS = RunLimits(min_instructions=60_000, warmup_instructions=5_000)


def _path_streams(threads):
    """Variable-segment workloads; the third thread mixes two event
    latencies, so segments carry their own ``miss_latency``."""
    streams = [
        uniform_stream(2.5, 15_000, ipm_cv=0.5, ipc_cv=0.3, seed=11),
        uniform_stream(1.2, 800, ipm_cv=1.0, ipc_cv=0.2, seed=12),
        multi_event_stream(
            1.8, [EventType(3_000, 300.0), EventType(500, 40.0)], seed=13
        ),
    ]
    return streams[:threads]


def _path_policy(name, threads):
    return PolicyConfig(name, level=0.5, sample_period=20_000.0).make(threads)


class _CallLog(FairnessController):
    """The paper's controller, logging every callback the engine makes
    (name, arguments and result; floats via ``float.hex``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def on_miss(self, thread_id, now, latency=None):
        self.calls.append(["on_miss", thread_id, now.hex(), latency.hex()])
        return super().on_miss(thread_id, now, latency=latency)


def _logged(name):
    base = getattr(FairnessController, name)

    def method(self, *args):
        result = base(self, *args)
        self.calls.append(
            [name]
            + [v.hex() if isinstance(v, float) else v for v in (*args, result)]
        )
        return result

    return method


for _name in (
    "on_run_start",
    "instruction_budget",
    "cycle_budget",
    "on_retired",
    "on_switch_out",
    "next_boundary",
    "on_boundary",
):
    setattr(_CallLog, _name, _logged(_name))


def _hex_result(result):
    """Every ``SoeRunResult`` field: floats as ``float.hex``, ints as-is."""
    return (
        result.cycles.hex(),
        result.idle_cycles.hex(),
        result.switch_overhead_cycles.hex(),
        tuple(
            (
                t.retired.hex(),
                t.run_cycles.hex(),
                t.misses,
                t.miss_switches,
                t.forced_switches,
                t.cycle_quota_switches,
            )
            for t in result.threads
        ),
    )


_POLICY_GOLDENS = {
    ("none", 2): (
        "0x1.8b50e040947a4p+18",
        "0x1.b36364ca28560p+10",
        "0x1.1490000000000p+12",
        (
            ("0x1.7d1e76f82f52ep+19", "0x1.51262e50b05b2p+18", 57, 57, 0, 31),
            ("0x1.e42fef65417d9p+15", "0x1.a1287458cfb65p+15", 89, 89, 0, 0),
        ),
    ),
    ("none", 3): (
        "0x1.67a8eacba49d2p+19",
        "0x1.eb43913b90c00p+7",
        "0x1.57c0000000000p+13",
        (
            ("0x1.53040c71bcfb0p+20", "0x1.1f64490f87730p+19", 95, 95, 0, 49),
            ("0x1.ca6cab1d6494ep+16", "0x1.928b1c9f21a65p+16", 144, 144, 0, 1),
            ("0x1.da05eae76390fp+15", "0x1.07589ef253c28p+15", 151, 151, 0, 0),
        ),
    ),
    ("fairness", 2): (
        "0x1.b31fbe5e7e7d8p+17",
        "0x1.6af47e4018c90p+10",
        "0x1.2a70000000000p+12",
        (
            ("0x1.6d84dba9c2f6ap+18", "0x1.3f75cd7ead06dp+17", 29, 29, 63, 3),
            ("0x1.e05772eeda640p+15", "0x1.9e021f8d4513fp+15", 88, 88, 8, 0),
        ),
    ),
    ("fairness", 3): (
        "0x1.351d75dfbc873p+18",
        "0x1.767ca12189000p+7",
        "0x1.77c8000000000p+13",
        (
            ("0x1.79f07f293b94bp+18", "0x1.50143d1edb64ep+17", 30, 30, 125, 3),
            ("0x1.b83719e13fc83p+16", "0x1.81265ac4c724ap+16", 139, 139, 18, 1),
            ("0x1.d936c23799162p+15", "0x1.06e58857c6d37p+15", 150, 150, 14, 0),
        ),
    ),
    ("rr-timeshare", 2): (
        "0x1.e48c7b28fff6ep+16",
        "0x1.764af25a08860p+9",
        "0x1.0108000000000p+13",
        (
            ("0x1.3035f78c8cfe4p+17", "0x1.f111c99150047p+15", 10, 10, 0, 154),
            ("0x1.d24620895d22cp+15", "0x1.91ec00f747c76p+15", 86, 86, 0, 79),
        ),
    ),
    ("rr-timeshare", 3): (
        "0x1.55d31b7d2f9a1p+17",
        "0x1.b82c84cd5c780p+6",
        "0x1.ace8000000000p+13",
        (
            ("0x1.52d5947fb8fdap+17", "0x1.1340c6271717ap+16", 12, 12, 0, 170),
            ("0x1.05b4d5b36b8b2p+16", "0x1.c1f6d5c9a7f33p+15", 90, 90, 0, 92),
            ("0x1.d1bc53afb6112p+15", "0x1.02bdf59a8197fp+15", 148, 148, 0, 37),
        ),
    ),
    ("icount", 2): (
        "0x1.8b50e040947a4p+18",
        "0x1.b36364ca28560p+10",
        "0x1.1490000000000p+12",
        (
            ("0x1.7d1e76f82f52ep+19", "0x1.51262e50b05b2p+18", 57, 57, 0, 31),
            ("0x1.e42fef65417d9p+15", "0x1.a1287458cfb65p+15", 89, 89, 0, 0),
        ),
    ),
    ("icount", 3): (
        "0x1.6712ad7548a3ap+18",
        "0x1.06f30e5f3d400p+6",
        "0x1.e2d0000000000p+12",
        (
            ("0x1.239fe919142d0p+19", "0x1.0766b554be6b3p+18", 44, 44, 0, 24),
            ("0x1.016522916b477p+16", "0x1.b929a88ace5fdp+15", 90, 90, 0, 0),
            ("0x1.da05eae76390fp+15", "0x1.07589ef253c28p+15", 151, 151, 0, 0),
        ),
    ),
    ("lfoc-cluster", 2): (
        "0x1.a3edfcad196d4p+17",
        "0x1.1e2fdc1c37b40p+10",
        "0x1.1490000000000p+12",
        (
            ("0x1.5ac0d7c1cd2bcp+18", "0x1.30c2ffdead103p+17", 26, 26, 59, 3),
            ("0x1.e42fef65417d9p+15", "0x1.a1287458cfb65p+15", 89, 89, 0, 0),
        ),
    ),
    ("lfoc-cluster", 3): (
        "0x1.351d75dfbc873p+18",
        "0x1.767ca12189000p+7",
        "0x1.77c8000000000p+13",
        (
            ("0x1.79f07f293b94bp+18", "0x1.50143d1edb64ep+17", 30, 30, 125, 3),
            ("0x1.b83719e13fc83p+16", "0x1.81265ac4c724ap+16", 139, 139, 18, 1),
            ("0x1.d936c23799162p+15", "0x1.06e58857c6d37p+15", 150, 150, 14, 0),
        ),
    ),
    ("drr-arbiter", 2): (
        "0x1.ee1fff9113eaep+17",
        "0x1.df30b2489aa20p+9",
        "0x1.1490000000000p+12",
        (
            ("0x1.adb0000000002p+18", "0x1.7b5231c897627p+17", 33, 33, 55, 0),
            ("0x1.e42fef65417d9p+15", "0x1.a1287458cfb65p+15", 89, 89, 0, 0),
        ),
    ),
    ("drr-arbiter", 3): (
        "0x1.cf1ac0473a5cdp+18",
        "0x1.0d1751bc42c00p+8",
        "0x1.5e00000000000p+13",
        (
            ("0x1.6954000000000p+19", "0x1.3c175813529d6p+18", 55, 55, 92, 1),
            ("0x1.d4acbb5b28327p+16", "0x1.9b943a04b8d7bp+16", 148, 148, 0, 1),
            ("0x1.da05eae76390fp+15", "0x1.07589ef253c28p+15", 151, 151, 0, 0),
        ),
    ),
}

_RECORDER_SAMPLES = (
    (
        "0x1.d4c0000000000p+13",
        ("0x1.cbd28ada948f1p+14", "0x1.c574652dba5c0p+10"),
        ("0x1.f63fabbc5dffdp+0", "0x1.ef4b1d8cbde6ap-4"),
        ("0x1.cbd28ada948f1p+14", "0x1.c574652dba5c0p+10"),
    ),
    (
        "0x1.d4c0000000000p+14",
        ("0x1.a4a693ae5673bp+14", "0x1.4a0951969e5b0p+10"),
        ("0x1.cb767557e300ap+0", "0x1.687cddd39ea16p-4"),
        ("0x1.b83c8f4475816p+15", "0x1.87bedb622c5b8p+11"),
    ),
    (
        "0x1.5f90000000000p+15",
        ("0x1.7d1938167dc04p+14", "0x1.d3ebf026cf112p+11"),
        ("0x1.a042de1962b6fp+0", "0x1.ff185f315a525p-3"),
        ("0x1.3b6495a7da30cp+16", "0x1.add565c47db65p+12"),
    ),
    (
        "0x1.d4c0000000000p+15",
        ("0x1.c2f7fe194a494p+14", "0x1.0f6184fa6d3f9p+12"),
        ("0x1.ec93fe783176fp+0", "0x1.286b9c08a87afp-2"),
        ("0x1.ac22952e2cc31p+16", "0x1.5e9b755f757afp+13"),
    ),
    (
        "0x1.24f8000000000p+16",
        ("0x1.bba2dc322efa4p+14", "0x1.4a84441a9d67ep+12"),
        ("0x1.e491aa32b7bfdp+0", "0x1.69032864115f9p-2"),
        ("0x1.0d85a61d5c40dp+17", "0x1.01eecbb662177p+14"),
    ),
    (
        "0x1.5f90000000000p+16",
        ("0x1.122caa817f3c4p+15", "0x1.e4022e1f59248p+11"),
        ("0x1.2b78bd83c05c0p+1", "0x1.08554b91df097p-2"),
        ("0x1.5210d0bdbc0fep+17", "0x1.3e6f117a4d3c0p+14"),
    ),
    (
        "0x1.9a28000000000p+16",
        ("0x1.b5403f29bdd30p+14", "0x1.0e381b2026508p+11"),
        ("0x1.dd983b2916560p+0", "0x1.2726c131ff863p-3"),
        ("0x1.88b8d8a2f3ca4p+17", "0x1.603614de52061p+14"),
    ),
    (
        "0x1.d4c0000000000p+16",
        ("0x1.1760f3dd54060p+14", "0x1.324cb7a5f3dfcp+12"),
        ("0x1.3127f3d64e655p+0", "0x1.4e8f98f156d59p-2"),
        ("0x1.aba4f71e9e4b0p+17", "0x1.acc942c7cefe0p+14"),
    ),
    (
        "0x1.07ac000000000p+17",
        ("0x1.62b79757a8880p+14", "0x1.dfc2aae8f8238p+11"),
        ("0x1.83721adc89a8ep+0", "0x1.06035e4b9f690p-2"),
        ("0x1.d7fbea09935c0p+17", "0x1.e8c19824ee027p+14"),
    ),
    (
        "0x1.24f8000000000p+17",
        ("0x1.5e37931bb6480p+14", "0x1.28cb9419ff324p+12"),
        ("0x1.7e87cbb07f02ap+0", "0x1.442df601e8752p-2"),
        ("0x1.01e16e3685128p+18", "0x1.197a3e95b6e78p+15"),
    ),
    (
        "0x1.4244000000000p+17",
        ("0x1.86d3b327938e0p+14", "0x1.33eef15acee60p+12"),
        ("0x1.aae322fc1fbc4p+0", "0x1.5058693ebb7c6p-2"),
        ("0x1.1a4ea968fe4b6p+18", "0x1.3ff81cc110c44p+15"),
    ),
    (
        "0x1.5f90000000000p+17",
        ("0x1.a17fbff100990p+14", "0x1.e866e024562d0p+11"),
        ("0x1.c8053021dce19p+0", "0x1.0abb8761ce1ffp-2"),
        ("0x1.3466a5680e54fp+18", "0x1.5e7e8ac356271p+15"),
    ),
    (
        "0x1.7cdc000000000p+17",
        ("0x1.745df86ac8240p+14", "0x1.5e433d35ca900p+11"),
        ("0x1.96b96141faf72p+0", "0x1.7e94894f190ddp-3"),
        ("0x1.4bac84eebad73p+18", "0x1.7462be96b2d01p+15"),
    ),
    (
        "0x1.9a28000000000p+17",
        ("0x1.730b44474b1d0p+14", "0x1.92b8c98ac5710p+12"),
        ("0x1.95476cd922aabp+0", "0x1.b7e12f26639afp-2"),
        ("0x1.62dd39332f890p+18", "0x1.a6b9d7c80b7e3p+15"),
    ),
    (
        "0x1.b774000000000p+17",
        ("0x1.6a83b4ab286e0p+14", "0x1.6d90df286cf18p+12"),
        ("0x1.8bf664f21c0c9p+0", "0x1.8f4ba2c89f68cp-2"),
        ("0x1.7985747de20fep+18", "0x1.d46bf3ad191c6p+15"),
    ),
)


class TestSegmentEnginePathGoldens:
    """Pinned ``SoeRunResult`` values for the scalar engine's
    non-grid paths."""

    def test_every_registered_policy_is_pinned(self):
        assert {name for name, _ in _POLICY_GOLDENS} == set(policy_names())

    @pytest.mark.parametrize("name,threads", list(_POLICY_GOLDENS))
    def test_registered_policy(self, name, threads):
        result = run_soe(
            _path_streams(threads),
            _path_policy(name, threads),
            _PATH_PARAMS,
            _PATH_LIMITS,
        )
        assert _hex_result(result) == _POLICY_GOLDENS[(name, threads)]

    def test_controller_with_interval_recorder(self):
        """The Figure 5 path: recorder boundaries interleave with the
        controller's and split active steps."""
        controller = FairnessController(
            2, FairnessParams(fairness_target=0.5, sample_period=20_000.0)
        )
        recorder = IntervalRecorder(interval=15_000.0)
        engine = SoeEngine(
            _path_streams(2), controller, _PATH_PARAMS, recorder=recorder
        )
        result = engine.run(_PATH_LIMITS)
        assert _hex_result(result) == (
            "0x1.b31fbe5e7e7d6p+17",
            "0x1.6af47e4018c90p+10",
            "0x1.2a70000000000p+12",
            (
                ("0x1.6d84dba9c2f6bp+18", "0x1.3f75cd7ead06cp+17", 29, 29, 63, 3),
                ("0x1.e05772eeda640p+15", "0x1.9e021f8d4513fp+15", 88, 88, 8, 0),
            ),
        )
        samples = tuple(
            (
                s.time.hex(),
                tuple(x.hex() for x in s.retired),
                tuple(x.hex() for x in s.ipcs),
                tuple(x.hex() for x in s.cumulative_retired),
            )
            for s in recorder.samples
        )
        assert samples == _RECORDER_SAMPLES

    def test_policy_callback_sequence(self):
        """Every policy callback, in order, with its arguments: the
        engine's call order is part of its contract with policies."""
        policy = _CallLog(
            2, FairnessParams(fairness_target=0.5, sample_period=20_000.0)
        )
        engine = SoeEngine(
            _path_streams(2),
            policy,
            _PATH_PARAMS,
            recorder=IntervalRecorder(interval=15_000.0),
        )
        engine.run(_PATH_LIMITS)
        counts = {}
        for call in policy.calls:
            counts[call[0]] = counts.get(call[0], 0) + 1
        assert counts == {
            "next_boundary": 1091,
            "instruction_budget": 214,
            "cycle_budget": 214,
            "on_retired": 214,
            "on_run_start": 192,
            "on_switch_out": 192,
            "on_miss": 118,
            "on_boundary": 11,
        }
        digest = hashlib.sha256(json.dumps(policy.calls).encode()).hexdigest()
        assert digest == (
            "c3a7774202dd4a2cb18a55679ace42334be98f564d3c012e9fde61a8d949b9f7"
        )

    def test_traced_switch_events(self):
        """The ``thread_switch``/``stall``/``segment_end`` sequence of a
        traced 3-thread fairness run, pinned by count and digest."""
        sink = RingBufferSink(capacity=1_000_000, categories=frozenset({SWITCH}))
        engine = SoeEngine(
            _path_streams(3), _path_policy("fairness", 3), _PATH_PARAMS, sink=sink
        )
        result = engine.run(_PATH_LIMITS)
        assert _hex_result(result) == _POLICY_GOLDENS[("fairness", 3)]
        events = [
            [
                (key, value.hex() if isinstance(value, float) else value)
                for key, value in sorted(event.items())
            ]
            for event in sink.events
        ]
        kinds = {}
        for event in sink.events:
            kind = (event["event"], event.get("cause"))
            kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds == {
            ("segment", None): 320,
            ("switch", "miss"): 320,
            ("switch", "quota"): 157,
            ("switch", "cycle_quota"): 4,
            ("stall", None): 6,
        }
        assert events[:2] == [
            [
                ("cat", "switch"),
                ("event", "segment"),
                ("latency", "0x1.2c00000000000p+8"),
                ("t", "0x1.b1451021bc641p+11"),
                ("thread", 0),
                ("v", 3),
            ],
            [
                ("cat", "switch"),
                ("cause", "miss"),
                ("event", "switch"),
                ("substrate", "engine"),
                ("t", "0x1.b1451021bc641p+11"),
                ("thread", 0),
                ("v", 3),
            ],
        ]
        digest = hashlib.sha256(json.dumps(events).encode()).hexdigest()
        assert digest == (
            "de71de3407afc30f93e474b7db13e60fbeb7541d06e9e4fa55a6191548e5c178"
        )

    def test_run_ending_inside_warmup(self):
        """Warmup never completes: the whole run is the window."""
        result = run_soe(
            _path_streams(2),
            PolicyConfig("fairness", level=0.5, sample_period=2_000.0).make(2),
            _PATH_PARAMS,
            RunLimits(min_instructions=3_000, warmup_instructions=1e9),
        )
        assert _hex_result(result) == (
            "0x1.1905b6c655a01p+14",
            "0x1.319b253919ac0p+7",
            "0x1.9000000000000p+8",
            (
                ("0x1.e4cd913ca52b5p+14", "0x1.bb2fe1d819c30p+13", 2, 2, 6, 0),
                ("0x1.c56b48206db0ap+11", "0x1.96547c7eb4598p+11", 6, 6, 2, 0),
            ),
        )
