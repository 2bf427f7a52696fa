"""Tests for the process-wide segment memo behind ``make_stream``.

Every consumer of a memoized stream must see exactly the sequence a
fresh, unmemoized ``_generate`` yields, whatever the interleaving,
eviction, thread or fork history of the memo.
"""

import itertools
import math
import os
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import synthetic
from repro.workloads.synthetic import (
    MEMO_ROW_BUDGET,
    Phase,
    SegmentDistribution,
    _generate,
    _lognormal_params,
    _SegmentMemo,
    make_stream,
)

NOISY = SegmentDistribution(ipc_no_miss=1.8, ipm=900, ipm_cv=0.9, ipc_cv=0.15)
STEADY = SegmentDistribution(ipc_no_miss=2.4, ipm=4_000, ipm_cv=0.0, ipc_cv=0.1)
CONSTANT = SegmentDistribution(ipc_no_miss=2.0, ipm=1_500)
PHASES = (Phase(NOISY, 20_000), Phase(CONSTANT, 9_000), Phase(STEADY, 30_000))


def fresh(phases, seed, skip, n):
    return list(itertools.islice(_generate(tuple(phases), seed, skip), n))


def take(iterator, n):
    return list(itertools.islice(iterator, n))


@pytest.fixture
def memo(monkeypatch):
    """A small private memo installed behind ``make_stream``."""
    small = _SegmentMemo(row_budget=1_000)
    monkeypatch.setattr(synthetic, "_MEMO", small)
    return small


class TestHoistedLognormal:
    def test_draws_match_inline_parameters(self):
        rng, reference = random.Random(11), random.Random(11)
        for _ in range(500):
            segment = NOISY.draw(rng)
            mu, sigma = _lognormal_params(NOISY.ipm, NOISY.ipm_cv)
            instructions = max(1.0, reference.lognormvariate(mu, sigma))
            mu, sigma = _lognormal_params(NOISY.ipc_no_miss, NOISY.ipc_cv)
            ipc = max(0.05, reference.lognormvariate(mu, sigma))
            assert segment.instructions == instructions
            assert segment.cycles == instructions / ipc

    def test_cached_parameters_leave_equality_and_repr_alone(self):
        twin = SegmentDistribution(1.8, 900, ipm_cv=0.9, ipc_cv=0.15)
        NOISY.draw(random.Random(0))
        assert twin == NOISY and hash(twin) == hash(NOISY)
        assert repr(twin) == repr(NOISY)


class TestReplay:
    def test_replays_match_fresh_generation(self, memo):
        stream = make_stream(PHASES, seed=5, skip_instructions=12_345.5)
        expected = fresh(PHASES, 5, 12_345.5, 600)
        assert take(stream.segments(), 600) == expected
        assert take(stream.segments(), 300) == expected[:300]
        assert take(stream.segments(), 600) == expected

    def test_equal_keys_share_one_entry(self, memo):
        first = make_stream(list(PHASES), seed=2)
        second = make_stream(PHASES, seed=2, name="other")
        take(first.segments(), 100)
        take(second.segments(), 50)
        assert len(memo.entries) == 1
        assert memo.rows == next(iter(memo.entries.values())).rows

    def test_constant_streams_bypass_the_memo(self, memo):
        stream = make_stream([Phase(CONSTANT, math.inf)], seed=1)
        segments = take(stream.segments(), 10)
        assert segments == fresh([Phase(CONSTANT, math.inf)], 1, 0.0, 10)
        assert not memo.entries and memo.rows == 0

    def test_process_memo_is_bounded(self):
        assert synthetic._MEMO.row_budget == MEMO_ROW_BUDGET == 1 << 17


class TestBound:
    def test_many_keys_stay_within_budget_and_replay_identically(self, memo):
        for seed in range(40):
            stream = make_stream(PHASES, seed=seed)
            assert take(stream.segments(), 150) == fresh(PHASES, seed, 0.0, 150)
            assert memo.rows <= memo.row_budget
            assert memo.rows == sum(e.rows for e in memo.entries.values())
        assert len(memo.entries) < 40
        # seed 0 was evicted long ago; asking again regenerates it.
        assert 0 not in {key[1] for key in memo.entries}
        again = make_stream(PHASES, seed=0)
        assert take(again.segments(), 150) == fresh(PHASES, 0, 0.0, 150)

    def test_stream_longer_than_budget(self, memo):
        stream = make_stream(PHASES, seed=9)
        expected = fresh(PHASES, 9, 0.0, 2_500)
        assert take(stream.segments(), 2_500) == expected
        assert memo.rows <= memo.row_budget
        assert take(stream.segments(), 2_500) == expected

    def test_consumers_of_an_evicted_entry_continue_identically(self, memo):
        stream = make_stream(PHASES, seed=4)
        expected = fresh(PHASES, 4, 0.0, 1_500)
        ahead, behind = stream.segments(), stream.segments()
        got_ahead, got_behind = take(ahead, 300), take(behind, 10)
        for seed in range(100, 110):  # evict seed 4's entry
            take(make_stream(PHASES, seed=seed).segments(), 300)
        assert all(key[1] != 4 for key in memo.entries)
        # ``ahead`` takes over the evicted entry's generator; ``behind``
        # reads the stored rows, then regenerates past them.
        got_ahead += take(ahead, 1_200)
        got_behind += take(behind, 1_490)
        assert got_ahead == expected
        assert got_behind == expected


class TestThreads:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_threads_consume_one_key(self, memo, threads):
        """Without the entry lock, two threads pulling the shared
        generator raise ``ValueError: generator already executing``."""
        memo.row_budget = MEMO_ROW_BUDGET
        stream = make_stream(PHASES, seed=21, skip_instructions=500.0)
        n = 20_000
        barrier = threading.Barrier(threads)
        results = [None] * threads
        errors = []

        def consume(slot):
            try:
                barrier.wait()
                results[slot] = take(stream.segments(), n)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        workers = [threading.Thread(target=consume, args=(i,)) for i in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors
        expected = fresh(PHASES, 21, 500.0, n)
        assert all(result == expected for result in results)


def _in_child(work):
    """Run ``work()`` in a forked child and return its pickled result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        os.close(read_fd)
        code = 0
        try:
            payload = pickle.dumps(work())
        except BaseException as exc:
            payload, code = pickle.dumps(repr(exc)), 1
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    result = pickle.loads(payload)
    assert os.waitstatus_to_exitcode(status) == 0, result
    return result


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestFork:
    def test_child_replays_and_extends_a_partial_memo(self, memo):
        stream = make_stream(PHASES, seed=13, skip_instructions=777.0)
        take(stream.segments(), 400)
        expected = fresh(PHASES, 13, 777.0, 900)

        def child():
            entry = memo.entries[(PHASES, 13, 777.0)]
            inherited = entry.rows
            segments = take(stream.segments(), 900)
            return inherited, entry.rows, segments

        inherited, grown, segments = _in_child(child)
        assert inherited >= 400 and grown >= 900
        assert segments == expected
        assert take(stream.segments(), 900) == expected

    def test_entry_locked_at_fork_is_dropped_in_the_child(self, memo):
        stream = make_stream(PHASES, seed=14)
        take(stream.segments(), 100)
        entry = memo.entries[(PHASES, 14, 0.0)]

        def child():
            return (PHASES, 14, 0.0) in memo.entries, take(stream.segments(), 300)

        with entry.lock:
            present, segments = _in_child(child)
        assert not present
        assert segments == fresh(PHASES, 14, 0.0, 300)


distributions = st.builds(
    SegmentDistribution,
    ipc_no_miss=st.floats(min_value=0.3, max_value=3.0),
    ipm=st.floats(min_value=20.0, max_value=5_000.0),
    ipm_cv=st.sampled_from([0.0, 0.3, 1.2]),
    ipc_cv=st.sampled_from([0.0, 0.1, 0.5]),
)
phase_lists = st.one_of(
    st.builds(lambda d: (Phase(d, math.inf),), distributions),
    st.lists(
        st.builds(
            Phase, distributions, st.floats(min_value=100.0, max_value=40_000.0)
        ),
        min_size=2,
        max_size=4,
    ).map(tuple),
)


class TestInterleavingProperty:
    @given(
        phases=phase_lists,
        seed=st.integers(min_value=0, max_value=2**32),
        skip=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=60_000.0)),
        budget=st.sampled_from([50, 700, MEMO_ROW_BUDGET]),
        lengths=st.lists(
            st.integers(min_value=0, max_value=900), min_size=1, max_size=4
        ),
        schedule=st.lists(
            st.tuples(st.integers(min_value=0, max_value=3), st.integers(1, 200)),
            max_size=30,
        ),
        neighbours=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_consumer_sees_the_fresh_sequence(
        self, phases, seed, skip, budget, lengths, schedule, neighbours
    ):
        memo = _SegmentMemo(row_budget=budget)
        key = (phases, seed, skip)
        consumers = [memo.replay(key) for _ in lengths]
        got = [[] for _ in lengths]
        for index, step in schedule:
            index %= len(lengths)
            want = min(step, lengths[index] - len(got[index]))
            got[index] += take(consumers[index], want)
            # Other streams competing for the budget force evictions.
            for other in range(neighbours):
                take(memo.replay((phases, seed + other + 1, skip)), step)
            assert memo.rows <= budget
        for index, length in enumerate(lengths):
            got[index] += take(consumers[index], length - len(got[index]))
        longest = fresh(phases, seed, skip, max(lengths))
        for sequence, length in zip(got, lengths):
            assert sequence == longest[:length]
