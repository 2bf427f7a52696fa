"""Synthetic segment-stream generators (SPEC CPU2000 substitutes).

The paper drives its simulator with LITs -- checkpointed traces of SPEC
CPU2000 binaries. Those are proprietary, so we substitute synthetic
workloads that exercise the same code paths: streams of inter-miss
segments whose statistics (instructions-per-miss, retirement rate, their
variability, and phase changes over time) are drawn from configurable
distributions. The fairness mechanism observes programs *only* through
these statistics, so matching their distributions preserves the
behaviour the paper studies.

All generators are deterministic given a seed, and restartable: each
call to ``stream()`` replays the identical segment sequence, which is
what lets the single-thread reference run and every SOE configuration
see the same workload. Because every replay of a stream is a prefix of
the same sequence, :func:`make_stream` draws each segment once into a
bounded process-wide memo (:class:`_SegmentMemo`) and later replays
read it back.
"""

from __future__ import annotations

import functools
import math
import os
import random
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

from repro.engine.segments import Segment, SegmentStream
from repro.errors import ConfigurationError

__all__ = [
    "SegmentDistribution",
    "Phase",
    "make_stream",
    "uniform_stream",
    "phased_stream",
]


def _lognormal_params(mean: float, cv: float) -> tuple[float, float]:
    """(mu, sigma) of a lognormal with the given mean and coefficient of
    variation."""
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean) - sigma2 / 2.0
    return mu, math.sqrt(sigma2)


@dataclass(frozen=True)
class SegmentDistribution:
    """Distribution of segment characteristics for one program phase.

    Parameters
    ----------
    ipc_no_miss:
        Mean retirement rate between misses.
    ipm:
        Mean instructions per miss (segment length).
    ipm_cv:
        Coefficient of variation of segment lengths (0 = deterministic;
        1.0 approximates the memoryless behaviour of irregular access
        patterns).
    ipc_cv:
        Coefficient of variation of the per-segment retirement rate.
    """

    ipc_no_miss: float
    ipm: float
    ipm_cv: float = 0.0
    ipc_cv: float = 0.0

    def __post_init__(self) -> None:
        if self.ipc_no_miss <= 0 or self.ipm <= 0:
            raise ConfigurationError("ipc_no_miss and ipm must be positive")
        if self.ipm_cv < 0 or self.ipc_cv < 0:
            raise ConfigurationError("coefficients of variation must be >= 0")

    @property
    def cpm(self) -> float:
        """Mean cycles per miss implied by the distribution."""
        return self.ipm / self.ipc_no_miss

    @functools.cached_property
    def _constant_segment(self) -> Segment:
        """The one segment a fully deterministic distribution produces.

        When both coefficients of variation are zero, ``draw`` consumes
        no randomness and every draw is identical, so the (frozen)
        segment is built once and shared -- the dominant case in the
        paper's uniform-workload sweeps.
        """
        return Segment(
            instructions=self.ipm, cycles=self.ipm / self.ipc_no_miss
        )

    @functools.cached_property
    def is_constant(self) -> bool:
        """Whether every draw is the same segment (both cvs zero)."""
        return self.ipm_cv == 0 and self.ipc_cv == 0

    @functools.cached_property
    def _ipm_lognormal(self) -> tuple[float, float]:
        """``(mu, sigma)`` of the segment-length lognormal."""
        return _lognormal_params(self.ipm, self.ipm_cv)

    @functools.cached_property
    def _ipc_lognormal(self) -> tuple[float, float]:
        """``(mu, sigma)`` of the retirement-rate lognormal."""
        return _lognormal_params(self.ipc_no_miss, self.ipc_cv)

    def draw(self, rng: random.Random) -> Segment:
        """Draw one segment."""
        if self.is_constant:
            return self._constant_segment
        if self.ipm_cv > 0:
            mu, sigma = self._ipm_lognormal
            instructions = max(1.0, rng.lognormvariate(mu, sigma))
        else:
            instructions = self.ipm
        if self.ipc_cv > 0:
            mu, sigma = self._ipc_lognormal
            ipc = max(0.05, rng.lognormvariate(mu, sigma))
        else:
            ipc = self.ipc_no_miss
        return Segment(instructions=instructions, cycles=instructions / ipc)


@dataclass(frozen=True)
class Phase:
    """One program phase: a segment distribution active for a span of
    instructions (the paper's Section 5.1.2 discusses how such phase
    changes perturb the estimator)."""

    distribution: SegmentDistribution
    instructions: float

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ConfigurationError("phase length must be positive")


def _generate(
    phases: Sequence[Phase],
    seed: int,
    skip_instructions: float,
) -> Iterator[Segment]:
    """Yield segments phase-by-phase, cycling forever.

    ``skip_instructions`` silently discards the leading instructions,
    which is how benchmark pairs offset identical workloads (the paper
    offsets same-benchmark pairs by 1,000,000 instructions).
    """
    rng = random.Random(seed)
    to_skip = skip_instructions
    while True:
        for phase in phases:
            produced = 0.0
            while produced < phase.instructions:
                segment = phase.distribution.draw(rng)
                produced += segment.instructions
                if to_skip > 0:
                    if segment.instructions <= to_skip:
                        to_skip -= segment.instructions
                        continue
                    fraction = 1.0 - to_skip / segment.instructions
                    to_skip = 0.0
                    segment = Segment(
                        instructions=max(1.0, segment.instructions * fraction),
                        cycles=max(1e-9, segment.cycles * fraction),
                        ends_with_miss=segment.ends_with_miss,
                    )
                yield segment


#: Rows (segments) the process-wide memo keeps over all its streams.
#: A row is two float64 columns, so the memo holds about 2 MiB -- more
#: than the ~71k unique segments of the default-scale grid.
MEMO_ROW_BUDGET = 1 << 17
#: Segments drawn from a stream's generator per memo extension.
_MEMO_CHUNK = 256

_StreamKey = tuple[tuple[Phase, ...], int, float]


def _generate_key(key: _StreamKey) -> Iterator[Segment]:
    phases, seed, skip_instructions = key
    return _generate(phases, seed, skip_instructions)


class _MemoEntry:
    """The stored prefix of one stream, as columns, plus the live
    generator positioned just past it.

    Every segment :func:`_generate` yields ends with a miss at the
    default latency, so instructions and cycles are all a row needs.
    ``rows`` is published after both columns have grown, so a reader
    never sees one column longer than the other.
    """

    __slots__ = (
        "key", "instructions", "cycles", "rows", "source", "lock", "resident"
    )

    def __init__(self, key: _StreamKey) -> None:
        self.key = key
        self.instructions = array("d")
        self.cycles = array("d")
        self.rows = 0
        self.source: Optional[Iterator[Segment]] = _generate_key(key)
        self.lock = threading.Lock()
        #: False once evicted: the entry stops growing, and the first
        #: consumer to run past its end takes over ``source``.
        self.resident = True


class _SegmentMemo:
    """An LRU of stream prefixes bounded by total stored rows.

    Consumers only ever read a stream in prefix order, so replaying the
    stored rows and extending them from one shared generator hands every
    consumer exactly the sequence a fresh generator would.
    """

    def __init__(self, row_budget: int) -> None:
        self.row_budget = row_budget
        self.rows = 0
        self.entries: "OrderedDict[_StreamKey, _MemoEntry]" = OrderedDict()
        self.lock = threading.Lock()

    def entry(self, key: _StreamKey) -> _MemoEntry:
        """The resident entry for ``key``, created when absent."""
        with self.lock:
            entry = self.entries.get(key)
            if entry is None:
                entry = self.entries[key] = _MemoEntry(key)
            else:
                self.entries.move_to_end(key)
            return entry

    def extend(self, entry: _MemoEntry, rows: int) -> Optional[list[Segment]]:
        """Grow ``entry`` past ``rows`` stored rows and return the new
        segments; ``[]`` when another consumer already grew it, None
        when it can no longer grow (evicted, or its stream ended)."""
        with entry.lock:
            if entry.rows > rows:
                return []
            if not entry.resident or entry.source is None:
                return None
            chunk = list(islice(entry.source, _MEMO_CHUNK))
            if not chunk:
                entry.source = None
                return None
            entry.instructions.extend([segment.instructions for segment in chunk])
            entry.cycles.extend([segment.cycles for segment in chunk])
            entry.rows += len(chunk)
            with self.lock:
                if entry.resident:
                    self.rows += len(chunk)
                    self._evict()
            return chunk

    def _evict(self) -> None:
        """Drop least recently used entries until within budget (the
        caller holds ``self.lock``)."""
        while self.rows > self.row_budget and self.entries:
            _, evicted = self.entries.popitem(last=False)
            evicted.resident = False
            self.rows -= evicted.rows

    def take_source(self, entry: _MemoEntry, rows: int) -> Iterator[Segment]:
        """A private iterator over the stream from row ``rows`` on, for
        a consumer that ran past the end (``rows``) of an entry that
        cannot grow: the entry's own generator for the first such
        consumer, a fresh one skipped ahead for the others."""
        with entry.lock:
            source, entry.source = entry.source, None
        if source is not None:
            return source
        return islice(_generate_key(entry.key), rows, None)

    def replay(self, key: _StreamKey) -> Iterator[Segment]:
        """The stream's segments: stored rows rebuilt as segments, then
        the ones this consumer draws itself, as drawn."""
        entry = self.entry(key)
        index = 0
        while True:
            stored = entry.rows
            if index < stored:
                stop = min(stored, index + _MEMO_CHUNK)
                for instructions, cycles in zip(
                    entry.instructions[index:stop], entry.cycles[index:stop]
                ):
                    yield Segment(instructions, cycles)
                index = stop
                continue
            chunk = self.extend(entry, index)
            if chunk is None:
                break
            yield from chunk
            index += len(chunk)
        yield from self.take_source(entry, index)

    def reinit_after_fork(self) -> None:
        """Fresh locks in a forked child. An entry whose lock was held
        at the fork may be mid-extension, so it is dropped."""
        self.lock = threading.Lock()
        for key, entry in list(self.entries.items()):
            if entry.lock.locked():
                del self.entries[key]
                entry.resident = False
                entry.source = None
            entry.lock = threading.Lock()
        self.rows = sum(entry.rows for entry in self.entries.values())


# fork-safe: every entry is a pure function of its key, so a forked
# child's copy agrees with the parent's; locks are renewed in the child.
_MEMO = _SegmentMemo(MEMO_ROW_BUDGET)


def _reinit_memo_after_fork() -> None:
    _MEMO.reinit_after_fork()


os.register_at_fork(after_in_child=_reinit_memo_after_fork)


def make_stream(
    phases: Sequence[Phase],
    seed: int = 0,
    skip_instructions: float = 0.0,
    name: str = "",
) -> SegmentStream:
    """A restartable stream cycling through ``phases`` forever.

    Replays share the process-wide segment memo. Streams whose phases
    are all constant bypass it: they draw no randomness and already
    reuse one frozen segment per phase.
    """
    if not phases:
        raise ConfigurationError("at least one phase is required")
    key: _StreamKey = (tuple(phases), seed, skip_instructions)
    if all(phase.distribution.is_constant for phase in key[0]):
        return SegmentStream(lambda: _generate_key(key), name=name)
    return SegmentStream(lambda: _MEMO.replay(key), name=name)


def uniform_stream(
    ipc_no_miss: float,
    ipm: float,
    ipm_cv: float = 0.0,
    ipc_cv: float = 0.0,
    seed: int = 0,
    skip_instructions: float = 0.0,
    name: str = "",
) -> SegmentStream:
    """A single-phase stream (the common case)."""
    distribution = SegmentDistribution(ipc_no_miss, ipm, ipm_cv, ipc_cv)
    return make_stream(
        [Phase(distribution, math.inf)],
        seed=seed,
        skip_instructions=skip_instructions,
        name=name,
    )


def phased_stream(
    phases: Sequence[tuple[SegmentDistribution, float]],
    seed: int = 0,
    skip_instructions: float = 0.0,
    name: str = "",
) -> SegmentStream:
    """A stream alternating between phases, given (distribution, length)
    tuples; lengths are in instructions."""
    return make_stream(
        [Phase(dist, length) for dist, length in phases],
        seed=seed,
        skip_instructions=skip_instructions,
        name=name,
    )
