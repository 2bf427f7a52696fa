"""Engine backends: pluggable substrates for batches of SOE runs.

The evaluation grid is thousands of independent (pair x fairness-level
x seed) simulations, so the execution layer talks to the engine through
a batch interface: an :class:`EngineBackend` takes a list of
self-contained :class:`SoeRunSpec` values and returns one
:class:`~repro.engine.results.SoeRunResult` per spec, in order.

Two backends implement it:

* :class:`ScalarBackend` -- the reference: each spec runs on the exact
  event-driven :class:`~repro.engine.soe.SoeEngine`. Supports every
  configuration and stays bit-identical to direct ``run_soe`` calls.
* ``BatchBackend`` (:mod:`repro.engine.batch`) -- a vectorized engine
  that advances every run in the batch simultaneously as numpy arrays.
  Requires numpy and supports the evaluation's configuration envelope
  (see :meth:`EngineBackend.supports`); docs/SIMULATORS.md documents
  the equivalence guarantees.

:func:`get_backend` resolves a backend by name. ``"auto"`` is scalar:
end to end, batch was slower at every measured grid population, 64 to
2048 runs (docs/PERFORMANCE.md, "Parallel scalar grid").
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence, runtime_checkable

from repro.core.controller import FairnessController, FairnessParams
from repro.core.policies import PolicyConfig
from repro.core.policy import SwitchPolicy
from repro.engine.results import SoeRunResult
from repro.engine.segments import SegmentStream
from repro.engine.soe import RunLimits, SoeParams, run_soe
from repro.errors import ConfigurationError

__all__ = [
    "BACKEND_NAMES",
    "EngineBackend",
    "ScalarBackend",
    "SoeRunSpec",
    "get_backend",
    "numpy_available",
]

#: Legal ``--backend`` values: the two concrete backends plus ``auto``,
#: the program's own choice between them (see :func:`get_backend`).
BACKEND_NAMES = ("scalar", "batch", "auto")


@dataclass(frozen=True)
class SoeRunSpec:
    """Everything one SOE run needs, as pure data.

    ``fairness`` is the run's :class:`FairnessParams`, or None for the
    unenforced baseline (miss-only switching). ``policy`` selects a
    registered policy-zoo policy instead
    (:class:`~repro.core.policies.PolicyConfig`); it is normalized on
    construction, so batch-capable selections (``none``, ``fairness``)
    collapse into the ``fairness`` field and ``policy`` only ever
    carries scalar-only policies. Specs carry parameters rather than
    live policy objects so a backend can either instantiate a scalar
    policy per run or fold the whole batch's controllers into arrays.
    """

    streams: tuple[SegmentStream, ...]
    fairness: Optional[FairnessParams] = None
    params: SoeParams = field(default_factory=SoeParams)
    limits: RunLimits = field(default_factory=RunLimits)
    policy: Optional[PolicyConfig] = None

    def __post_init__(self) -> None:
        if len(self.streams) < 2:
            raise ConfigurationError("an SOE run spec needs at least two threads")
        if self.policy is not None:
            if self.fairness is not None:
                raise ConfigurationError(
                    "a run spec takes either fairness params or a policy "
                    "config, not both"
                )
            fairness, residual = self.policy.normalize()
            object.__setattr__(self, "fairness", fairness)
            object.__setattr__(self, "policy", residual)

    @property
    def num_threads(self) -> int:
        return len(self.streams)

    def make_policy(self) -> Optional[SwitchPolicy]:
        """A fresh scalar policy for this spec (None = baseline)."""
        if self.policy is not None:
            return self.policy.make(self.num_threads)
        if self.fairness is None:
            return None
        return FairnessController(self.num_threads, self.fairness)


@runtime_checkable
class EngineBackend(Protocol):
    """Substrate interface the execution layer programs against."""

    #: Stable identifier ("scalar", "batch") used in cache keys and logs.
    name: str

    def supports(self, spec: SoeRunSpec) -> bool:
        """Whether this backend can execute ``spec``.

        Callers route unsupported specs to the scalar reference; a
        backend must never silently approximate a configuration it
        cannot faithfully run.
        """
        ...

    def run_batch(self, specs: Sequence[SoeRunSpec]) -> list[SoeRunResult]:
        """Execute every spec, returning results in spec order."""
        ...


class ScalarBackend:
    """The reference backend: one exact event-driven engine per spec."""

    name = "scalar"

    def supports(self, spec: SoeRunSpec) -> bool:
        return True

    def run_batch(self, specs: Sequence[SoeRunSpec]) -> list[SoeRunResult]:
        return [
            run_soe(spec.streams, spec.make_policy(), spec.params, spec.limits)
            for spec in specs
        ]


def numpy_available() -> bool:
    """Whether numpy can be imported (checked without importing it)."""
    return importlib.util.find_spec("numpy") is not None


def get_backend(name: str = "scalar") -> EngineBackend:
    """Resolve a backend by name.

    ``"scalar"`` always works; ``"batch"`` raises
    :class:`~repro.errors.ConfigurationError` when numpy is missing;
    ``"auto"`` is scalar, numpy or not (see the module docstring).
    """
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown engine backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    if name != "batch":
        return ScalarBackend()
    if not numpy_available():
        raise ConfigurationError(
            "the 'batch' engine backend needs numpy, which is not "
            "installed; use --backend scalar or auto"
        )
    from repro.engine.batch import BatchBackend

    return BatchBackend()
