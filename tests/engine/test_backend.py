"""Tests for the engine backend layer (specs, resolution, reference).

The vectorized backend's numerical behaviour is covered by the
differential suite (tests/integration/test_batch_differential.py); this
file pins the plumbing: spec validation, the scalar reference backend's
equivalence to direct ``run_soe`` calls, and name-based resolution
(``auto`` is scalar, with or without numpy).
"""

import pytest

from repro.core.controller import FairnessController, FairnessParams
from repro.engine import backend as backend_mod
from repro.engine.backend import (
    BACKEND_NAMES,
    EngineBackend,
    ScalarBackend,
    SoeRunSpec,
    get_backend,
    numpy_available,
)
from repro.engine.soe import RunLimits, SoeParams, run_soe
from repro.errors import ConfigurationError
from repro.workloads.synthetic import uniform_stream

LIMITS = RunLimits(min_instructions=100_000.0, warmup_instructions=20_000.0)


def _spec(seed=0, fairness=None):
    return SoeRunSpec(
        streams=(
            uniform_stream(2.0, 8_000, seed=seed),
            uniform_stream(1.0, 600, seed=seed + 1),
        ),
        fairness=fairness,
        params=SoeParams(),
        limits=LIMITS,
    )


class TestSoeRunSpec:
    def test_requires_two_threads(self):
        with pytest.raises(ConfigurationError, match="at least two"):
            SoeRunSpec(streams=(uniform_stream(1.0, 1_000),))

    def test_num_threads(self):
        streams = tuple(uniform_stream(1.0, 1_000, seed=i) for i in range(3))
        assert SoeRunSpec(streams=streams).num_threads == 3

    def test_make_policy_none_for_baseline(self):
        assert _spec().make_policy() is None

    def test_make_policy_builds_fresh_controller(self):
        spec = _spec(fairness=FairnessParams(fairness_target=0.5))
        first = spec.make_policy()
        second = spec.make_policy()
        assert isinstance(first, FairnessController)
        assert first is not second


class TestScalarBackend:
    def test_supports_everything(self):
        assert ScalarBackend().supports(_spec())

    def test_matches_direct_run_soe_bit_identically(self):
        specs = [
            _spec(seed=0),
            _spec(seed=7, fairness=FairnessParams(fairness_target=0.5)),
        ]
        results = ScalarBackend().run_batch(specs)
        for spec, result in zip(specs, results):
            direct = run_soe(
                spec.streams, spec.make_policy(), spec.params, spec.limits
            )
            assert result == direct

    def test_preserves_spec_order(self):
        specs = [
            SoeRunSpec(
                streams=(
                    uniform_stream(2.0, ipm),
                    uniform_stream(1.0, 600),
                ),
                limits=LIMITS,
            )
            for ipm in (9_000, 5_000, 7_000)
        ]
        results = ScalarBackend().run_batch(specs)
        directs = [
            run_soe(s.streams, None, s.params, s.limits) for s in specs
        ]
        assert results == directs
        # Different workloads produce different runs, so order is
        # observable, not vacuous.
        assert results[0] != results[1]

    def test_satisfies_protocol(self):
        assert isinstance(ScalarBackend(), EngineBackend)


class TestGetBackend:
    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine backend"):
            get_backend("vector")

    def test_scalar_always_resolves(self):
        assert get_backend("scalar").name == "scalar"

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_batch_resolves_with_numpy(self):
        backend = get_backend("batch")
        assert backend.name == "batch"
        assert isinstance(backend, EngineBackend)

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_auto_is_scalar_with_numpy(self):
        # Batch never beat scalar by 1.5x end to end at any measured
        # population (docs/PERFORMANCE.md, "Parallel scalar grid").
        assert get_backend("auto").name == "scalar"

    def test_auto_falls_back_without_numpy(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "numpy_available", lambda: False)
        assert get_backend("auto").name == "scalar"

    def test_batch_errors_without_numpy(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "numpy_available", lambda: False)
        with pytest.raises(ConfigurationError, match="needs numpy"):
            get_backend("batch")

    def test_names_tuple_is_the_cli_contract(self):
        assert BACKEND_NAMES == ("scalar", "batch", "auto")
