"""Tests for engine-backend selection in the grid runner and CLI.

The backend is an execution setting: it decides *how* SOE tasks are
advanced (per-task scalar engines under supervision vs. one in-process
vectorized batch), never *what* the grid computes. Every test here is
a restatement of that invariant -- batch and auto grids must be
bit-identical to scalar ones (``auto`` resolves to scalar), and
checkpoints/caches written by one backend must be transparently usable
by another.
"""

import pytest

from repro.cli import _execution_settings, build_parser
from repro.engine.backend import numpy_available
from repro.errors import ConfigurationError
from repro.experiments.common import EvalConfig
from repro.experiments.runner import ExecutionSettings, run_grid
from repro.workloads.pairs import BenchmarkPair

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="needs numpy")

PAIRS = (
    BenchmarkPair("gcc", "eon"),
    BenchmarkPair("lucas", "applu"),
)


@pytest.fixture(scope="module")
def config():
    return EvalConfig.quick()


@pytest.fixture(scope="module")
def scalar_grid(config):
    return run_grid(config, PAIRS, ExecutionSettings(backend="scalar"))


class TestSettingsValidation:
    def test_default_is_scalar(self):
        assert ExecutionSettings().backend == "scalar"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend must be one"):
            ExecutionSettings(backend="vector")

    def test_known_backends_accepted(self):
        for name in ("scalar", "batch", "auto"):
            assert ExecutionSettings(backend=name).backend == name


@needs_numpy
class TestGridBackendEquivalence:
    def test_batch_grid_bit_identical_to_scalar(self, config, scalar_grid):
        batch = run_grid(config, PAIRS, ExecutionSettings(backend="batch"))
        assert batch.results == scalar_grid.results
        assert batch.failures == ()

    def test_auto_grid_bit_identical_to_scalar(self, config, scalar_grid):
        auto = run_grid(config, PAIRS, ExecutionSettings(backend="auto"))
        assert auto.results == scalar_grid.results

    def test_auto_grid_never_runs_the_batch_backend(
        self, config, scalar_grid, monkeypatch
    ):
        from repro.engine.batch import BatchBackend

        def refuse(self, specs):
            raise AssertionError("auto ran the batch backend")

        monkeypatch.setattr(BatchBackend, "run_batch", refuse)
        auto = run_grid(
            config, PAIRS, ExecutionSettings(backend="auto", shards="auto")
        )
        assert auto.results == scalar_grid.results

    def test_batch_checkpoint_resumes_under_scalar(
        self, config, scalar_grid, tmp_path
    ):
        journal = tmp_path / "grid.ckpt"
        first = run_grid(
            config,
            PAIRS,
            ExecutionSettings(backend="batch", checkpoint=journal),
        )
        assert journal.exists() and journal.stat().st_size > 0
        resumed = run_grid(
            config,
            PAIRS,
            ExecutionSettings(
                backend="scalar", checkpoint=journal, resume=True
            ),
        )
        # Every task (batched SOE runs included) was journaled, so the
        # scalar resume replays the journal instead of simulating.
        assert resumed.resumed_tasks > 0
        assert resumed.results == first.results == scalar_grid.results

    def test_batch_cache_served_to_scalar_run(
        self, config, scalar_grid, tmp_path
    ):
        settings = ExecutionSettings(backend="batch", cache_dir=tmp_path)
        first = run_grid(config, PAIRS, settings)
        assert first.stats.misses == len(PAIRS)
        second = run_grid(
            config, PAIRS, ExecutionSettings(backend="scalar", cache_dir=tmp_path)
        )
        assert second.stats.hits == len(PAIRS)
        assert second.results == scalar_grid.results


class TestAutoWithoutNumpy:
    def test_auto_grid_falls_back_to_scalar(
        self, config, scalar_grid, monkeypatch
    ):
        from repro.engine import backend as backend_mod

        monkeypatch.setattr(backend_mod, "numpy_available", lambda: False)
        auto = run_grid(config, PAIRS, ExecutionSettings(backend="auto"))
        assert auto.results == scalar_grid.results


class TestCliFlag:
    def test_default_backend_is_scalar(self):
        args = build_parser().parse_args(["fig3"])
        assert args.backend == "scalar"
        assert _execution_settings(args).backend == "scalar"

    def test_backend_flag_reaches_settings(self):
        args = build_parser().parse_args(["--backend", "batch", "fig3"])
        assert _execution_settings(args).backend == "batch"

    def test_unknown_backend_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "vector", "fig3"])
        assert "invalid choice" in capsys.readouterr().err
