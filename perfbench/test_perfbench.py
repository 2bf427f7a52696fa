"""Checks of the benchmark itself, at quick scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import results  # noqa: E402
import service_job  # noqa: E402

#: The largest share of a traced grid's ``run_grid`` wall time that the
#: named layer spans may leave to ``runner.self_s``.
MAX_UNATTRIBUTED = 0.05


def _grid_job(work: Path, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "grid_job.py"), "--seed", "0",
         "--scale", "quick", "--work", str(work), *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_named_spans_attribute_the_grid(tmp_path):
    record = _grid_job(tmp_path, "--spans", str(tmp_path / "spans.jsonl"))
    layers = record["layers"]
    assert layers["runner.attributed_frac"] >= 1.0 - MAX_UNATTRIBUTED, layers
    assert layers["engine.soe.runs"] == 64
    assert layers["engine.st.runs"] == 30
    assert layers["workloads.segments_unique"] < layers["workloads.segments_drawn"]
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["name"] == "runner.run_grid"


def test_scalar_and_parallel_paths_match_the_pinned_table(tmp_path):
    pinned = json.loads((BENCH / "pinned_seed0.json").read_text())
    assert len(pinned["digests"]) == 16
    for mode in ("scalar", "parallel"):
        record = _grid_job(tmp_path, "--mode", mode)
        assert {key: record[key] for key in pinned} == pinned, mode


def test_service_schedule_is_seeded_and_repeats_cross_tenants():
    labels = [f"b{i}:b{i}" for i in range(16)]
    arrivals = service_job.schedule(3, 25.0, 4.0, labels)
    assert arrivals == service_job.schedule(3, 25.0, 4.0, labels)
    assert arrivals != service_job.schedule(4, 25.0, 4.0, labels)
    assert len(arrivals) == 100
    seen: dict = {}
    repeats = 0
    for _, tenant, spec in arrivals:
        if spec in seen:
            repeats += 1
            assert tenant not in seen[spec]
        seen.setdefault(spec, set()).add(tenant)
    assert 0.1 < repeats / len(arrivals) < 0.4


def test_dispatch_spread_counts_gaps_between_backlogged_tenants():
    def queue(action, tenant, depth):
        return (0.0, {"event": "queue", "action": action, "tenant": tenant,
                      "depth": depth})

    round_robin = [queue("enqueue", "a", 1), queue("enqueue", "a", 2),
                   queue("enqueue", "b", 1), queue("enqueue", "b", 2),
                   queue("dispatch", "a", 1), queue("dispatch", "b", 1),
                   queue("dispatch", "a", 0), queue("dispatch", "b", 0)]
    assert service_job.queue_metrics(round_robin)["service.dispatch_spread"] == 1
    assert service_job.queue_metrics(round_robin)["service.max_backlog"] == 4
    unfair = round_robin[:4] + [queue("dispatch", "a", 1), queue("dispatch", "a", 0)]
    assert service_job.queue_metrics(unfair)["service.dispatch_spread"] == 2


def test_percentile_and_digest_helpers():
    values = [float(v) for v in range(1, 101)]
    assert results.percentile(values, 50) == 50.5
    assert results.beyond(values, 90) == 10
    assert results.digest([0.1, (1, 2)]) == results.digest([0.1, (1, 2)])
    assert results.digest([0.1]) != results.digest([0.1 + 2**-55])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
