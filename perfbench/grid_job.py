"""One grid execution in a fresh interpreter, as the CLI runs it.

``run.py`` launches this script once per timed execution, so every
execution pays imports, config build and ``code_version()`` exactly as
``python -m repro fig6`` does; that set-up ends at the ``ready`` stamp.
``--mode scalar`` is ``run_grid`` with default ``ExecutionSettings``;
``--mode parallel`` is the program's own ``auto`` choices on one
process per usable CPU with a fresh journal and result cache. The last
stdout line is one JSON object for the parent; its ``peak_rss_mb`` is
this interpreter's and its reaped pool workers', read when the grid
returns.

Run by hand (from the repository root)::

    PYTHONPATH=src python3 perfbench/grid_job.py --seed 0 --mode scalar
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("scalar", "parallel"), default="scalar")
    parser.add_argument("--scale", choices=("default", "quick"), default="default")
    parser.add_argument("--work", type=Path, default=Path("."))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None,
                        help="trace the execution and write its spans here")
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = parse_args(argv)
    from repro.experiments.common import EvalConfig
    from repro.experiments.runner import ExecutionSettings, code_version, run_grid
    from repro.workloads.pairs import evaluation_pairs

    base = EvalConfig() if args.scale == "default" else EvalConfig.quick()
    config = replace(base, seed=args.seed)
    pairs = evaluation_pairs()
    scratch = Path(tempfile.mkdtemp(prefix="grid-", dir=args.work))
    if args.mode == "scalar":
        settings = ExecutionSettings()
    else:
        settings = ExecutionSettings(
            jobs=len(os.sched_getaffinity(0)),
            backend="auto",
            shards="auto",
            checkpoint=scratch / "journal.jsonl",
            checkpoint_sync="shard",
            cache_dir=scratch / "cache",
        )
    code_version()
    ready = time.perf_counter()
    if args.setup_only:
        shutil.rmtree(scratch)
        print(json.dumps({"ready": ready}))
        return 0

    import results

    tracer = None
    grid = run_grid
    if args.spans is not None:
        import tracer as tracing

        tracer = tracing.Tracer(scratch)
        tracing.install(tracer, batch=args.mode == "parallel")
        grid = tracer.wrap("runner.run_grid", run_grid)
    try:
        start = time.perf_counter()
        outcome = grid(config, pairs, settings)
        grid_s = time.perf_counter() - start
        record = {"ready": ready, "grid_s": grid_s, "peak_rss_mb": results.peak_rss_mb()}
        if tracer is not None:
            tracer.uninstall()
            trace = tracer.collect()
            trace.write(args.spans)
            record["layers"] = trace.layer_metrics(settings.jobs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record.update(
        results.summary(outcome.results),
        failed_tasks=len(outcome.failures),
        incomplete_pairs=len(outcome.incomplete_pairs),
        retries=outcome.retries,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
