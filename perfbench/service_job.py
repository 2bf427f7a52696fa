"""The service workload in a fresh interpreter: an open loop of jobs.

Set-up (imports, ``code_version()``, ``ServiceApp`` construction,
``start()`` and one warm-up job) ends at the ``ready`` stamp. Then a
single-process open loop submits a seeded schedule straight into
``ServiceApp.submit`` -- the surface ``service.http`` translates one to
one -- and polls ``job_status`` until every job is terminal. A job's
latency runs from its *scheduled* arrival, so a stall is charged to the
jobs queued behind it. After the loop the service serves the 16
quick-scale pair jobs of config seed 0, whose results ``run.py``
compares with the pinned table; then it is stopped and every job's
result is checked against ``compute_pair`` of its spec. The pool
worker's CPU seconds per 16 computed jobs -- one quick-scale grid's
worth of pair jobs -- is the workload's ``grid_s``.

Run by hand (from the repository root)::

    PYTHONPATH=src python3 perfbench/service_job.py --seed 0 --seconds 10
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments.common import EvalConfig
from repro.experiments.runner import code_version, compute_pair
from repro.service.app import ServiceApp, ServiceConfig
from repro.telemetry import RUNNER, TraceSink, set_sink
from repro.workloads.pairs import evaluation_pairs

import results

#: Tenants and the share of jobs each submits.
TENANTS = (("heavy", 0.6), ("light1", 0.2), ("light2", 0.2))
LIGHT = frozenset(("light1", "light2"))
#: Share of jobs that repeat a recent spec first sent by another tenant.
REPEAT_SHARE = 0.25
#: Half the repeats follow their original this closely, while it is
#: still queued or running (a duplicate compute); the other half this
#: late, when its result is cached. Fixing the split keeps the computed
#: work the same however fast the host runs.
IN_FLIGHT_AFTER_S = 0.001
CACHED_AFTER_S = 5.0
#: Poll cadence of the open loop between arrivals (latency resolution).
POLL_S = 0.002
#: Jobs still unfinished this long after the last arrival count as failed.
TAIL_TIMEOUT_S = 60.0
WARMUP_SPEC = {"tenant": "warmup", "pair": "eon:eon", "scale": "quick",
               "config": {"seed": -1}}

#: Offered load, jobs per second: about a third of what one pool worker
#: serves (quick-scale jobs take ~0.12 s on average), so host-speed
#: swings do not push the queue towards saturation.
RATE = 3.0

clock = time.perf_counter


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, default=Path("."))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None,
                        help="trace the run and write its spans here")
    return parser.parse_args(argv)


def schedule(seed: int, seconds: float, rate: float, labels: list) -> list:
    """``(due, tenant, (pair label, config seed))`` per arrival, by due.

    ``rate * seconds`` jobs. Fresh jobs arrive uniformly on
    ``[0, seconds)`` -- a Poisson process conditioned on its count --
    and each repeat follows a fresh job of another tenant (see
    ``IN_FLIGHT_AFTER_S``). The mix is stratified so that seeds change
    the order of jobs, not their make-up: tenant shares and the repeat
    count are exact, and each tenant's fresh specs walk its own rounds
    of the 16 evaluation pairs (a seeded order per round, config seed
    ``seed * 1000 + 100 * tenant + round``).
    """
    rng = random.Random(seed)
    count = round(rate * seconds)
    repeats = round(REPEAT_SHARE * count)

    def senders(total: int) -> list:
        names = [name for name, share in TENANTS for _ in range(round(share * total))]
        names = (names + [TENANTS[0][0]] * total)[:total]
        rng.shuffle(names)
        return names

    def fresh_specs(tenant: int):
        for index in range(count):
            order = list(labels)
            rng.shuffle(order)
            for label in order:
                yield label, seed * 1000 + 100 * tenant + index

    fresh = {name: fresh_specs(tenant) for tenant, (name, _) in enumerate(TENANTS)}
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count - repeats))
    arrivals = [
        (due, tenant, next(fresh[tenant]))
        for due, tenant in zip(times, senders(len(times)))
    ]
    sent_by = {spec: {tenant} for _, tenant, spec in arrivals}
    for index, tenant in enumerate(senders(repeats)):
        # A run too short for a cached repeat repeats in flight instead.
        delays = (
            (IN_FLIGHT_AFTER_S,)
            if index % 2 == 0
            else (CACHED_AFTER_S, IN_FLIGHT_AFTER_S)
        )
        for delay in delays:
            candidates = [
                (due, spec)
                for due, _, spec in arrivals[: len(times)]
                if tenant not in sent_by[spec] and due + delay < seconds
            ]
            if candidates:
                break
        due, spec = rng.choice(candidates)
        sent_by[spec].add(tenant)
        arrivals.append((due + delay, tenant, spec))
    return sorted(arrivals)


def serve_pinned(app: object, pairs: list) -> dict:
    """:func:`results.summary` of the service's own results for the 16
    quick-scale pairs under config seed 0 (``{"error": ...}`` if any
    job fails)."""
    served = []
    for pair in pairs:
        _, body, _ = app.submit(payload("pinned", (pair.label, 0)))
        if wait_terminal(app, body["job"]) not in ("completed", "cached"):
            return {"error": f"pinned job {pair.label} failed"}
        served.append(app.jobs[body["job"]].result)
    return results.summary(served)


def payload(tenant: str, spec: tuple) -> dict:
    label, config_seed = spec
    return {"tenant": tenant, "pair": label, "scale": "quick",
            "config": {"seed": config_seed}}


def wait_terminal(app: object, jid: str) -> str:
    while True:
        status = app.job_status(jid)
        if status["terminal"]:
            return status["state"]
        time.sleep(POLL_S)


def open_loop(app: object, arrivals: list, deadline_after: float) -> list:
    """Submit on schedule, poll to completion; one record per arrival."""
    records = [
        {"due": due, "tenant": tenant, "spec": spec, "done": None}
        for due, tenant, spec in arrivals
    ]
    origin = clock() + 0.05
    waiting: dict = {}
    index = 0
    last_due = origin + (arrivals[-1][0] if arrivals else 0.0)
    while index < len(records) or waiting:
        now = clock()
        if index < len(records) and now >= origin + records[index]["due"]:
            record = records[index]
            index += 1
            record["due"] += origin
            record["late"] = now - record["due"]
            status, body, _ = app.submit(payload(record["tenant"], record["spec"]))
            returned = clock()
            record["submit_s"] = returned - now
            record["status"] = status
            record["job"] = body.get("job")
            if status == 202:
                waiting.setdefault(record["job"], []).append(record)
            else:
                record["done"] = returned
            continue
        if now > last_due + deadline_after:
            break
        for jid in list(waiting):
            if app.job_status(jid)["terminal"]:
                finished = clock()
                for record in waiting.pop(jid):
                    record["done"] = finished
        pause = POLL_S
        if index < len(records):
            pause = min(pause, origin + records[index]["due"] - clock())
        if pause > 0:
            time.sleep(pause)
    return records


class StampSink(TraceSink):
    """Time-stamps the service's ``job``/``queue`` events on arrival."""

    def __init__(self) -> None:
        super().__init__(frozenset((RUNNER,)))
        self.pid = os.getpid()
        self.stamps: list = []

    def emit(self, event: dict) -> None:
        if os.getpid() == self.pid and event.get("event") in ("job", "queue"):
            self.stamps.append((clock(), dict(event)))


def queue_metrics(stamps: list) -> dict:
    """Queue wait, execution time, backlog and DRR dispatch spread."""
    accepted: dict = {}
    dispatched: dict = {}
    waits, execs = [], []
    depth: dict = {}
    lead: dict = {}
    max_backlog = 0
    spread = 0
    for at, event in stamps:
        if event["event"] == "job":
            jid = event["job"]
            if event["phase"] == "submitted":
                accepted[jid] = at
            elif event["phase"] == "dispatched":
                dispatched[jid] = at
                if jid in accepted:
                    waits.append(at - accepted[jid])
            elif event["phase"] in ("completed", "failed") and jid in dispatched:
                execs.append(at - dispatched[jid])
            continue
        tenant = event["tenant"]
        if event["action"] == "enqueue":
            depth[tenant] = event["depth"]
        elif event["action"] == "dispatch":
            # Dispatches each tenant got while both it and another
            # tenant were backlogged; DRR keeps every gap within one.
            for other, other_depth in depth.items():
                if other == tenant or other_depth <= 0:
                    continue
                key = tuple(sorted((tenant, other)))
                lead[key] = lead.get(key, 0) + (1 if key[0] == tenant else -1)
                spread = max(spread, abs(lead[key]))
            depth[tenant] = event["depth"]
            if event["depth"] == 0:
                for key in [key for key in lead if tenant in key]:
                    del lead[key]
        max_backlog = max(max_backlog, sum(depth.values()))

    def pct(values: list, p: int) -> float:
        return results.percentile(values, p) if values else 0.0

    return {
        "service.queue_wait_p50_s": pct(waits, 50),
        "service.queue_wait_p90_s": pct(waits, 90),
        "service.exec_p50_s": pct(execs, 50),
        "service.exec_p90_s": pct(execs, 90),
        "service.exec_sum_s": sum(execs),
        "service.max_backlog": max_backlog,
        "service.dispatch_spread": spread,
    }


def settle(app: object, records: list) -> tuple:
    """Final job states: served results per spec, computed specs,
    failed jobs and retries."""
    served: dict = {}
    computed = []
    failed = 0
    retries = 0
    for record in records:
        job = app.jobs.get(record["job"]) if record.get("job") else None
        record["state"] = job.state if job is not None else "rejected"
        if record["done"] is None or record["state"] not in ("completed", "cached"):
            failed += 1
            continue
        served.setdefault(record["spec"], []).append(job.result)
        retries += max(0, job.attempts - 1)
        if record["state"] == "completed":
            computed.append(record["spec"])
    return served, computed, failed, retries


def recompute(served: dict, by_pair: dict) -> tuple:
    """Correctness: each served result against ``compute_pair`` of its
    spec. Specs sharing a config seed share single-thread baselines, as
    in one grid. Returns (reference results, mismatches, seconds)."""
    memos: dict = {}
    reference = []
    mismatches = 0
    start = clock()
    for label, config_seed in sorted(served):
        config = replace(EvalConfig.quick(), seed=config_seed)
        expected = compute_pair(by_pair[label], config, memos.setdefault(config_seed, {}))
        reference.append(expected)
        want = results.digest(expected)
        mismatches += sum(
            1 for got in served[(label, config_seed)] if results.digest(got) != want
        )
    return reference, mismatches, clock() - start


def main(argv: list) -> int:
    args = parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="service-", dir=args.work))
    tracer = sink = previous_sink = None
    if args.spans is not None:
        import tracer as tracing

        (scratch / "spans").mkdir()
        tracer = tracing.Tracer(scratch / "spans")
        tracing.install(tracer, service=True)
        sink = StampSink()
        previous_sink = set_sink(sink)
    code_version()
    app = ServiceApp(ServiceConfig(
        jobs=1, journal=scratch / "journal.jsonl", cache_dir=scratch / "cache"
    ))
    try:
        app.start()
        _, body, _ = app.submit(WARMUP_SPEC)
        warmup_state = wait_terminal(app, body["job"])
        ready = clock()
        if args.setup_only:
            print(json.dumps({"ready": ready, "failed": int(warmup_state != "completed")}))
            return 0
        if sink is not None:
            sink.stamps.clear()
        pairs = evaluation_pairs()
        arrivals = schedule(args.seed, args.seconds, RATE,
                            [pair.label for pair in pairs])
        records = open_loop(app, arrivals, TAIL_TIMEOUT_S)
        if tracer is not None:
            # Every loop job is terminal, so its worker spans are on disk;
            # the pinned jobs below stay out of the trace.
            trace = tracer.collect()
            stamps = list(sink.stamps)
        pinned = serve_pinned(app, pairs)
    finally:
        app.stop()
        if sink is not None:
            set_sink(previous_sink)

    # The pool worker has been reaped: its CPU time is the compute of
    # every job it ran (warm-up, loop and pinned jobs alike).
    peak_rss_mb = results.peak_rss_mb()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_cpu_s = usage.ru_utime + usage.ru_stime
    worker_jobs = sum(1 for job in app.jobs.values() if job.state == "completed")
    served, computed, failed, retries = settle(app, records)
    by_pair = {pair.label: pair for pair in pairs}
    layers = None
    if tracer is not None:
        trace.write(args.spans)
        layers = trace.layer_metrics(1)
        # Tracing overhead: the same recompute with and without spans.
        _, _, traced_recompute_s = recompute(served, by_pair)
        tracer.uninstall()
    shutil.rmtree(scratch, ignore_errors=True)
    reference, mismatches, recompute_s = recompute(served, by_pair)
    failed += mismatches

    latencies = [r["done"] - r["due"] for r in records if r["done"] is not None]
    light = [r["done"] - r["due"] for r in records
             if r["done"] is not None and r["tenant"] in LIGHT]
    cycles, switches = results.sim_totals(reference)
    accepted = [r for r in records if r.get("status") in (200, 202)]
    out = {
        "ready": ready,
        "attempted": len(records),
        "failed": failed,
        "latencies": latencies,
        "light": light,
        "grid_s": worker_cpu_s * len(pairs) / worker_jobs,
        "peak_rss_mb": peak_rss_mb,
        "rate": RATE,
        "late_ms": max(r.get("late", 0.0) for r in records) * 1000.0,
        "retries": retries,
        "speedup_err_pp": results.speedup_err_pp(reference),
        "fairness_shortfall": results.fairness_shortfall(reference),
        "sim_cycles": cycles,
        "switches": switches,
        "pinned": pinned,
    }
    if layers is not None:
        stats = queue_metrics(stamps)
        submits = [r["submit_s"] for r in records]
        cached = sum(1 for r in accepted if r["state"] == "cached")
        tasks = [s for s in trace.spans if s[0] == "task"]
        task_s = sum(s[2] - s[1] for s in tasks)
        loop_wall = max(r["done"] for r in records if r["done"] is not None) - min(
            r["due"] for r in records
        )
        exec_sum = stats.pop("service.exec_sum_s")
        layers.update(stats)
        layers.update({
            "service.submit_p50_s": results.percentile(submits, 50),
            "service.submit_p90_s": results.percentile(submits, 90),
            "service.journal_s": sum(
                s[2] - s[1] for s in trace.spans if s[0] == "service.journal"
            ),
            "service.cache_hit_frac": cached / len(accepted) if accepted else 0.0,
            "service.dup_compute_frac": (
                (len(computed) - len(set(computed))) / len(computed) if computed else 0.0
            ),
            "supervisor.worker_busy_frac": task_s / loop_wall if loop_wall else 0.0,
            "supervisor.overhead_s": max(0.0, exec_sum - task_s),
        })
        layers["trace.overhead_s"] = traced_recompute_s - recompute_s
        layers["trace.overhead_frac"] = (traced_recompute_s - recompute_s) / recompute_s
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
