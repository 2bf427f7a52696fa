"""End-to-end service tests: real processes, real sockets, real kills.

The durability satellite lives here: a service SIGKILLed mid-campaign
and restarted on the same journal serves every finished job
bit-identically and resumes every unfinished one; a SIGTERM drains
cleanly with exit code 0.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.service.client import ServiceClient
from repro.service.state import journal_note

_SRC = str(Path(repro.__file__).resolve().parents[1])

#: Sub-second job all e2e tests use for "fast" work.
_TINY = {
    "sample_period": 20_000,
    "min_instructions": 60_000,
    "warmup_instructions": 20_000,
    "st_min_instructions": 60_000,
    "fairness_levels": [0.0],
}

#: A multi-second job: guaranteed to still be running/queued when the
#: test kills the service moments after submission.
_SLOW = {
    "min_instructions": 30_000_000,
    "warmup_instructions": 500_000,
    "st_min_instructions": 3_000_000,
    "fairness_levels": [0.0, 0.5],
}

_STARTUP_S = 30.0
_FINISH_S = 120.0

#: How long a pool worker may outlive its SIGKILLed server: long enough
#: to finish the task it holds, then its parent's death reads as EOF.
_ORPHAN_S = 10.0


def _spec(tenant, pair, config):
    return {"tenant": tenant, "pair": pair, "scale": "quick",
            "config": dict(config)}


def _children(pid):
    """Child pids of every thread of ``pid`` (the service forks its pool
    workers from the dispatcher thread, not the main one)."""
    children = set()
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        children.update(int(child) for child in path.read_text().split())
    return children


def _running(pid):
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _await_exit(pids, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = {pid for pid in pids if _running(pid)}
        if not alive:
            return
        time.sleep(0.1)
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    raise AssertionError(f"processes {sorted(alive)} outlived their server")


class _Serve:
    """One ``python -m repro serve`` subprocess bound to port 0."""

    def __init__(self, tmp_path: Path, *extra: str) -> None:
        self.port_file = tmp_path / "port.txt"
        if self.port_file.exists():
            self.port_file.unlink()
        self.journal = tmp_path / "jobs.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--port-file", str(self.port_file),
                "--journal", str(self.journal),
                "--cache-dir", str(tmp_path / "cache"),
                "--jobs", "1",
                *extra,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + _STARTUP_S
        while time.monotonic() < deadline:
            if self.port_file.exists() and self.port_file.read_text().strip():
                break
            if self.process.poll() is not None:
                raise AssertionError(
                    "serve exited during startup:\n"
                    + (self.process.stdout.read() or "")
                )
            time.sleep(0.05)
        else:
            self.process.kill()
            raise AssertionError("serve never wrote its port file")
        port = int(self.port_file.read_text().strip())
        self.client = ServiceClient(f"http://127.0.0.1:{port}", timeout=30.0)

    def await_terminal(self, jid, timeout=_FINISH_S):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, body = self.client.status(jid)
            assert status == 200, body
            if body["terminal"]:
                return body
            time.sleep(0.1)
        raise AssertionError(f"job {jid} never finished")

    def sigterm_and_wait(self, timeout=_FINISH_S):
        self.process.send_signal(signal.SIGTERM)
        output, _ = self.process.communicate(timeout=timeout)
        return self.process.returncode, output

    def sigkill(self):
        # wait(), not communicate(): orphaned pool workers inherit the
        # stdout pipe and would keep communicate() blocked past the kill.
        self.process.kill()
        self.process.wait(timeout=30)
        self.process.stdout.close()

    def cleanup(self):
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)
        if not self.process.stdout.closed:
            self.process.stdout.close()


@pytest.fixture
def serve_factory(tmp_path):
    started = []

    def start(*extra):
        server = _Serve(tmp_path, *extra)
        started.append(server)
        return server

    yield start
    for server in started:
        server.cleanup()


class TestDrain:
    def test_sigterm_finishes_in_flight_work_and_exits_zero(
        self, serve_factory
    ):
        server = serve_factory()
        status, body = server.client.submit(_spec("acme", "gcc:eon", _TINY))
        assert status == 202, body
        jid = body["job"]
        final = server.await_terminal(jid)
        assert final["state"] == "completed"

        code, output = server.sigterm_and_wait()
        assert code == 0, output
        assert "drained cleanly" in output
        # The journal closes with a drain marker and an empty backlog.
        note = journal_note(server.journal, "drain")
        assert note is not None
        assert note["backlog"] == 0

    def test_readiness_and_health_endpoints(self, serve_factory):
        server = serve_factory()
        assert server.client.health() == (200, {"status": "ok"})
        status, body = server.client.ready()
        assert status == 200
        assert body["status"] == "ready"


class TestKillRestartDurability:
    def test_restart_serves_finished_jobs_and_resumes_the_rest(
        self, serve_factory
    ):
        server = serve_factory()
        # Job 1: fast -- finishes before the kill.
        status, body = server.client.submit(_spec("acme", "gcc:eon", _TINY))
        assert status == 202, body
        fast = body["job"]
        server.await_terminal(fast)
        _code, before = server.client.result(fast)
        # Jobs 2+3: multi-second -- mid-flight when the kill lands.
        slow = []
        for pair in ("gcc:gcc", "eon:eon"):
            status, body = server.client.submit(
                _spec("acme", pair, _SLOW)
            )
            assert status == 202, body
            slow.append(body["job"])
        pid = server.process.pid
        tracked = Path(f"/proc/{pid}/task/{pid}/children").exists()
        workers = _children(pid)
        server.sigkill()
        # The orphaned pool workers exit on their own: the dead server
        # reads as EOF (or EPIPE) once they shed the inherited pipe ends.
        assert workers or not tracked, "the server had no pool worker"
        _await_exit(workers, _ORPHAN_S)

        restarted = serve_factory()
        # The finished job is served from the journal, bit-identically.
        status, body = restarted.client.status(fast)
        assert status == 200
        assert body["state"] == "completed"
        assert body["detail"] == "journal"
        _code, after = restarted.client.result(fast)
        assert json.dumps(before, sort_keys=True) == json.dumps(
            after, sort_keys=True
        )
        # The unfinished jobs were resumed and complete on their own.
        for jid in slow:
            final = restarted.await_terminal(jid)
            assert final["state"] in ("completed", "cached"), final
        _status, stats = restarted.client.stats()
        assert stats["resumed_jobs"] == 2

        code, output = restarted.sigterm_and_wait()
        assert code == 0, output


class TestCliClients:
    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=env, capture_output=True, text=True, timeout=_FINISH_S,
        )

    def test_submit_status_watch_round_trip(self, serve_factory):
        server = serve_factory()
        url = f"http://127.0.0.1:{server.client.port}"
        submitted = self._run(
            "submit", "--url", url, "--tenant", "cli", "--pair", "gcc:eon",
            "--levels", "0,0.5", "--wait",
        )
        assert submitted.returncode == 0, submitted.stdout + submitted.stderr
        # --wait streams compact one-line status updates after the
        # (indented) submission echo; any of them carries the job id.
        jid = None
        for line in submitted.stdout.splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict) and "job" in entry:
                jid = entry["job"]
        assert jid is not None, submitted.stdout

        watched = self._run("watch", "--url", url, jid)
        assert watched.returncode == 0, watched.stdout + watched.stderr
        last = json.loads(watched.stdout.splitlines()[-1])
        assert last["state"] in ("completed", "cached")

        status = self._run("status", "--url", url, jid, "--result")
        assert status.returncode == 0
        assert "runs" in json.loads(status.stdout)["result"]

        stats = self._run("status", "--url", url)
        assert stats.returncode == 0
        assert "backlog" in json.loads(stats.stdout)


class TestStallChaos:
    def test_stalled_requests_are_slow_but_served(self, serve_factory):
        server = serve_factory("--inject-faults", "stall@0*2")
        t0 = time.monotonic()
        assert server.client.health()[0] == 200  # request 0: stalled
        assert server.client.health()[0] == 200  # request 1: stalled
        stalled = time.monotonic() - t0
        t0 = time.monotonic()
        assert server.client.health()[0] == 200  # request 2: clean
        clean = time.monotonic() - t0
        assert stalled >= 0.4  # two 0.2 s injected stalls
        assert clean < 0.4
