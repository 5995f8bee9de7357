"""Tests for the serve daemon, its HTTP API, and the drain signal.

Every test runs the daemon in-process (real sockets on an ephemeral
loopback port) so a "daemon restart" is just a second ServeDaemon on
the same state directory — the same recovery path the CI smoke gate
exercises across real processes.
"""

import hashlib
import json
import os
import signal
import threading
import time

import pytest

from repro.exp.server import RunConfig
from repro.runner.sharded import DrainSignal
from repro.serve.checkpoint import FabricJobParams, run_resumable
from repro.serve.client import ServeClient, ServeError, connect, read_daemon_info
from repro.serve import daemon as daemon_module
from repro.serve.daemon import ServeDaemon

RUN_CONFIG = {"duration_s": 0.1}
PARAMS = {"racks": 2, "servers": 2}


@pytest.fixture(scope="module")
def uninterrupted_sha():
    outcome = run_resumable(
        RunConfig(**RUN_CONFIG), FabricJobParams(**PARAMS)
    )
    blob = json.dumps(
        outcome.result.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class DaemonHarness:
    """One in-process daemon plus a client bound to it."""

    def __init__(self, state_dir):
        self.daemon = ServeDaemon(state_dir=str(state_dir))
        self.thread = threading.Thread(
            target=self.daemon.serve_forever, daemon=True
        )
        self.thread.start()
        self.client = ServeClient(port=self.daemon.port)

    def stop(self):
        self.daemon._server.shutdown()
        self.thread.join(timeout=10)
        self.daemon.close()


@pytest.fixture
def harness(tmp_path):
    h = DaemonHarness(tmp_path / "state")
    yield h
    h.stop()


def wait_for_progress(client, job_id, epoch=2, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = client.status(job_id)
        progress = job.get("progress") or {}
        if progress.get("epoch", -1) >= epoch or job["status"] != "running":
            return job
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} made no progress in {timeout}s")


class TestStatePersistence:
    def test_interleaved_writers_on_one_state_dir(self, tmp_path, monkeypatch):
        """A replaced daemon's job thread may persist while its successor
        recovers: a write interleaved with another writer's must still
        land (no shared temp file to lose to the other's rename)."""
        state_dir = str(tmp_path / "state")
        first = ServeDaemon(state_dir=state_dir)
        second = ServeDaemon(state_dir=state_dir)
        real_dump = json.dump

        def dump_then_interleave(data, fh, **kwargs):
            real_dump(data, fh, **kwargs)
            monkeypatch.setattr(json, "dump", real_dump)
            writer = threading.Thread(
                target=second._write_state,
                args=("jobs.json", {"next_id": 2, "jobs": []}),
            )
            writer.start()
            writer.join()

        try:
            monkeypatch.setattr(json, "dump", dump_then_interleave)
            first._write_state("jobs.json", {"next_id": 1, "jobs": []})
        finally:
            first.close()
            second.close()
        with open(os.path.join(state_dir, "jobs.json")) as fh:
            assert json.load(fh)["next_id"] == 1  # the last rename wins
        assert not [n for n in os.listdir(state_dir) if n.endswith(".tmp")]


class TestApiBasics:
    def test_health(self, harness):
        health = harness.client.health()
        assert health["ok"] is True
        assert health["pid"] == os.getpid()

    def test_daemon_json_discovery(self, harness, tmp_path):
        info = read_daemon_info(str(tmp_path / "state"))
        assert info["port"] == harness.daemon.port
        client = connect(str(tmp_path / "state"), wait_s=5.0)
        assert client.health()["ok"]

    def test_unknown_job_is_404(self, harness):
        with pytest.raises(ServeError) as err:
            harness.client.status("job-999")
        assert err.value.code == 404

    def test_bad_submit_is_400(self, harness):
        with pytest.raises(ServeError) as err:
            harness.client.submit({"kind": "nonsense"})
        assert err.value.code == 400
        with pytest.raises(ServeError) as err:
            harness.client.submit(
                {"kind": "fabric", "run_config": {"no_such_knob": 1}}
            )
        assert err.value.code == 400

    def test_unknown_route_is_404(self, harness):
        with pytest.raises(ServeError) as err:
            harness.client.request("GET", "/nope")
        assert err.value.code == 404

    def test_checkpoint_requires_running_job(self, harness):
        job = harness.client.submit_fabric(RUN_CONFIG, PARAMS)
        harness.client.wait(job["id"])
        with pytest.raises(ServeError) as err:
            harness.client.checkpoint(job["id"])
        assert err.value.code == 409


class TestFabricLifecycle:
    def test_submit_runs_to_done(self, harness, uninterrupted_sha):
        job = harness.client.submit_fabric(RUN_CONFIG, PARAMS)
        done = harness.client.wait(job["id"])
        assert done["status"] == "done"
        assert done["payload_sha256"] == uninterrupted_sha
        # full status carries the payload itself
        assert done["payload"]["experiment"] == "fabric"

    def test_checkpoint_restart_resume_identical(
        self, tmp_path, uninterrupted_sha
    ):
        state_dir = tmp_path / "state"
        first = DaemonHarness(state_dir)
        job = first.client.submit_fabric(RUN_CONFIG, PARAMS, shard_jobs=2)
        wait_for_progress(first.client, job["id"])
        first.client.checkpoint(job["id"])
        paused = first.client.wait(job["id"])
        assert paused["status"] == "paused"
        assert paused["paused_epoch"] is not None
        first.stop()

        second = DaemonHarness(state_dir)
        recovered = second.client.status(job["id"])
        assert recovered["status"] == "paused"
        second.client.resume(job["id"])
        done = second.client.wait(job["id"], timeout=120.0)
        assert done["status"] == "done"
        assert done["payload_sha256"] == uninterrupted_sha
        second.stop()

    def test_journal_survives_pause_and_pages(self, tmp_path):
        state_dir = tmp_path / "state"
        h = DaemonHarness(state_dir)
        try:
            job = h.client.submit_fabric(RUN_CONFIG, PARAMS)
            wait_for_progress(h.client, job["id"])
            h.client.checkpoint(job["id"])
            h.client.wait(job["id"])
            records, cursor = h.client.journal(job["id"])
            kinds = [r["kind"] for r in records]
            assert kinds[0] == "meta"
            assert "interrupt" in kinds
            # paging: asking from the cursor returns nothing new yet
            more, cursor2 = h.client.journal(job["id"], since=cursor)
            assert more == [] and cursor2 == cursor

            h.client.resume(job["id"])
            h.client.wait(job["id"], timeout=120.0)
            tail, _ = h.client.journal(job["id"], since=cursor)
            tail_kinds = [r["kind"] for r in tail]
            assert "finish" in tail_kinds  # resumed run appended
            assert "interrupt" not in tail_kinds
        finally:
            h.stop()

    def test_cancel_mid_run(self, harness, monkeypatch):
        """The job is held at its epoch-1 barrier until the cancel is
        accepted, so it cannot finish between ``status`` and ``cancel``."""
        real_run = daemon_module.run_resumable
        at_barrier = threading.Event()
        release = threading.Event()

        def run_held_at_barrier(*args, should_pause, **kwargs):
            def hold_then_poll(system, epoch):
                if epoch >= 1 and not release.is_set():
                    at_barrier.set()
                    release.wait(timeout=60.0)
                return should_pause(system, epoch)

            return real_run(*args, should_pause=hold_then_poll, **kwargs)

        monkeypatch.setattr(daemon_module, "run_resumable", run_held_at_barrier)
        job = harness.client.submit_fabric(RUN_CONFIG, PARAMS)
        try:
            assert at_barrier.wait(timeout=60.0)
            status = harness.client.status(job["id"])
            assert status["status"] == "running"
            harness.client.cancel(job["id"])
        finally:
            release.set()
        final = harness.client.wait(job["id"])
        assert final["status"] == "cancelled"
        # a cancelled job checkpointed on the way out is resumable
        harness.client.resume(job["id"])
        done = harness.client.wait(job["id"], timeout=120.0)
        assert done["status"] == "done"

    def test_cancel_after_last_barrier_is_honoured(
        self, harness, monkeypatch, uninterrupted_sha
    ):
        """A cancel accepted while the job is running but after its last
        barrier poll still cancels (with a checkpoint of the finished
        systems), and resuming replays them to the uninterrupted payload."""
        real_run = daemon_module.run_resumable
        cancelled = []

        def finish_then_cancel(*args, **kwargs):
            outcome = real_run(*args, **kwargs)
            if not cancelled:
                (running,) = [
                    j["id"]
                    for j in harness.daemon.list_jobs()
                    if j["status"] == "running"
                ]
                cancelled.append(harness.daemon.checkpoint(running, cancel=True))
            return outcome

        monkeypatch.setattr(daemon_module, "run_resumable", finish_then_cancel)
        job = harness.client.submit_fabric(RUN_CONFIG, PARAMS)
        final = harness.client.wait(job["id"])
        assert final["status"] == "cancelled"
        assert final["checkpoint_sha256"]
        harness.client.resume(job["id"])
        done = harness.client.wait(job["id"], timeout=120.0)
        assert done["status"] == "done"
        assert done["payload_sha256"] == uninterrupted_sha

    def test_dead_job_without_checkpoint_fails_on_recovery(self, tmp_path):
        state_dir = tmp_path / "state"
        h = DaemonHarness(state_dir)
        job = h.client.submit_fabric(RUN_CONFIG, PARAMS)
        jid = job["id"]
        h.stop()
        # simulate a crash before the first checkpoint: delete it if the
        # drain wrote one, then recover
        jobs_file = state_dir / "jobs.json"
        data = json.loads(jobs_file.read_text())
        for row in data["jobs"]:
            if row["id"] == jid and row["status"] == "running":
                ckpt = row.get("checkpoint")
                if ckpt and os.path.exists(ckpt):
                    os.unlink(ckpt)
        h2 = DaemonHarness(state_dir)
        try:
            recovered = h2.client.status(jid)
            assert recovered["status"] in ("failed", "paused", "done", "cancelled")
        finally:
            h2.stop()


class TestSweepJobs:
    def test_sweep_counts_incremental(self, harness):
        specs = [
            {
                "op": "at_rate",
                "kind": "hal",
                "function": "rem",
                "rate_gbps": rate,
                "config": {"duration_s": 0.02},
                "params": [],
            }
            for rate in (5.0, 10.0)
        ]
        job = harness.client.submit_sweep(specs)
        done = harness.client.wait(job["id"])
        assert done["status"] == "done"
        assert done["payload"]["counts"]["ran"] == 2

        again = harness.client.submit_sweep(specs)
        done2 = harness.client.wait(again["id"])
        counts = done2["payload"]["counts"]
        assert counts["cached"] == 2 and counts["ran"] == 0

    def test_bad_sweep_spec_is_400(self, harness):
        with pytest.raises(ServeError) as err:
            harness.client.submit({"kind": "sweep", "specs": [{"op": "bogus"}]})
        assert err.value.code == 400


class TestDrainSignal:
    def test_first_signal_sets_flag(self):
        with DrainSignal() as drain:
            assert not drain.triggered
            os.kill(os.getpid(), signal.SIGINT)
            assert drain.triggered
            assert drain.signame == "SIGINT"

    def test_second_signal_raises(self):
        with DrainSignal() as drain:
            os.kill(os.getpid(), signal.SIGINT)
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
            assert drain.triggered

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGINT)
        with DrainSignal():
            pass
        assert signal.getsignal(signal.SIGINT) is before

    def test_inert_off_main_thread(self):
        seen = {}

        def target():
            with DrainSignal() as drain:
                seen["triggered"] = drain.triggered

        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
        assert seen == {"triggered": False}
