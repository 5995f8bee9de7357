"""The ``repro serve`` daemon: a resident local job service.

Wall-clock zone — this module owns real sockets, threads, files and
signals; everything deterministic lives behind
:mod:`repro.serve.checkpoint` and :mod:`repro.serve.planner`.

The daemon turns the repo from fire-and-forget scripts into a service:
jobs are submitted over a local HTTP API (loopback only), executed on
background threads through the existing runner layer, and survive the
daemon itself — every state transition is persisted to ``state_dir``,
running fabric jobs checkpoint at epoch barriers, and a killed-and-
restarted daemon reports interrupted jobs as resumable instead of
losing them (the CI ``serve-smoke`` gate kills it with SIGKILL
mid-job and asserts the resumed payload sha).

API (JSON over HTTP on 127.0.0.1)::

    GET  /health                  daemon liveness + job counts
    GET  /jobs                    all job records (summaries)
    POST /jobs                    submit {"kind": "fabric"|"sweep", ...}
    GET  /jobs/<id>               one full record (payload included)
    POST /jobs/<id>/checkpoint    drain to the next barrier and persist
    POST /jobs/<id>/cancel        checkpoint, then mark cancelled
    POST /jobs/<id>/resume        continue a paused/cancelled job
    GET  /jobs/<id>/journal?since=N   epoch/journal records from N on
    POST /shutdown                checkpoint running jobs and exit

Job kinds:

* ``fabric`` — one resumable fabric experiment (``run_config`` +
  ``params`` + ``shard_jobs``), checkpointed to
  ``state_dir/<id>.ckpt.json`` and journaled to
  ``state_dir/<id>.journal.jsonl`` (the streaming progress feed);
* ``sweep`` — a list of canonical job specs planned incrementally over
  the shared result cache (:mod:`repro.serve.planner`); the payload
  reports planned/cached/ran counts per cell.

State directory layout: ``daemon.json`` (pid/host/port of the live
daemon), ``jobs.json`` (every job record, rewritten atomically on each
transition), plus the per-job checkpoint and journal files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys
import threading
import traceback
from dataclasses import asdict, dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.exp.server import RunConfig
from repro.obs.log import get_logger
from repro.runner import DEFAULT_CACHE_DIR, ResultCache, Runner
from repro.runner.spec import JobSpec
from repro.serve.checkpoint import (
    EXPERIMENT_KIND,
    FabricJobParams,
    load_checkpoint_job,
    run_resumable,
    write_finished_checkpoint,
)
from repro.serve.snapshot import read_checkpoint

log = get_logger("serve")

#: default daemon state directory, relative to the working directory
DEFAULT_STATE_DIR = ".repro-serve"

JOB_KINDS = ("fabric", "sweep")

#: statuses a job can be resumed from
RESUMABLE = ("paused", "cancelled")


class ApiError(Exception):
    """Maps to an HTTP error response."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass
class Job:
    """One persisted job record (everything JSON-safe)."""

    id: str
    kind: str
    status: str = "queued"
    detail: str = ""
    shard_jobs: int = 1
    jobs: int = 1
    run_config: Dict[str, Any] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)
    specs: List[Dict[str, Any]] = field(default_factory=list)
    progress: Dict[str, Any] = field(default_factory=dict)
    paused_system: Optional[str] = None
    paused_epoch: Optional[int] = None
    checkpoint: Optional[str] = None
    checkpoint_sha256: Optional[str] = None
    journal: Optional[str] = None
    payload: Optional[Dict[str, Any]] = None
    payload_sha256: Optional[str] = None

    def to_dict(self, full: bool = True) -> Dict[str, Any]:
        data = asdict(self)
        if not full:
            data.pop("payload", None)
            data.pop("specs", None)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


class _JobControl:
    """In-memory (never persisted) control half of a running job."""

    def __init__(self) -> None:
        self.pause = threading.Event()
        self.cancel = False
        self.thread: Optional[threading.Thread] = None


def _payload_sha256(payload: Dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ServeDaemon:
    """Job store + executor threads + the HTTP front end."""

    def __init__(
        self,
        state_dir: str = DEFAULT_STATE_DIR,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.state_dir = state_dir
        # sweep results default to a cache *inside* the state dir, so a
        # daemon is self-contained; point --cache-dir at the shared
        # .repro-cache to pool results with batch CLI runs
        self.cache_dir = cache_dir or os.path.join(state_dir, "cache")
        os.makedirs(state_dir, exist_ok=True)
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._controls: Dict[str, _JobControl] = {}
        self._next_id = 1
        self._load()
        self._recover()
        self._server = _ApiServer((host, port), _ApiHandler, daemon=self)
        self.host, self.port = self._server.server_address[:2]
        self._write_state(
            "daemon.json",
            {"pid": os.getpid(), "host": self.host, "port": self.port},
        )
        self._shutdown_started = False

    # -- persistence -----------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self.state_dir, name)

    def _write_state(self, name: str, data: Any) -> None:
        # a temp name per writer: the job thread of a daemon being replaced
        # can still persist while its successor recovers the same state
        # dir, and two writers sharing one temp path lose a rename
        tmp = self._path(f"{name}.{os.getpid()}.{threading.get_ident()}.tmp")
        with open(tmp, "w") as fh:
            json.dump(data, fh, indent=1)
        os.replace(tmp, self._path(name))

    def _persist(self) -> None:
        with self._lock:
            self._write_state(
                "jobs.json",
                {
                    "next_id": self._next_id,
                    "jobs": [
                        self._jobs[job_id].to_dict() for job_id in self._order
                    ],
                },
            )

    def _load(self) -> None:
        try:
            with open(self._path("jobs.json")) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return
        self._next_id = int(data.get("next_id", 1))
        for record in data.get("jobs", []):
            job = Job.from_dict(record)
            self._jobs[job.id] = job
            self._order.append(job.id)

    def _recover(self) -> None:
        """A job that was running when the previous daemon died is
        resumable iff its barrier checkpoint made it to disk."""
        dirty = False
        for job in self._jobs.values():
            if job.status not in ("running", "queued"):
                continue
            dirty = True
            if job.checkpoint and os.path.exists(job.checkpoint):
                job.status = "paused"
                job.detail = "daemon restarted; resumable from checkpoint"
            else:
                job.status = "failed"
                job.detail = "daemon died before the first checkpoint"
        if dirty:
            self._persist()

    # -- job API (called from handler threads) ---------------------------

    def submit(self, body: Dict[str, Any]) -> Job:
        kind = body.get("kind")
        if kind not in JOB_KINDS:
            raise ApiError(400, f"job kind must be one of {JOB_KINDS}")
        with self._lock:
            job_id = f"job-{self._next_id}"
            self._next_id += 1
        job = Job(id=job_id, kind=kind)
        try:
            run_config = RunConfig(**body.get("run_config", {}))
            job.run_config = asdict(run_config)
            if kind == "fabric":
                params = FabricJobParams.from_dict(
                    dict(body.get("params", {}))
                )
                job.params = params.to_dict()
                job.shard_jobs = int(body.get("shard_jobs", 1))
                job.checkpoint = self._path(f"{job_id}.ckpt.json")
                job.journal = self._path(f"{job_id}.journal.jsonl")
            else:
                specs = [
                    JobSpec.from_canonical(spec)
                    for spec in body.get("specs", [])
                ]
                if not specs:
                    raise ValueError("sweep job needs a non-empty 'specs' list")
                job.specs = [spec.canonical() for spec in specs]
                job.jobs = int(body.get("jobs", 1))
        except (TypeError, ValueError) as error:
            raise ApiError(400, f"bad job body: {error}") from error
        with self._lock:
            self._jobs[job_id] = job
            self._order.append(job_id)
        self._start(job)
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ApiError(404, f"no such job {job_id!r}")
        return job

    def list_jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [self._jobs[j].to_dict(full=False) for j in self._order]

    def checkpoint(self, job_id: str, cancel: bool = False) -> Job:
        job = self.get(job_id)
        with self._lock:
            control = self._controls.get(job_id)
            if control is None or job.status != "running":
                raise ApiError(
                    409, f"job {job_id} is {job.status}, not running"
                )
            control.cancel = control.cancel or cancel
            control.pause.set()
        return job

    def resume(self, job_id: str) -> Job:
        job = self.get(job_id)
        with self._lock:
            if job.status not in RESUMABLE:
                raise ApiError(
                    409,
                    f"job {job_id} is {job.status}; only "
                    f"{'/'.join(RESUMABLE)} jobs resume",
                )
            if not (job.checkpoint and os.path.exists(job.checkpoint)):
                raise ApiError(409, f"job {job_id} has no checkpoint on disk")
            job.status = "queued"
            job.detail = ""
        self._persist()
        self._start(job)
        return job

    def journal_records(
        self, job_id: str, since: int = 0
    ) -> Tuple[List[Dict[str, Any]], int]:
        job = self.get(job_id)
        if not job.journal:
            return [], since
        try:
            with open(job.journal) as fh:
                lines = [line for line in fh.read().split("\n") if line]
        except OSError:
            return [], since
        records: List[Dict[str, Any]] = []
        for line in lines[since:]:
            try:
                records.append(json.loads(line))
            except ValueError:
                break  # half-written tail; the client retries later
        return records, since + len(records)

    # -- execution -------------------------------------------------------

    def _start(self, job: Job) -> None:
        control = _JobControl()
        target = self._run_fabric if job.kind == "fabric" else self._run_sweep
        control.thread = threading.Thread(
            target=target, args=(job, control), daemon=True, name=job.id
        )
        with self._lock:
            self._controls[job.id] = control
            job.status = "running"
        self._persist()
        control.thread.start()

    def _run_fabric(self, job: Job, control: _JobControl) -> None:
        from repro.obs.fleet import FleetTelemetry

        try:
            resume_body: Optional[Dict[str, Any]] = None
            if job.checkpoint and os.path.exists(job.checkpoint):
                resume_body = read_checkpoint(job.checkpoint, EXPERIMENT_KIND)
                run_config, params = load_checkpoint_job(resume_body)
            else:
                run_config = RunConfig(**job.run_config)
                params = FabricJobParams.from_dict(job.params)

            def should_pause(system: str, epoch: int) -> bool:
                job.progress = {"system": system, "epoch": epoch}
                return control.pause.is_set()

            # a resumed run appends so the paused run's records (meta,
            # epochs, the interrupt marker) stay in the journal
            with FleetTelemetry(
                journal_path=job.journal,
                journal_append=resume_body is not None,
            ) as telemetry:
                outcome = run_resumable(
                    run_config,
                    params,
                    shard_jobs=job.shard_jobs,
                    checkpoint_path=job.checkpoint,
                    should_pause=should_pause,
                    resume_body=resume_body,
                    telemetry=telemetry,
                )
                if outcome.paused:
                    telemetry.interrupt(
                        epoch=outcome.paused_epoch or 0,
                        signame="",
                        resumable=True,
                    )
        except Exception as error:
            with self._lock:
                job.status = "failed"
                job.detail = f"{type(error).__name__}: {error}"
            log.error("job_failed", job=job.id, error=str(error))
            log.debug("job_traceback", job=job.id, tb=traceback.format_exc())
            self._persist()
            return
        with self._lock:
            if outcome.paused:
                job.status = "cancelled" if control.cancel else "paused"
                job.paused_system = outcome.paused_system
                job.paused_epoch = outcome.paused_epoch
                job.checkpoint_sha256 = outcome.checkpoint_sha256
                job.detail = (
                    f"checkpointed mid-{outcome.paused_system} at epoch "
                    f"{outcome.paused_epoch}"
                )
            elif control.cancel and job.checkpoint:
                # the cancel was accepted after the run's last barrier
                # poll: honour it with a checkpoint of the finished
                # systems, which a resume replays without simulating
                job.status = "cancelled"
                job.checkpoint_sha256 = write_finished_checkpoint(
                    job.checkpoint, run_config, params, outcome.completed
                )
                job.detail = "cancelled after its last barrier"
            else:
                assert outcome.result is not None
                job.status = "done"
                job.payload = outcome.result.to_dict()
                job.payload_sha256 = _payload_sha256(job.payload)
                job.progress = {}
        log.info("job_finished", job=job.id, status=job.status)
        self._persist()

    def _run_sweep(self, job: Job, control: _JobControl) -> None:
        from repro.serve.planner import run_sweep

        try:
            specs = [JobSpec.from_canonical(data) for data in job.specs]
            runner = Runner(
                jobs=job.jobs, cache=ResultCache(self.cache_dir)
            )
            payload = run_sweep(specs, runner)
        except Exception as error:
            with self._lock:
                job.status = "failed"
                job.detail = f"{type(error).__name__}: {error}"
            log.error("job_failed", job=job.id, error=str(error))
            self._persist()
            return
        with self._lock:
            job.status = "done"
            job.payload = payload
            job.payload_sha256 = _payload_sha256(payload)
        log.info(
            "job_finished", job=job.id, status=job.status,
            **payload["counts"],
        )
        self._persist()

    # -- lifecycle -------------------------------------------------------

    def serve_forever(self) -> None:
        log.info(
            "serving", host=self.host, port=self.port, state=self.state_dir
        )
        self._server.serve_forever(poll_interval=0.1)

    def request_shutdown(self) -> None:
        """Checkpoint running jobs, then stop the server.  Safe to call
        from a handler thread or a signal handler (the actual work runs
        on a fresh thread — ``server.shutdown`` deadlocks if called from
        the ``serve_forever`` thread)."""
        with self._lock:
            if self._shutdown_started:
                return
            self._shutdown_started = True
        threading.Thread(target=self._shutdown, daemon=True).start()

    def _shutdown(self) -> None:
        with self._lock:
            running = [
                (self._jobs[job_id], control)
                for job_id, control in self._controls.items()
                if self._jobs[job_id].status == "running"
            ]
        for job, control in running:
            if job.kind == "fabric":
                control.pause.set()
        for job, control in running:
            if control.thread is not None:
                control.thread.join(timeout=60.0)
        self._persist()
        self._server.shutdown()

    def close(self) -> None:
        self._server.server_close()
        try:
            os.unlink(self._path("daemon.json"))
        except OSError:
            pass


class _ApiServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, addr: Any, handler: Any, daemon: ServeDaemon) -> None:
        self.serve_daemon = daemon
        super().__init__(addr, handler)


class _ApiHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs+paths onto :class:`ServeDaemon` methods."""

    server: _ApiServer

    # -- plumbing --------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:
        log.debug("http", line=fmt % args)

    def _reply(self, code: int, body: Dict[str, Any]) -> None:
        blob = json.dumps(body).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if not length:
            return {}
        try:
            data = json.loads(self.rfile.read(length).decode("utf-8"))
        except ValueError as error:
            raise ApiError(400, f"request body is not JSON: {error}")
        if not isinstance(data, dict):
            raise ApiError(400, "request body must be a JSON object")
        return data

    def _route(self, method: str) -> None:
        daemon = self.server.serve_daemon
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            self._dispatch(daemon, method, parts, url.query)
        except ApiError as error:
            self._reply(error.code, {"error": str(error)})
        except Exception as error:
            log.error("api_error", path=self.path, error=str(error))
            self._reply(500, {"error": f"{type(error).__name__}: {error}"})

    def _dispatch(
        self, daemon: ServeDaemon, method: str, parts: List[str], query: str
    ) -> None:
        if method == "GET" and parts == ["health"]:
            with daemon._lock:
                jobs = len(daemon._jobs)
            self._reply(200, {"ok": True, "pid": os.getpid(), "jobs": jobs})
        elif method == "GET" and parts == ["jobs"]:
            self._reply(200, {"jobs": daemon.list_jobs()})
        elif method == "POST" and parts == ["jobs"]:
            job = daemon.submit(self._body())
            self._reply(200, {"job": job.to_dict(full=False)})
        elif method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            self._reply(200, {"job": daemon.get(parts[1]).to_dict()})
        elif method == "GET" and len(parts) == 3 and parts[:1] == ["jobs"] \
                and parts[2] == "journal":
            since = int(parse_qs(query).get("since", ["0"])[0])
            records, next_index = daemon.journal_records(parts[1], since)
            self._reply(200, {"records": records, "next": next_index})
        elif method == "POST" and len(parts) == 3 and parts[0] == "jobs":
            job_id, action = parts[1], parts[2]
            if action == "checkpoint":
                job = daemon.checkpoint(job_id)
            elif action == "cancel":
                job = daemon.checkpoint(job_id, cancel=True)
            elif action == "resume":
                job = daemon.resume(job_id)
            else:
                raise ApiError(404, f"unknown job action {action!r}")
            self._reply(200, {"job": job.to_dict(full=False)})
        elif method == "POST" and parts == ["shutdown"]:
            self._reply(200, {"ok": True})
            daemon.request_shutdown()
        else:
            raise ApiError(404, f"no route for {method} /{'/'.join(parts)}")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._route("POST")


def main(argv: Optional[List[str]] = None) -> int:
    """``repro serve`` entry point: run the daemon in the foreground.

    SIGINT/SIGTERM checkpoint running jobs at their next epoch barrier,
    persist everything, and exit 0 — the jobs come back as resumable
    when the daemon restarts on the same state dir.
    """
    parser = argparse.ArgumentParser(
        prog="hal-repro serve",
        description="local job service: submit/checkpoint/resume "
        "simulation jobs over a loopback HTTP API",
    )
    parser.add_argument(
        "--state-dir", default=DEFAULT_STATE_DIR,
        help=f"daemon state directory (default {DEFAULT_STATE_DIR}); "
        "holds daemon.json, jobs.json and per-job checkpoints/journals",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; the API is unauthenticated, "
        "keep it on loopback)",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = ephemeral; read the actual port from "
        "<state-dir>/daemon.json)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache for sweep jobs (default <state-dir>/cache; "
        f"point at {DEFAULT_CACHE_DIR} to share the batch CLI's cache)",
    )
    args = parser.parse_args(argv)
    daemon = ServeDaemon(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
    )

    def on_signal(signum: int, frame: Any) -> None:
        log.info("shutdown_requested", signal=signal.Signals(signum).name)
        daemon.request_shutdown()

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    print(
        f"serving on http://{daemon.host}:{daemon.port} "
        f"(state in {args.state_dir})",
        file=sys.stderr,
    )
    try:
        daemon.serve_forever()
    finally:
        daemon.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
