"""Sharded execution: shard blocks stepped by the parent and long-lived workers.

The :class:`~repro.runner.runner.Runner` fans out *independent* jobs —
each worker runs one job start-to-finish and the pool never talks back
mid-run.  A fabric simulation is the opposite shape: N racks advance in
lock-step, exchanging boundary state at every epoch barrier, so the
workers must stay alive across thousands of round trips.

:class:`ShardedRunner` implements that shape as a conservative
time-stepped protocol over ``multiprocessing.Pipe``:

* construction partitions the shard specs contiguously into K blocks
  (preserving shard order); the parent process drives block 0 itself
  and forks K-1 workers, one per remaining block, each building its
  shards from a module-level factory resolved by dotted path
  (picklable under both fork and spawn start methods);
* :meth:`step` scatters one input per shard to the workers, advances
  the parent's own block while they advance theirs, and gathers the
  per-shard summaries back in shard order;
* :meth:`finish` drains the shards and collects their final payloads.

``jobs=1`` is the same code with zero workers.  Because each shard's
evolution depends only on (its spec, the inputs pushed to it) and the
caller consumes outputs in shard order, results are byte-identical at
every worker count.

Wall-clock accounting (``step_wall_s``) lives here, in the runner layer,
so the simulation payloads themselves stay free of wall-clock reads.

Worker logging: a worker process must not write raw lines to the shared
stderr (K workers interleave mid-line, and under spawn the stream may not
even be inherited).  Each worker diverts its :mod:`repro.obs.log` records
into a buffer (:func:`repro.obs.log.set_capture`) and ships the drained
buffer with every protocol reply; the parent replays them through its own
logger, tagged ``worker=<block index> shards=<start>:<stop>``.  Block
0's records are emitted by the parent directly, untagged.  Requests are
``(op, inputs, func_path)`` and replies ``(status, payload, logs)``
triples.
"""

from __future__ import annotations

import importlib
import multiprocessing as mp
import signal
import traceback
from time import perf_counter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs import log as obs_log
from repro.obs.log import LogRecord, get_logger

log = get_logger("runner.sharded")


class ShardWorkerError(RuntimeError):
    """A shard worker process died or raised mid-protocol."""


def resolve_factory(path: str) -> Callable[[Any], Any]:
    """Resolve ``"package.module:attribute"`` to the factory callable."""
    module_name, sep, attr = path.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(
            f"factory path must look like 'package.module:attribute' (got {path!r})"
        )
    module = importlib.import_module(module_name)
    factory = getattr(module, attr)
    if not callable(factory):
        raise TypeError(f"{path} is not callable")
    return factory


def _run_op(
    shards: Sequence[Any],
    op: str,
    inputs: Optional[Sequence[Any]],
    func_path: Optional[str],
) -> List[Any]:
    """Run one protocol op over a block of shards, in shard order."""
    if op == "describe":
        return [shard.describe() for shard in shards]
    assert inputs is not None
    if op == "step":
        return [s.step(x) for s, x in zip(shards, inputs)]
    if op == "finish":
        return [s.finish(x) for s, x in zip(shards, inputs)]
    if op == "apply":
        assert func_path is not None
        func = resolve_factory(func_path)
        return [func(s, x) for s, x in zip(shards, inputs)]
    raise ValueError(f"unknown op {op!r}")


def _shard_worker(conn: Any, factory_path: str, specs: Sequence[Any]) -> None:
    """Worker loop: build this block's shards, answer barrier requests.

    Every reply ships the log records buffered since the previous reply
    so the parent can replay them on its own stream in order.
    """
    # a terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group; workers ignore it so in-flight epochs complete and the
    # *parent* decides how to drain (see DrainSignal)
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    records: List[LogRecord] = []
    obs_log.set_capture(records.append)

    def drain() -> List[LogRecord]:
        drained = list(records)
        records.clear()
        return drained

    try:
        factory = resolve_factory(factory_path)
        shards = [factory(spec) for spec in specs]
    except Exception:
        conn.send(("error", traceback.format_exc(), drain()))
        conn.close()
        return
    try:
        while True:
            op, inputs, func_path = conn.recv()
            if op == "close":
                break
            try:
                reply = _run_op(shards, op, inputs, func_path)
                conn.send(("ok", reply, drain()))
            except Exception:
                conn.send(("error", traceback.format_exc(), drain()))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


def _partition(count: int, blocks: int) -> List[Tuple[int, int]]:
    """Contiguous, order-preserving ``[start, stop)`` blocks."""
    size, extra = divmod(count, blocks)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for block in range(blocks):
        stop = start + size + (1 if block < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class ShardedRunner:
    """Drive N shard objects through barrier-synchronized epochs.

    ``jobs`` blocks (clamped to ``len(specs)``): the parent drives block
    0 and ``jobs - 1`` worker processes drive the rest, so ``jobs=1``
    builds and drives every shard in-process with no fork at all.
    """

    def __init__(
        self,
        specs: Sequence[Any],
        factory: str,
        jobs: int = 1,
    ) -> None:
        if not specs:
            raise ValueError("need at least one shard spec")
        self.specs = list(specs)
        self.factory = factory
        self.jobs = max(1, min(jobs if jobs > 0 else 1, len(self.specs)))
        self.steps = 0
        self.step_wall_s = 0.0
        self._closed = False
        self._shards: List[Any] = []
        self._workers: List[mp.process.BaseProcess] = []
        self._conns: List[Any] = []
        self._blocks = _partition(len(self.specs), self.jobs)
        if self.jobs > 1:
            methods = mp.get_all_start_methods()
            ctx = mp.get_context("fork" if "fork" in methods else "spawn")
            for start, stop in self._blocks[1:]:
                parent_conn, child_conn = ctx.Pipe()
                worker = ctx.Process(
                    target=_shard_worker,
                    args=(child_conn, factory, self.specs[start:stop]),
                    daemon=True,
                )
                worker.start()
                child_conn.close()
                self._workers.append(worker)
                self._conns.append(parent_conn)
            log.debug(
                "sharded_workers_started", jobs=self.jobs, shards=len(self.specs)
            )
        # built after the fork, so no worker inherits the parent's shards
        start, stop = self._blocks[0]
        try:
            build = resolve_factory(factory)
            self._shards = [build(spec) for spec in self.specs[start:stop]]
        except Exception as exc:
            if not self._workers:
                raise
            self.close()
            raise ShardWorkerError(
                f"shard block 0 failed to build:\n{traceback.format_exc()}"
            ) from exc

    # -- protocol ops ----------------------------------------------------

    def _scatter_gather(
        self,
        op: str,
        inputs: Optional[Sequence[Any]],
        func_path: Optional[str] = None,
    ) -> List[Any]:
        if self._closed:
            raise ShardWorkerError("runner already closed")
        # scatter to every worker first so all blocks advance concurrently
        for conn, (start, stop) in zip(self._conns, self._blocks[1:]):
            block = None if inputs is None else list(inputs[start:stop])
            try:
                conn.send((op, block, func_path))
            except (BrokenPipeError, OSError) as exc:
                raise self._worker_died(exc)
        start, stop = self._blocks[0]
        failure: Optional[str] = None
        try:
            results = _run_op(
                self._shards,
                op,
                None if inputs is None else inputs[start:stop],
                func_path,
            )
        except Exception:
            if not self._workers:
                raise
            # the workers are mid-op: collect their replies before closing
            failure = traceback.format_exc()
            results = []
        for block, conn in enumerate(self._conns, start=1):
            try:
                status, payload, logs = conn.recv()
            except (EOFError, OSError) as exc:
                raise self._worker_died(exc)
            self._replay_logs(block, logs)
            if status != "ok":
                failure = failure or payload
            else:
                results.extend(payload)
        if failure is not None:
            self.close()
            raise ShardWorkerError(f"shard worker failed:\n{failure}")
        return results

    def _replay_logs(self, block: int, records: Sequence[LogRecord]) -> None:
        """Re-emit a worker's captured records on the parent's stream,
        tagged with the worker's block index and shard range."""
        if not records:
            return
        start, stop = self._blocks[block]
        for name, level, event, fields in records:
            get_logger(name).emit_at(
                level,
                event,
                **fields,
                worker=block,
                shards=f"{start}:{stop}",
            )

    def _worker_died(self, exc: Exception) -> ShardWorkerError:
        codes = [worker.exitcode for worker in self._workers]
        self.close()
        return ShardWorkerError(
            f"shard worker process died (exit codes {codes}): {exc!r}"
        )

    def describe(self) -> List[Any]:
        """Static per-shard facts (capacity, shape) in shard order."""
        return self._scatter_gather("describe", None)

    def step(self, inputs: Sequence[Any]) -> List[Any]:
        """One barrier round: input *i* goes to shard *i*; returns the
        per-shard boundary summaries in shard order."""
        if len(inputs) != len(self.specs):
            raise ValueError(
                f"step needs one input per shard "
                f"({len(inputs)} != {len(self.specs)})"
            )
        started = perf_counter()
        results = self._scatter_gather("step", inputs)
        self.step_wall_s += perf_counter() - started
        self.steps += 1
        return results

    def finish(self, inputs: Optional[Sequence[Any]] = None) -> List[Any]:
        """Drain every shard and gather the final payloads."""
        if inputs is None:
            inputs = [None] * len(self.specs)
        if len(inputs) != len(self.specs):
            raise ValueError(
                f"finish needs one input per shard "
                f"({len(inputs)} != {len(self.specs)})"
            )
        return self._scatter_gather("finish", inputs)

    def apply(
        self, func_path: str, inputs: Optional[Sequence[Any]] = None
    ) -> List[Any]:
        """Apply ``"module:function"(shard, input)`` to every shard, in
        shard order — the extension point checkpointing uses to snapshot
        (``repro.serve.state:shard_state``) and restore shard state
        without teaching the barrier protocol about any one shard type.

        The function must be resolvable in the worker process (a
        module-level callable), and inputs/outputs must be picklable.
        """
        if inputs is None:
            inputs = [None] * len(self.specs)
        if len(inputs) != len(self.specs):
            raise ValueError(
                f"apply needs one input per shard "
                f"({len(inputs)} != {len(self.specs)})"
            )
        return self._scatter_gather("apply", inputs, func_path=func_path)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("close", None, None))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for worker in self._workers:
            worker.join(timeout=5.0)
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
        self._shards = []

    def __enter__(self) -> "ShardedRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class DrainSignal:
    """Flag-setting SIGINT/SIGTERM trap for barrier-drained shutdown.

    Shard workers ignore SIGINT (see :func:`_shard_worker`), so a Ctrl-C
    never kills a rack mid-epoch; the parent installs this trap and polls
    ``triggered`` at each epoch barrier to drain, checkpoint, and exit
    cleanly instead of dying with half a fleet in flight.  A second
    signal while draining raises :class:`KeyboardInterrupt` — the
    escape hatch when the drain itself hangs.

    Outside the main thread (where ``signal.signal`` is unavailable) the
    trap degrades to an inert flag, so service-mode job threads can share
    the same pause plumbing.
    """

    def __init__(self, signals: Sequence[int] = (signal.SIGINT, signal.SIGTERM)) -> None:
        self.signals = tuple(signals)
        self.triggered = False
        self.signame = ""
        self._previous: List[Tuple[int, Any]] = []

    def _handle(self, signum: int, frame: Any) -> None:
        if self.triggered:
            raise KeyboardInterrupt
        self.triggered = True
        self.signame = signal.Signals(signum).name
        log.info("drain_requested", signal=self.signame)

    def __enter__(self) -> "DrainSignal":
        for sig in self.signals:
            try:
                self._previous.append((sig, signal.signal(sig, self._handle)))
            except ValueError:  # pragma: no cover - not the main thread
                pass
        return self

    def __exit__(self, *exc: Any) -> None:
        for sig, handler in self._previous:
            signal.signal(sig, handler)
        self._previous = []
