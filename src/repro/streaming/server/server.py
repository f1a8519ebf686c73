"""The multi-tenant job server: many jobs, one fairly-shared driver loop.

A :class:`JobServer` runs any number of :class:`~repro.streaming.config.
JobConfig` jobs concurrently, each belonging to a tenant with admission
quotas (:class:`~repro.streaming.config.TenantConfig`):

* **registry + lifecycle** -- ``submit`` / ``status`` / ``results`` /
  ``cancel`` / ``list_jobs``, in process or over a local socket speaking
  newline-delimited JSON (one request object per line, one response
  object per line; see :mod:`repro.streaming.server.client`);
* **admission control** -- a token bucket throttles each tenant's event
  rate at the source driver, checkpoint-time state caps fail jobs whose
  aggregator state outgrows the tenant's byte budget, and a concurrent-
  jobs bound rejects over-quota submits with typed errors;
* **fair scheduling** -- one scheduler thread round-robins the running
  jobs, feeding each at most one source slice per turn.  Every job's
  source is read by its own feeder thread into a *bounded* prefetch
  queue, so a slow or wedged job backpressures only its own source; a
  sink that reports no capacity just skips that job's turn;
* **isolation** -- each job gets its own runtime, its own checkpoint
  directory (``<server dir>/checkpoints/<job_id>``), and its own
  metrics/trace namespace: the server's merged registry snapshot labels
  every family with ``job_id`` and ``tenant``, so one tenant's view is a
  :func:`~repro.streaming.observability.filter_snapshot` away.

A hosted job *is* a :class:`~repro.streaming.config.Job`: the server
builds nothing itself.  It hands ``Job`` what is the host's to decide (the
namespaced observability bundle, the per-job quota-capped checkpoint
store), ``start()`` opens the pipeline, the scheduler runs the same
``session.step`` / ``finish()`` / ``stop()`` that ``Job.records()`` loops
over, and every other job setting means what it means standalone -- all
but the two :data:`UNSUPPORTED_SETTINGS`.

The scheduler processes events strictly serially (one slice at a time),
so two jobs never contend for the GIL mid-aggregation and a well-behaved
tenant's results are identical to running its job alone.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time as _time
import uuid
from pathlib import Path
from queue import Empty, Full, Queue
from tempfile import mkdtemp
from typing import Dict, Iterator, List, Optional, Union

from repro.errors import (
    CograError,
    ConcurrencyQuotaError,
    ConfigError,
    QuotaError,
    RateQuotaError,
    StateQuotaError,
)
from repro.events.event import Event
from repro.streaming.checkpoint import CheckpointStore
from repro.streaming.config import Job, JobConfig, ServerConfig, TenantConfig
from repro.streaming.emission import EmissionRecord
from repro.streaming.observability import label_snapshot, merge_snapshots
from repro.streaming.server.quotas import TokenBucket

#: job lifecycle states, in the usual order
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: states in which a job still occupies its tenant's concurrency quota
LIVE_STATES = (PENDING, RUNNING)
#: states a job can never leave
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: wire-protocol error kinds, mapped from the exception hierarchy
_ERROR_KINDS = (
    (RateQuotaError, "rate-quota"),
    (StateQuotaError, "state-quota"),
    (ConcurrencyQuotaError, "concurrency-quota"),
    (QuotaError, "quota"),
    (ConfigError, "config"),
    (KeyError, "unknown-job"),
    (CograError, "job"),
)

#: job settings that are server policy -- it owns each job's checkpoint
#: directory (a fresh one per job id: nothing to recover from) and the
#: metrics endpoint -- so a config setting one is rejected, not ignored
UNSUPPORTED_SETTINGS = ("checkpoint.recover", "observability.prometheus_port")

#: events between forced quota checkpoints when a tenant caps state
#: bytes but the job config itself does not checkpoint
STATE_CHECK_INTERVAL = 256

#: source slices a job's feeder may read ahead of the scheduler
PREFETCH_SLICES = 4

#: the scheduler's sleep when no job had work, and ``wait``'s poll period
IDLE_SECONDS = 0.005


def error_kind(exc: BaseException) -> str:
    """The protocol ``kind`` string for an exception."""
    for klass, kind in _ERROR_KINDS:
        if isinstance(exc, klass):
            return kind
    return "internal"


class ServerJob:
    """One submitted job: its :class:`Job`, feeder, quota state and records."""

    def __init__(
        self,
        job_id: str,
        tenant: TenantConfig,
        pipeline: Job,
        bucket: Optional[TokenBucket] = None,
    ):
        self.job_id = job_id
        self.tenant = tenant
        #: the one pipeline lifecycle; the scheduler steps its session
        self.pipeline = pipeline
        self.state = PENDING
        self.error: Optional[str] = None
        self.error_kind: Optional[str] = None
        self.records: List[EmissionRecord] = []
        #: guards state/error/records against the protocol threads
        self.lock = threading.RLock()
        self.cancel_requested = threading.Event()
        #: source slices prefetched by the feeder thread; bounded, so a
        #: throttled or wedged job backpressures its own source only
        self.queue: Queue = Queue(maxsize=PREFETCH_SLICES)
        #: slice taken from the queue but not yet (fully) affordable
        self.pending_batch: Optional[List[Event]] = None
        self.feeder: Optional[threading.Thread] = None
        self.feeder_error: Optional[BaseException] = None
        self.feeder_done = threading.Event()
        #: the tenant's rate limiter, shared with every other job of the
        #: same tenant so N concurrent jobs split one quota, not get N
        self.bucket = bucket

    # -- feeder ----------------------------------------------------------------

    def start_feeder(self) -> None:
        self.feeder = threading.Thread(
            target=self._feed, name=f"cogra-feeder-{self.job_id}", daemon=True
        )
        self.feeder.start()

    def _feed(self) -> None:
        try:
            for batch in self.pipeline.session.batches():
                # a bounded put that a cancel can always unblock: never
                # wait on a stalled scheduler with a full queue forever
                while not self.cancel_requested.is_set():
                    try:
                        self.queue.put(batch, timeout=0.1)
                        break
                    except Full:
                        continue
                if self.cancel_requested.is_set():
                    return
        except Exception as exc:
            if not self.cancel_requested.is_set():
                self.feeder_error = exc
        finally:
            self.feeder_done.set()

    def take_batch(self) -> Optional[List[Event]]:
        """The next unprocessed slice, or ``None`` when nothing is ready."""
        if self.pending_batch is not None:
            batch = self.pending_batch
            self.pending_batch = None
            return batch
        try:
            return self.queue.get_nowait()
        except Empty:
            return None

    def exhausted(self) -> bool:
        """Whether every source slice has been taken and processed."""
        return (
            self.feeder_done.is_set()
            and self.pending_batch is None
            and self.queue.empty()
        )

    # -- bookkeeping -----------------------------------------------------------

    def snapshot_status(self) -> Dict[str, object]:
        """JSON-safe status row for the protocol and ``list_jobs``."""
        with self.lock:
            status = {
                "job_id": self.job_id,
                "tenant": self.tenant.name,
                "state": self.state,
                "records": len(self.records),
            }
            if self.error is not None:
                status["error"] = self.error
                status["kind"] = self.error_kind
            if self.pipeline.session is not None:  # it did start
                status["events_ingested"] = self.pipeline.metrics.events_ingested
        return status


class JobServer:
    """Runs many tenant jobs concurrently over one fair scheduler.

    Usable fully in process (``submit`` / ``wait`` / ``results``) or over
    the local socket protocol (``start`` binds it; see
    :class:`~repro.streaming.server.client.JobServerClient`).

    Parameters
    ----------
    config:
        The :class:`~repro.streaming.config.ServerConfig` -- endpoint,
        working directory, tenants and their quotas.
    """

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        directory = self.config.dir or mkdtemp(prefix="cogra-server-")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._jobs: Dict[str, ServerJob] = {}
        self._order: List[str] = []
        #: one shared TokenBucket per tenant name, so the rate quota is a
        #: tenant-level bound no matter how many jobs the tenant runs
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.RLock()
        self._counter = 0
        self._stop = threading.Event()
        self._scheduler: Optional[threading.Thread] = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: List[socket.socket] = []
        self.address: Optional[tuple] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "JobServer":
        """Bind the socket endpoint and start the scheduler; returns self."""
        if self._scheduler is not None:
            raise RuntimeError("this server was already started")
        self._scheduler = threading.Thread(
            target=self._schedule_loop, name="cogra-scheduler", daemon=True
        )
        self._scheduler.start()
        listener = socket.create_server((self.config.host, self.config.port))
        listener.settimeout(0.2)
        self._listener = listener
        self.address = listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cogra-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop the scheduler, close the endpoint, tear down every job."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for connection in list(self._connections):
            try:
                connection.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self._scheduler is not None:
            self._scheduler.join(timeout=5.0)
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            self._finalize(job, CANCELLED)  # a no-op on terminal jobs

    def wait_for_shutdown(self, timeout: Optional[float] = None) -> bool:
        """Block until the protocol receives ``shutdown``; whether it did.

        ``False`` after ``timeout`` seconds or on Ctrl-C -- the caller
        closes the server either way (``with JobServer(...) as server``).
        """
        try:
            return self._stop.wait(timeout)
        except KeyboardInterrupt:
            return False

    def __enter__(self) -> "JobServer":
        if self._scheduler is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the job API (in-process) ----------------------------------------------

    def submit(
        self,
        config: Union[JobConfig, Dict[str, object]],
        tenant: str = "default",
    ) -> str:
        """Admit one job for a tenant; returns its job id.

        Raises :class:`~repro.errors.ConcurrencyQuotaError` when the
        tenant is at its concurrent-jobs bound,
        :class:`~repro.errors.ConfigError` for unknown tenants, invalid
        job configs and configs that set one of the
        :data:`UNSUPPORTED_SETTINGS`, and
        :class:`~repro.errors.JobStartError` naming the setting whose
        endpoint could not be opened (the job is then listed ``failed``).
        """
        if isinstance(config, dict):
            config = JobConfig.from_dict(config)
        elif not isinstance(config, JobConfig):
            raise ConfigError(
                f"submit takes a JobConfig or a config dict, "
                f"got {type(config).__name__}"
            )
        config.validate()
        for path in UNSUPPORTED_SETTINGS:
            section, name = path.split(".")
            value = getattr(getattr(config, section), name)
            if value is not None and value is not False:  # port 0 is a setting
                raise ConfigError(
                    f"{path} is not supported by the job server (it keeps each "
                    f"job's checkpoint directory and the metrics endpoint "
                    f"itself); run the job with `cogra stream` instead"
                )
        quotas = self.config.tenant(tenant)
        with self._lock:
            if quotas.max_concurrent_jobs is not None:
                live = sum(
                    1
                    for job in self._jobs.values()
                    if job.tenant.name == tenant and job.state in LIVE_STATES
                )
                if live >= quotas.max_concurrent_jobs:
                    raise ConcurrencyQuotaError(
                        f"tenant {tenant!r} already runs {live} of its "
                        f"{quotas.max_concurrent_jobs} allowed concurrent "
                        f"job(s); wait for one to finish or cancel one",
                        tenant=tenant,
                    )
            self._counter += 1
            job_id = f"job-{self._counter:04d}"
            job = ServerJob(
                job_id,
                quotas,
                self._hosted_job(job_id, quotas, config),
                bucket=self._tenant_bucket(quotas),
            )
            self._jobs[job_id] = job
            self._order.append(job_id)
        try:
            job.pipeline.start()
        except Exception as exc:
            self._finalize(job, FAILED, exc)
            raise
        with job.lock:
            job.state = RUNNING
        job.start_feeder()
        return job_id

    def _tenant_bucket(self, tenant: TenantConfig) -> Optional[TokenBucket]:
        """The tenant's shared rate limiter (lazily created; call locked)."""
        if tenant.max_events_per_second is None:
            return None
        bucket = self._buckets.get(tenant.name)
        if bucket is None:
            bucket = TokenBucket(
                tenant.max_events_per_second, capacity=tenant.burst
            )
            self._buckets[tenant.name] = bucket
        return bucket

    def _hosted_job(self, job_id: str, tenant: TenantConfig, config: JobConfig) -> Job:
        """The unstarted :class:`Job`, given what is the server's to decide.

        Its tracer is namespaced to the job, and its checkpoint store is
        isolated under the server directory -- created when the job config
        checkpoints, or when the tenant caps state bytes (quotas are
        enforced at checkpoint time, so capping implies checkpointing,
        every :data:`STATE_CHECK_INTERVAL` events unless the job says).
        The job closes both at ``stop()``.
        """
        observability = config.observability.build_observability(
            namespace={"job_id": job_id, "tenant": tenant.name}
        )
        store = interval = None
        if config.checkpoint.dir or tenant.max_state_bytes is not None:
            try:
                store = CheckpointStore(
                    self.directory / "checkpoints" / job_id,
                    registry=observability.registry,
                    max_state_bytes=tenant.max_state_bytes,
                    tenant=tenant.name,
                )
            except Exception:
                observability.tracer.close()
                raise
            interval = config.checkpoint.interval or STATE_CHECK_INTERVAL
        return Job(
            config,
            observability=observability,
            store=store,
            checkpoint_interval=interval,
        )

    def _job(self, job_id: str) -> ServerJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return job

    def status(self, job_id: str) -> Dict[str, object]:
        """One job's JSON-safe status row."""
        return self._job(job_id).snapshot_status()

    def list_jobs(self, tenant: Optional[str] = None) -> List[Dict[str, object]]:
        """Status rows of every job, in submission order."""
        with self._lock:
            jobs = [self._jobs[job_id] for job_id in self._order]
        rows = [job.snapshot_status() for job in jobs]
        if tenant is not None:
            rows = [row for row in rows if row["tenant"] == tenant]
        return rows

    def results(self, job_id: str) -> List[EmissionRecord]:
        """The records a job emitted so far (complete once it is done)."""
        job = self._job(job_id)
        with job.lock:
            return list(job.records)

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Request cancellation; the scheduler finalizes on its next turn."""
        job = self._job(job_id)
        job.cancel_requested.set()
        with job.lock:
            already_terminal = job.state in TERMINAL_STATES
        session = job.pipeline.session
        if not already_terminal and session is not None:
            # unblock a feeder mid-read; the closed source ends its loop.
            # The teardown itself stays on the scheduler thread.
            session.close()
        return job.snapshot_status()

    def wait(self, job_id: str, timeout: float = 30.0) -> Dict[str, object]:
        """Block until the job reaches a terminal state; return its status."""
        deadline = _time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in TERMINAL_STATES:
                return status
            if _time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout:g}s"
                )
            _time.sleep(IDLE_SECONDS)

    def metrics_snapshot(
        self, job_id: Optional[str] = None, tenant: Optional[str] = None
    ) -> Dict[str, object]:
        """Merged registry snapshot, every family labelled per job.

        Each job's :meth:`registry_snapshot` is labelled with its
        ``job_id`` and ``tenant`` and merged, so one tenant's (or one
        job's) view is a filter over the label values -- pass ``job_id``
        or ``tenant`` to apply it here.
        """
        with self._lock:
            jobs = [self._jobs[jid] for jid in self._order]
        if job_id is not None:
            jobs = [job for job in jobs if job.job_id == job_id]
            if not jobs:
                raise KeyError(f"unknown job id {job_id!r}")
        if tenant is not None:
            jobs = [job for job in jobs if job.tenant.name == tenant]
        merged: Optional[Dict[str, object]] = None
        for job in jobs:
            if job.pipeline.session is None:  # never started
                continue
            labelled = label_snapshot(
                job.pipeline.runtime.registry_snapshot(),
                job_id=job.job_id,
                tenant=job.tenant.name,
            )
            merged = labelled if merged is None else merge_snapshots(merged, labelled)
        return merged if merged is not None else label_snapshot(None, job_id="none")

    # -- the scheduler ---------------------------------------------------------

    def _schedule_loop(self) -> None:
        while not self._stop.is_set():
            progressed = self._schedule_round()
            if not progressed:
                _time.sleep(IDLE_SECONDS)

    def _schedule_round(self) -> bool:
        """One round-robin pass: at most one slice per running job."""
        with self._lock:
            jobs = [self._jobs[job_id] for job_id in self._order]
        progressed = False
        for job in jobs:
            with job.lock:
                if job.state != RUNNING:
                    continue
            try:
                progressed |= self._advance(job)
            except Exception as exc:  # the job's failure, not the server's
                self._finalize(job, FAILED, exc)
                progressed = True
        return progressed

    def _advance(self, job: ServerJob) -> bool:
        """Give one job one turn; returns whether any work happened."""
        if job.cancel_requested.is_set():
            self._finalize(job, CANCELLED)
            return True
        if job.feeder_error is not None:
            self._finalize(job, FAILED, job.feeder_error)
            return True
        batch = job.take_batch()
        if batch is None:
            if job.exhausted():  # flush the pipeline; the job is done
                self._retain(job, job.pipeline.finish())
                self._finalize(job, DONE)
                return True
            return False
        if not job.pipeline.session.sink_ready():
            # per-job backpressure: this job waits, the others do not.
            # Checked before the token bucket so a deferred batch neither
            # pays for tokens it cannot use (double-charging on retry)
            # nor loses an ungranted suffix to the pending-batch slot.
            job.pending_batch = batch
            return False
        if job.bucket is not None:
            allowed = job.bucket.grant(len(batch))
            if allowed == 0:
                job.pending_batch = batch
                return False
            if allowed < len(batch):
                job.pending_batch = batch[allowed:]
                batch = batch[:allowed]
        self._retain(job, job.pipeline.session.step(batch))
        return True

    def _retain(self, job: ServerJob, records: Iterator[EmissionRecord]) -> None:
        """Keep what a step delivers for ``results``, record by record.

        So what a slice emitted before it raised (a late event under
        ``late.policy: raise``) is retained like its sink has it; the
        error itself fails the job in :meth:`_schedule_round`.
        """
        for record in records:
            with job.lock:
                job.records.append(record)

    def _finalize(
        self, job: ServerJob, state: str, error: Optional[BaseException] = None
    ) -> None:
        """Tear the job down, then publish its terminal state.

        In that order: ``done`` promises a flushed sink and a closed
        store, so a teardown that raises makes the job ``failed``.
        """
        with job.lock:
            if job.state in TERMINAL_STATES:
                return
        job.cancel_requested.set()
        try:
            job.pipeline.stop()
        except Exception as exc:
            if error is None:
                state, error = FAILED, exc
        with job.lock:
            job.state = state
            if error is not None:
                job.error = str(error)
                job.error_kind = error_kind(error)

    # -- the socket protocol ---------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self._connections.append(connection)
            threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name=f"cogra-server-conn-{uuid.uuid4().hex[:6]}",
                daemon=True,
            ).start()

    def _serve_connection(self, connection: socket.socket) -> None:
        try:
            reader = connection.makefile("r", encoding="utf-8")
            writer = connection.makefile("w", encoding="utf-8")
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                response = self._handle_line(line)
                writer.write(json.dumps(response) + "\n")
                writer.flush()
                if response.get("bye"):
                    break
        except (OSError, ValueError):
            pass
        finally:
            try:
                connection.close()
            except OSError:
                pass
            if connection in self._connections:
                self._connections.remove(connection)

    def _handle_line(self, line: str) -> Dict[str, object]:
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": f"invalid JSON: {exc}", "kind": "protocol"}
        if not isinstance(request, dict) or "cmd" not in request:
            return {
                "ok": False,
                "error": "a request is an object with a 'cmd' key",
                "kind": "protocol",
            }
        try:
            return self._dispatch(request)
        except Exception as exc:
            return {"ok": False, "error": str(exc), "kind": error_kind(exc)}

    def _dispatch(self, request: Dict[str, object]) -> Dict[str, object]:
        command = request["cmd"]
        if command == "submit":
            job_id = self.submit(
                request.get("job", {}), tenant=str(request.get("tenant", "default"))
            )
            return {"ok": True, "job_id": job_id}
        if command == "status":
            return {"ok": True, **self.status(str(request["job_id"]))}
        if command == "results":
            job_id = str(request["job_id"])
            status = self.status(job_id)
            records = [record.as_dict() for record in self.results(job_id)]
            return {"ok": True, "state": status["state"], "records": records}
        if command == "cancel":
            return {"ok": True, **self.cancel(str(request["job_id"]))}
        if command == "list":
            tenant = request.get("tenant")
            rows = self.list_jobs(None if tenant is None else str(tenant))
            return {"ok": True, "jobs": rows}
        if command == "metrics":
            job_id = request.get("job_id")
            tenant = request.get("tenant")
            snapshot = self.metrics_snapshot(
                None if job_id is None else str(job_id),
                None if tenant is None else str(tenant),
            )
            return {"ok": True, "snapshot": snapshot}
        if command == "shutdown":
            self._stop.set()
            return {"ok": True, "bye": True}
        return {
            "ok": False,
            "error": f"unknown command {command!r}",
            "kind": "protocol",
        }


def serve_forever(config: ServerConfig) -> None:
    """Run a server until its socket protocol receives ``shutdown``."""
    with JobServer(config) as server:
        server.wait_for_shutdown()


def job_config_replacing_source(
    config: JobConfig, events_path: Union[str, Path]
) -> JobConfig:
    """A copy of ``config`` whose source reads the given JSONL file.

    Submitting over the wire ships the job *description*; the events
    must be reachable by the server.  This helper points a config at a
    file path the caller just wrote (``cogra submit --events`` uses it).
    """
    from repro.streaming.config import SourceConfig

    return dataclasses.replace(config, source=SourceConfig(spec=str(events_path)))
