"""The benchmark's four workloads and the inputs each derives from a seed.

Sweep workloads (``paper-cold``, ``solver-scale``, ``warm-rerun``) are a
closed loop of one caller: the next ``repro.engine.run_experiments``
call starts when the previous one returns.  ``service-jobs`` is a closed
loop of two client threads driving an in-process daemon over HTTP.
Every cache and state directory lives in a fresh work directory the
caller owns and removes.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import resource
import shutil
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import repro.engine
from repro.analysis.experiments import EXPERIMENTS
from repro.obs import (
    Trace,
    new_trace_id,
    trace_context,
    tracing,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import (
    ExperimentService,
    ServiceConfig,
    ServiceServer,
)
from repro.service.jobs import json_safe

import reference

PAPER_IDS = tuple(eid for eid in EXPERIMENTS if not eid.startswith("E-S"))
SOLVER_IDS = tuple(eid for eid in EXPERIMENTS if eid.startswith("E-S"))

#: Experiments whose runner takes under 10 ms: the uncached service
#: jobs fork a worker for one of these.
FAST_IDS = ("E-T1", "E-F1", "E-F2", "E-F3", "E-F5", "E-C2")
#: Share of service jobs submitted with ``use_cache=false``.
UNCACHED_SHARE = 0.2
SERVICE_CLIENTS = 2
#: The daemon's follow stream looks for new events every 50 ms, from the
#: moment a client starts following.  A client that follows as soon as
#: its submit returns locks that poll grid to the job's start, and the
#: daemon's work per job sits just under one period, so a host 35 %
#: slower in CPU time per job pushed nearly every job to the second poll
#: and raised latency by 60 %.  Each job therefore waits a seeded delay, uniform over one
#: period, before following: the grid's phase is then uniform, and the
#: mean latency is the daemon's time plus half a period at any speed.
EVENT_POLL_S = 0.05
#: Planned inputs folded into the printed digest.
DIGEST_OPS = 64


# -- seeded inputs ----------------------------------------------------


def sweep_orders(seed: int, ids: tuple[str, ...],
                 stream: str = "sweeps") -> Iterator[list[str]]:
    """An endless stream of seeded experiment orders."""
    rng = random.Random(f"perfbench:{seed}:{stream}")
    while True:
        yield rng.sample(ids, len(ids))


@dataclass(frozen=True)
class JobInput:
    experiments: tuple[str, ...]
    use_cache: bool
    follow_delay_s: float


def job_stream(seed: int, client: int) -> Iterator[JobInput]:
    """One client's endless stream of seeded service jobs."""
    rng = random.Random(f"perfbench:{seed}:client{client}")
    while True:
        if rng.random() < UNCACHED_SHARE:
            experiments, use_cache = (rng.choice(FAST_IDS),), False
        else:
            count = rng.randint(1, 4)
            experiments, use_cache = tuple(rng.sample(PAPER_IDS, count)), True
        yield JobInput(experiments, use_cache,
                       rng.uniform(0.0, EVENT_POLL_S))


def _digest(items) -> str:
    text = json.dumps(list(items), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- measurement helpers ----------------------------------------------


def cpu_now() -> float:
    """CPU seconds of this process plus every reaped child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.process_time() + children.ru_utime
            + children.ru_stime)


def _own_peak_mb() -> float:
    """This process's peak RSS since the last reset [MB]."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM")


def _children_peak_mb() -> float:
    """The largest peak RSS of any reaped child, over the process life."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class PeakRss:
    """Peak RSS over one timed phase, of this process and its workers.

    The process's own peak is reset when the phase starts (``5`` to
    ``clear_refs``) and read from ``VmHWM`` when it ends, so set-up does
    not count.  The kernel keeps only a lifetime maximum for reaped
    children, so a worker forked in the phase is seen when it raises
    that maximum.  A phase worker that peaks below an earlier child (a
    set-up pre-fill worker) stays hidden; the note says when that can
    hide more than this process's own peak.
    """

    def __init__(self) -> None:
        Path("/proc/self/clear_refs").write_text("5", encoding="ascii")
        self.children_before = _children_peak_mb()

    def stop(self) -> tuple[float, str]:
        """(peak MB, how it was made up)."""
        own = _own_peak_mb()
        children = _children_peak_mb()
        if children > self.children_before:
            note = (f"process {own:.1f} MB, workers forked in the phase "
                    f"{children:.1f} MB")
            return max(own, children), note
        note = f"process {own:.1f} MB, no worker above earlier children"
        if self.children_before > own:
            note += (f"; a lower bound, earlier children peaked at "
                     f"{self.children_before:.1f} MB")
        return own, note


@dataclass
class Op:
    """One timed operation: a sweep, or a service job."""

    start: float
    end: float
    attempted: int
    failed: int
    cpu_s: float | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Phase:
    """Everything one timed phase produced."""

    ops: list[Op]
    start: float
    end: float
    cpu_s: float
    #: ``RunRecord``-shaped dicts of every experiment run in the phase.
    records: list[dict]
    peak_rss_mb: float
    peak_note: str
    queue_waits: list[float] = field(default_factory=list)
    span_records: tuple = ()
    counters: dict[str, float] = field(default_factory=dict)
    root_tids: set[int] = field(default_factory=set)

    @property
    def duration_s(self) -> float:
        return self.end - self.start


def _check(experiment_id: str, result: Any, ref: dict) -> list[str]:
    return reference.mismatches(experiment_id, json_safe(result), ref)


# -- sweep workloads --------------------------------------------------


class SweepWorkload:
    """Batch sweeps through ``repro.engine.run_experiments``."""

    def __init__(self, name: str, ids: tuple[str, ...], seed: int,
                 work_dir: Path, ref: dict, *, fresh_cache: bool,
                 prefill: bool) -> None:
        self.name = name
        self.ids = ids
        self.seed = seed
        self.work_dir = work_dir
        self.reference = ref
        self.fresh_cache = fresh_cache
        self.prefill = prefill
        self.jobs = repro.engine.default_jobs()
        self.cache_dir: Path | None = None
        self._orders = sweep_orders(seed, ids)
        self._setup_orders = sweep_orders(seed, ids, "setup")

    def inputs_digest(self) -> str:
        orders = sweep_orders(self.seed, self.ids)
        return _digest(next(orders) for _ in range(DIGEST_OPS))

    def _new_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.work_dir))

    def setup(self) -> float:
        """One set-up; returns its seconds.

        warm-rerun fills a fresh cache with a cold sweep (the previous
        set-up's cache is removed first, untimed).
        """
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        start = time.monotonic()
        if self.prefill:
            self.cache_dir = self._new_dir()
            sweep = repro.engine.run_experiments(
                next(self._setup_orders), jobs=self.jobs,
                cache_dir=self.cache_dir)
            if not sweep.all_ok:
                raise RuntimeError(f"{self.name}: cache pre-fill failed")
        return time.monotonic() - start

    def run_phase(self, seconds: float, traced: bool) -> Phase:
        ops: list[Op] = []
        records: list[dict] = []
        trace = Trace("perfbench", span_histograms=False) if traced \
            else None
        peak = PeakRss()
        phase_cpu = cpu_now()
        start = time.monotonic()
        with tracing(trace) if traced else nullcontext():
            while True:
                ids = next(self._orders)
                cache_dir = (self._new_dir() if self.fresh_cache
                             else self.cache_dir)
                context = (trace_context(trace_id=new_trace_id())
                           if traced else nullcontext())
                cpu0 = cpu_now()
                t0 = time.monotonic()
                with context:
                    sweep = repro.engine.run_experiments(
                        ids, jobs=self.jobs, cache_dir=cache_dir)
                t1 = time.monotonic()
                cpu1 = cpu_now()
                errors = []
                failed = 0
                for record in sweep.records:
                    eid = record.experiment_id
                    problems = ([f"{eid}: {record.status} "
                                 f"{record.error}"] if not record.ok
                                else _check(eid, sweep.results[eid],
                                            self.reference))
                    if problems:
                        failed += 1
                        errors.extend(problems)
                    records.append(record.to_json_dict())
                ops.append(Op(t0, t1, len(ids), failed, cpu1 - cpu0,
                              errors))
                if self.fresh_cache:
                    shutil.rmtree(cache_dir, ignore_errors=True)
                if time.monotonic() - start >= seconds:
                    break
        end = time.monotonic()
        peak_mb, peak_note = peak.stop()
        phase = Phase(ops=ops, start=start, end=end,
                      cpu_s=cpu_now() - phase_cpu, records=records,
                      peak_rss_mb=peak_mb, peak_note=peak_note,
                      root_tids={threading.get_ident()})
        if trace is not None:
            phase.span_records = trace.spans
            phase.counters = trace.counters.as_dict()
        return phase

    def close(self) -> None:
        pass


# -- service workload -------------------------------------------------


class Daemon:
    """``ExperimentService`` + ``ServiceServer`` on a private loop thread."""

    def __init__(self, store_dir: Path) -> None:
        self.service = ExperimentService(ServiceConfig(
            host="127.0.0.1", port=0, cache_dir=store_dir))
        self.server = ServiceServer(self.service)
        self._ready = threading.Event()
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._main,
                                        name="perfbench-daemon",
                                        daemon=True)
        self.url = ""

    def _main(self) -> None:
        async def serve() -> None:
            await self.server.start()
            self._ready.set()
            await self.server.serve_forever()

        try:
            asyncio.run(serve())
        except Exception as exc:  # surfaced by start()
            self._error = exc
            self._ready.set()

    def start(self, timeout_s: float = 60.0) -> None:
        self._thread.start()
        if not self._ready.wait(timeout_s) or self._error is not None:
            raise RuntimeError(f"daemon did not start: {self._error!r}")
        self.url = f"http://127.0.0.1:{self.server.port}"
        ServiceClient(self.url).health()

    def stop(self, timeout_s: float = 60.0) -> None:
        if not self._thread.is_alive():
            return
        ServiceClient(self.url).shutdown()
        self._thread.join(timeout_s)
        if self._thread.is_alive():
            raise RuntimeError("daemon did not stop")


class ServiceWorkload:
    """Two closed-loop clients against an in-process daemon."""

    name = "service-jobs"

    def __init__(self, seed: int, work_dir: Path, ref: dict) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.reference = ref
        self.daemon: Daemon | None = None
        self._streams = [job_stream(seed, client)
                         for client in range(SERVICE_CLIENTS)]
        self._setup_orders = sweep_orders(seed, PAPER_IDS, "setup")

    def inputs_digest(self) -> str:
        streams = [job_stream(self.seed, client)
                   for client in range(SERVICE_CLIENTS)]
        return _digest((client, next(stream))
                       for _ in range(DIGEST_OPS)
                       for client, stream in enumerate(streams))

    def setup(self) -> float:
        """Fill a fresh store and start a daemon on it; returns seconds.

        The previous set-up's daemon is stopped and its store removed
        first, untimed (one daemon at a time owns the process trace).
        """
        self.close()
        start = time.monotonic()
        store = Path(tempfile.mkdtemp(prefix="store-", dir=self.work_dir))
        sweep = repro.engine.run_experiments(
            next(self._setup_orders), jobs=repro.engine.default_jobs(),
            cache_dir=store)
        if not sweep.all_ok:
            raise RuntimeError("service store pre-fill failed")
        self.daemon = Daemon(store)
        self.daemon.start()
        return time.monotonic() - start

    def _client(self, index: int, stop_at: float, traced: bool,
                ops: list[Op], records: list[dict],
                queue_waits: list[float], tids: set[int]) -> None:
        tids.add(threading.get_ident())
        try:
            self._client_loop(index, stop_at, traced, ops, records,
                              queue_waits)
        except Exception:  # a dead client must still count as a failure
            now = time.monotonic()
            ops.append(Op(now, now, 1, 1, None,
                          [traceback.format_exc()]))

    def _client_loop(self, index: int, stop_at: float, traced: bool,
                     ops: list[Op], records: list[dict],
                     queue_waits: list[float]) -> None:
        client = ServiceClient(self.daemon.url)
        service = self.daemon.service
        tenant = f"tenant-{index}"
        for job_input in self._streams[index]:
            if time.monotonic() >= stop_at:
                return
            trace_id = new_trace_id()
            context = (trace_context(trace_id=trace_id, tenant=tenant)
                       if traced else nullcontext())
            errors: list[str] = []
            job_id = None
            t0 = time.monotonic()
            with context:
                try:
                    job_id = client.submit(
                        list(job_input.experiments), tenant=tenant,
                        use_cache=job_input.use_cache,
                        trace_id=trace_id)["id"]
                    time.sleep(job_input.follow_delay_s)
                    for _ in client.events(job_id, follow=True):
                        pass
                    payload = client.result(job_id)
                    errors = self._verify(job_input, payload)
                except (ServiceError, ValueError) as exc:
                    errors = [f"{type(exc).__name__}: {exc}"]
            t1 = time.monotonic()
            ops.append(Op(t0, t1, 1, 1 if errors else 0, None, errors))
            job = service.job(job_id) if job_id is not None else None
            if job is not None:
                records.extend(job.records)
                wait = job.queue_wait_s()
                if wait is not None:
                    queue_waits.append(wait)

    def _verify(self, job_input: JobInput, payload: dict) -> list[str]:
        if payload.get("state") != "done":
            return [f"job {payload.get('id')} ended {payload.get('state')}"
                    f": {payload.get('error')}"]
        results = payload.get("results") or {}
        errors = []
        for eid in job_input.experiments:
            if eid not in results:
                errors.append(f"{eid}: missing from the job result")
                continue
            errors.extend(reference.mismatches(eid, results[eid],
                                               self.reference))
        return errors

    def run_phase(self, seconds: float, traced: bool) -> Phase:
        ops: list[Op] = []
        records: list[dict] = []
        queue_waits: list[float] = []
        tids: set[int] = set()
        trace = self.daemon.service.trace
        before = trace.counters.as_dict()
        peak = PeakRss()
        phase_cpu = cpu_now()
        start = time.monotonic()
        stop_at = start + seconds
        threads = [threading.Thread(
            target=self._client, name=f"perfbench-client-{index}",
            args=(index, stop_at, traced, ops, records, queue_waits, tids))
            for index in range(SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.monotonic()
        peak_mb, peak_note = peak.stop()
        phase = Phase(ops=sorted(ops, key=lambda op: op.start),
                      start=start, end=end, cpu_s=cpu_now() - phase_cpu,
                      records=records, peak_rss_mb=peak_mb,
                      peak_note=peak_note, queue_waits=queue_waits,
                      root_tids=tids)
        if traced:
            phase.span_records = tuple(
                record for record in trace.spans
                if record.start_s >= start)
            after = trace.counters.as_dict()
            phase.counters = {name: value - before.get(name, 0.0)
                              for name, value in after.items()}
        return phase

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            shutil.rmtree(self.daemon.service.config.cache_dir,
                          ignore_errors=True)
            self.daemon = None


def build(name: str, seed: int, work_dir: Path, ref: dict):
    """The named workload, ready for :meth:`setup`."""
    if name == "paper-cold":
        return SweepWorkload(name, PAPER_IDS, seed, work_dir, ref,
                             fresh_cache=True, prefill=False)
    if name == "solver-scale":
        return SweepWorkload(name, SOLVER_IDS, seed, work_dir, ref,
                             fresh_cache=True, prefill=False)
    if name == "warm-rerun":
        return SweepWorkload(name, PAPER_IDS, seed, work_dir, ref,
                             fresh_cache=False, prefill=True)
    if name == "service-jobs":
        return ServiceWorkload(seed, work_dir, ref)
    raise ValueError(f"unknown workload {name!r}")
