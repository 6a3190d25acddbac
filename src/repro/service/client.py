"""HTTP client for the experiment service (stdlib ``urllib`` only).

:class:`ServiceClient` wraps the daemon's JSON API for the ``repro
jobs`` CLI, the smoke script, and tests.  Every method raises
:class:`ServiceError` on a non-2xx answer; a ``429`` rejection raises
the :class:`BackpressureError` subclass carrying the server's
``retry_after_s`` hint so callers can implement polite retry.

Resilience: with ``retries > 0`` the client absorbs transient faults
instead of surfacing the first one -- connection errors (refused,
reset, DNS) raise :class:`ServiceUnavailableError` only after the
retry budget is spent, and retryable 5xx answers (500/502/503/504) are
retried with capped-jitter exponential backoff honouring any
``Retry-After`` the server sent.  :meth:`wait` and
:meth:`events(follow=True) <events>` additionally survive a daemon
restart mid-stream: both follow the job's event stream, which the
daemon pushes as events happen and keeps alive with blank lines while
the job is silent.  ``wait`` re-follows through connection drops until
its own deadline, and a following event stream reconnects with
``?since=<next seq>`` so no event is lost or duplicated across the
drop.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from typing import Any, Iterator

from repro.errors import ReproError
from repro.obs import new_trace_id
from repro.reliability.backoff import BackoffPolicy

DEFAULT_TIMEOUT_S = 30.0

#: Header carrying the client-minted correlation id to the daemon.
TRACE_HEADER = "X-Repro-Trace-Id"

#: 5xx statuses worth retrying: transient server trouble, not a bug in
#: the request.  503 is also what the daemon answers while draining.
RETRYABLE_STATUSES = frozenset((500, 502, 503, 504))

#: Capped-jitter exponential backoff between retries and reconnects.
RETRY_BACKOFF = BackoffPolicy(base_s=0.2, max_s=5.0)


class ServiceError(ReproError):
    """A request the service answered with an error status."""

    def __init__(self, message: str, *, status: int = 0,
                 payload: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class BackpressureError(ServiceError):
    """Admission rejected (HTTP 429); retry after ``retry_after_s``."""

    def __init__(self, message: str, *, payload: dict | None = None,
                 retry_after_s: float = 2.0) -> None:
        super().__init__(message, status=429, payload=payload)
        self.retry_after_s = retry_after_s


class ServiceUnavailableError(ServiceError):
    """The service could not be reached at all (connection-level)."""


def _status_error(exc: urllib.error.HTTPError) -> ServiceError:
    """The :class:`ServiceError` an error status maps to.

    The error carries the open response; ``with`` closes it however
    the body read ends.
    """
    with exc:
        raw = exc.read().decode("utf-8", errors="replace")
    try:
        detail = json.loads(raw)
    except json.JSONDecodeError:
        detail = {"error": raw.strip()}
    message = detail.get("error", f"HTTP {exc.code}")
    if exc.code == 429:
        return BackpressureError(
            message, payload=detail,
            retry_after_s=float(detail.get("retry_after_s", 2.0)))
    error = ServiceError(message, status=exc.code, payload=detail)
    retry_after = exc.headers.get("Retry-After")
    if retry_after is not None:
        try:
            error.payload.setdefault("retry_after_s", float(retry_after))
        except ValueError:
            pass
    return error


class ServiceClient:
    """Thin JSON-over-HTTP client bound to one daemon base URL."""

    def __init__(self, base_url: str,
                 timeout_s: float = DEFAULT_TIMEOUT_S,
                 retries: int = 0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retries = retries

    # -- transport ----------------------------------------------------

    def _send_once(self, method: str, path: str,
                   payload: dict | None, headers: dict[str, str] | None,
                   stream: bool, timeout_s: float) -> Any:
        """One HTTP exchange: the body, or with ``stream`` the open
        response (the caller iterates and closes it).  Each socket
        operation times out after ``timeout_s``.

        An error status raises :class:`ServiceError`
        (:class:`BackpressureError` for 429); a connection that fails
        or drops before the body is read -- an error answer's body
        included -- raises :class:`ServiceUnavailableError`.
        """
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        request_headers = dict(headers or {})
        if body:
            request_headers.setdefault("Content-Type",
                                       "application/json")
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method,
            headers=request_headers)
        try:
            try:
                response = urllib.request.urlopen(request,
                                                  timeout=timeout_s)
            except urllib.error.HTTPError as exc:
                raise _status_error(exc) from None
            if stream:
                return response
            with response:
                return response.read()
        except (http.client.HTTPException, OSError) as exc:
            raise ServiceUnavailableError(
                f"cannot reach service at {self.base_url}: "
                f"{getattr(exc, 'reason', exc)}") from None

    def _send(self, method: str, path: str,
              payload: dict | None = None,
              headers: dict[str, str] | None = None, *,
              stream: bool = False, timeout_s: float | None = None) -> Any:
        """:meth:`_send_once` with up to ``self.retries`` retries.

        Every call goes through here: JSON, text and event streams.
        Socket operations time out after ``timeout_s`` (default
        ``self.timeout_s``).
        Retries cover connection-level failures and retryable 5xx
        answers only -- 4xx (including 429 backpressure) and success
        always surface immediately.  The wait between attempts is the
        capped-jitter backoff schedule, stretched to honour any
        ``Retry-After`` hint the server sent.
        """
        if timeout_s is None:
            timeout_s = self.timeout_s
        attempt = 0
        while True:
            try:
                return self._send_once(method, path, payload, headers,
                                       stream, timeout_s)
            except ServiceUnavailableError:
                if attempt >= self.retries:
                    raise
                delay = RETRY_BACKOFF.delay_s(path, attempt + 1)
            except ServiceError as exc:
                if (exc.status not in RETRYABLE_STATUSES
                        or attempt >= self.retries):
                    raise
                delay = max(
                    RETRY_BACKOFF.delay_s(path, attempt + 1),
                    float(exc.payload.get("retry_after_s", 0.0)))
            attempt += 1
            time.sleep(delay)

    def _request(self, method: str, path: str,
                 payload: dict | None = None,
                 headers: dict[str, str] | None = None) -> Any:
        """One JSON API call."""
        return json.loads(
            self._send(method, path, payload, headers).decode("utf-8"))

    # -- API ----------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def submit(self, experiments: list[str] | None = None, *,
               tenant: str = "default", priority: str = "normal",
               timeout_s: float = 120.0, retries: int = 0,
               workers: int = 1, use_cache: bool = True,
               deadline_s: float | None = None,
               idempotency_key: str | None = None,
               trace_id: str | None = None,
               profile: bool = False) -> dict:
        # Mint the correlation id client-side so spans/logs around the
        # submit call can already carry the id the daemon will use.
        if trace_id is None:
            trace_id = new_trace_id()
        spec: dict[str, Any] = {
            "experiments": experiments or [],
            "tenant": tenant, "priority": priority,
            "timeout_s": timeout_s, "retries": retries,
            "workers": workers, "use_cache": use_cache,
            "trace_id": trace_id,
        }
        if deadline_s is not None:
            spec["deadline_s"] = deadline_s
        if idempotency_key is not None:
            spec["idempotency_key"] = idempotency_key
        if profile:
            spec["profile"] = True
        return self._request("POST", "/v1/jobs", spec,
                             headers={TRACE_HEADER: trace_id})

    def jobs(self, tenant: str | None = None) -> list[dict]:
        path = "/v1/jobs" + (f"?tenant={tenant}" if tenant else "")
        return self._request("GET", path)["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def stats_prometheus(self) -> str:
        return self._send("GET", "/v1/stats?format=prom").decode("utf-8")

    def history(self, since: int = 0,
                limit: int | None = None) -> dict:
        """Metrics-history samples with ``seq >= since`` (newest last)."""
        query = []
        if since:
            query.append(f"since={since}")
        if limit is not None:
            query.append(f"limit={limit}")
        path = ("/metrics/history"
                + ("?" + "&".join(query) if query else ""))
        return self._request("GET", path)

    def profile(self, job_id: str) -> str:
        """The job's collapsed-stack profile (text; 404 when absent)."""
        return self._send(
            "GET", f"/v1/jobs/{job_id}/profile").decode("utf-8")

    def store(self) -> dict:
        return self._request("GET", "/v1/store")

    def prune_store(self) -> dict:
        return self._request("POST", "/v1/store/prune")

    def shutdown(self) -> dict:
        return self._request("POST", "/v1/shutdown")

    def _events_once(self, job_id: str, follow: bool, since: int,
                     deadline: float | None = None) -> Iterator[dict]:
        """One events request.  With a ``deadline`` (monotonic) its
        reads time out there, and it stops reading once past it."""
        query = [f"since={since}"] if since else []
        if follow:
            query.append("follow=1")
        path = (f"/v1/jobs/{job_id}/events"
                + ("?" + "&".join(query) if query else ""))
        timeout_s = (None if deadline is None else max(
            0.01, min(self.timeout_s, deadline - time.monotonic())))
        with self._send("GET", path, stream=True,
                        timeout_s=timeout_s) as response:
            for line in response:
                text = line.decode("utf-8").strip()
                if text:
                    yield json.loads(text)
                if deadline is not None and time.monotonic() >= deadline:
                    return

    def events(self, job_id: str, follow: bool = False,
               since: int = 0) -> Iterator[dict]:
        """Yield the job's JSONL events from seq ``since`` onwards.

        With ``follow`` the stream runs until the job reaches a
        terminal state -- surviving connection drops: a dropped stream
        is reconnected (up to ``self.retries`` extra times, backoff
        between attempts, each reconnect itself retried as any call
        is) with ``since`` advanced past the last delivered event, so
        a daemon restart mid-follow neither loses nor duplicates
        events.
        """
        next_seq = since
        attempt = 0
        while True:
            try:
                for event in self._events_once(job_id, follow,
                                               next_seq):
                    seq = event.get("seq")
                    if isinstance(seq, int):
                        if seq < next_seq:
                            continue  # duplicate across a reconnect
                        next_seq = seq + 1
                    attempt = 0  # progress resets the retry budget
                    yield event
                return
            except (http.client.HTTPException, OSError) as exc:
                if not follow or attempt >= self.retries:
                    raise ServiceUnavailableError(
                        f"event stream for {job_id} dropped: "
                        f"{exc}") from None
                attempt += 1
                time.sleep(RETRY_BACKOFF.delay_s(
                    f"events:{job_id}", attempt))

    def wait(self, job_id: str, *, timeout_s: float = 300.0) -> dict:
        """Follow the job's events to the terminal one, then return the
        final job dict.

        Stream reads time out at the deadline, so a job still live
        then raises :class:`ServiceError`.  A dropped stream or an
        unreachable daemon (one restarting under the job) is absorbed
        with capped backoff until ``timeout_s`` runs out -- the
        recovered daemon still knows the job -- and the stream resumes
        after the last event read.
        """
        deadline = time.monotonic() + timeout_s
        since = failures = 0
        while True:
            try:
                try:
                    for event in self._events_once(job_id, True, since,
                                                   deadline):
                        since = event["seq"] + 1
                except (http.client.HTTPException, OSError) as exc:
                    # a read that timed out at the deadline is no drop:
                    # the job fetch below reports the state it left
                    if time.monotonic() < deadline:
                        raise ServiceUnavailableError(
                            f"event stream for {job_id} dropped: "
                            f"{exc}") from None
                job = self.job(job_id)
            except ServiceUnavailableError:
                if time.monotonic() >= deadline:
                    raise
            else:
                if job["state"] in ("done", "failed", "cancelled"):
                    return job
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        f"job {job_id} still {job['state']} after "
                        f"{timeout_s:.0f}s")
            # the stream dropped or ended early: follow again
            failures += 1
            time.sleep(min(
                RETRY_BACKOFF.delay_s(f"wait:{job_id}", failures),
                max(0.0, deadline - time.monotonic())))
