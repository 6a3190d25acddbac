"""The service client's error path: answers map to errors and release
their responses."""

import email.message
import gc
import http.client
import io
import json
import socket
import threading
import urllib.error
import warnings
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import repro.service.client as client_module
from repro.reliability import NO_BACKOFF
from repro.service import BackpressureError, ServiceClient, ServiceError
from repro.service.client import ServiceUnavailableError, _status_error

_ANSWERS = {
    404: {"error": "unknown job 'job-missing'"},
    429: {"error": "queue full", "retry_after_s": 0.5},
}


class _ErrorHandler(BaseHTTPRequestHandler):
    """Answers ``GET /<status>`` with that status and a JSON body."""

    def do_GET(self):  # noqa: N802 - http.server's hook name
        status = int(self.path.strip("/"))
        body = json.dumps(_ANSWERS[status]).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def error_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ErrorHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10.0)


@pytest.fixture()
def client_sockets(monkeypatch):
    """Weak references to every socket an HTTP connection opens."""
    opened = []
    connect = http.client.HTTPConnection.connect

    def recording_connect(self):
        connect(self)
        opened.append(weakref.ref(self.sock))

    monkeypatch.setattr(http.client.HTTPConnection, "connect",
                        recording_connect)
    return opened


@pytest.mark.parametrize("status", sorted(_ANSWERS))
def test_error_answer_leaves_no_open_socket(error_server, client_sockets,
                                            status):
    client = ServiceClient(error_server, timeout_s=10.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/{status}")
        # Closed (or already freed) while the error, whose context
        # holds the response, is still alive ...
        [opened] = client_sockets
        assert opened() is None or opened().fileno() == -1
        error = excinfo.value
        seen = (error.status, error.payload,
                isinstance(error, BackpressureError))
        # ... and nothing left for the collector to find unclosed.
        del error, excinfo
        gc.collect()
    assert seen == (status, _ANSWERS[status], status == 429)
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []


@pytest.mark.parametrize("status", sorted(_ANSWERS))
def test_status_error_closes_the_response_it_reads(status):
    headers = email.message.Message()
    headers["Content-Type"] = "application/json"
    body = io.BytesIO(json.dumps(_ANSWERS[status]).encode("utf-8"))
    exc = urllib.error.HTTPError("http://127.0.0.1/", status, "error",
                                 headers, body)
    error = _status_error(exc)
    assert body.closed
    assert error.status == status
    assert error.payload == _ANSWERS[status]


@pytest.fixture()
def stalling_server():
    """Answers each request with a 404 head promising 100 body bytes,
    sends 10 of them and stalls; yields the URL and the request log."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    done = threading.Event()
    requests, connections = [], []

    def serve():
        while not done.is_set():
            try:
                connection, _ = listener.accept()
            except TimeoutError:
                continue
            connections.append(connection)
            requests.append(connection.recv(65536))
            connection.sendall(
                b"HTTP/1.1 404 Not Found\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 100\r\n\r\n"
                b'{"error": ')

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{listener.getsockname()[1]}", requests
    done.set()
    thread.join(timeout=10.0)
    for connection in connections:
        connection.close()
    listener.close()


def test_a_stalled_error_body_is_service_unavailable(stalling_server,
                                                     monkeypatch):
    """A timeout while reading an error answer's body is a connection
    failure, so ``_send`` retries it like any other."""
    url, requests = stalling_server
    monkeypatch.setattr(client_module, "RETRY_BACKOFF", NO_BACKOFF)
    client = ServiceClient(url, timeout_s=0.3, retries=1)
    with pytest.raises(ServiceUnavailableError, match="timed out"):
        client._request("GET", "/v1/x")
    assert len(requests) == 2
