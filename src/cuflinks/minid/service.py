"""HTTP resolution API in front of a registry.

Routes (JSON bodies, UTF-8):
    GET  /healthz          liveness probe
    POST /minid            mint; 201 with the new record
    GET  /minid/<suffix>   200 record; 404 unknown; 410 tombstoned with
                           the record still in the body; 400 malformed
    PATCH /minid/<suffix>  location updates, plus administrative state
                           changes ("tombstone": true, "supersede_by")

An error answers the same status on every /minid route (_ERRORS): a
refused state change 409 conflict, a store that cannot be read or
written 500 registry-error. Writes require a bearer token when the
server is given one. Reads never do, and a GET carrying a body is
refused (400). Request bodies are capped at MAX_BODY_BYTES, and a write
that would leave a record larger than a reply can carry is refused too
(413 for both). The service speaks HTTP/1.1 and keeps each connection
open for the client's next request; a connection that stays silent for
REQUEST_TIMEOUT seconds is dropped, and so is one whose request body was
refused unread, or that cannot be framed by cuflinks.framing, the codec
the client reads replies with, or that lacks one Host field (400), or
whose method is not served (501), and so is one after an HTTP/1.0 or
Connection: close request. Each reply goes out in one write. WORKERS
threads serve connections side by side, so resolution keeps working
while a mint is in flight, and the registry serializes writers
internally.
"""

from __future__ import annotations

import json
import re
import select
import socket
import threading
import time
import traceback
from contextlib import suppress
from email.utils import formatdate
from http import HTTPStatus
from typing import BinaryIO

from cuflinks.errors import (CuflinksError, CycleError, IdentifierError,
                             NotFoundError, RecordTooLargeError,
                             RegistryError, TransferError)
from cuflinks.framing import TOKEN, closes, content_length, read_head
from cuflinks.minid.model import (MAX_BODY_BYTES, TOMBSTONED, Checksum,
                                  MinidRecord, render_body,
                                  render_identifier)
from cuflinks.minid.registry import Registry
from cuflinks.version import USER_AGENT

REQUEST_TIMEOUT = 30.0
# threads that accept and serve connections, each one connection at a
# time; they are started with the server and are all it ever runs
WORKERS = 16
# a connection idle for less than this is not closed to make room for
# a new one: its client is most likely between two requests, and may
# send the next one on it just as it closes
IDLE_GRACE = 0.1
_REQUEST_LINE = re.compile(rb"(%s) ([\x21-\x7e]+) HTTP/1\.([0-9])"
                           % TOKEN.pattern)

# the answer to an exception a route's registry call raises: the first
# row whose classes match it wins, so a subclass comes before the class
# it derives from. KeyError, TypeError and ValueError come from a JSON
# body that is not a usable request.
_ERRORS = (
    (IdentifierError, 400, "malformed-identifier"),
    (NotFoundError, 404, "not-found"),
    (RecordTooLargeError, 413, "too-large"),
    ((RegistryError, CycleError), 409, "conflict"),
    ((KeyError, TypeError, ValueError), 400, "bad-request"),
    (CuflinksError, 500, "registry-error"),
)


def _body_length(fields: dict[bytes, bytes]) -> int:
    """The body length a request declares; a TransferError without one
    Host field (repeats join with commas), or with a Transfer-Encoding
    or an unusable Content-Length."""
    host = fields.get(b"host")
    if host is None or b"," in host or b"transfer-encoding" in fields:
        raise TransferError("a request needs one Host field and a body "
                            "framed by Content-Length")
    return content_length(fields) or 0


class _Handler:
    """Reads the requests on one connection and answers each in turn;
    do_<method> answers a method the service serves."""

    def __init__(self, registry: Registry, token: str | None,
                 connection: socket.socket, rfile: BinaryIO) -> None:
        self.registry = registry
        self.token = token
        self.connection = connection
        self.rfile = rfile
        self.close_connection = False

    # --- plumbing -------------------------------------------------------

    def handle_one_request(self) -> None:
        """Read the next request and answer it. A request that cannot be
        framed gets 400, and a method not served 501, and either ends
        the connection."""
        try:
            request, self.fields = read_head(self.rfile, _REQUEST_LINE)
            method, self.path = request[1].decode(), request[2].decode()
            serve = getattr(self, f"do_{method}", None)
            if serve is not None:  # 501 comes before any field check
                self.length = _body_length(self.fields)
        except TransferError as exc:
            self._refuse_unread(400, "bad-request",
                                f"unusable request: {exc}")
            return
        if serve is None:
            self._refuse_unread(501, "not-implemented",
                                f"method {method} is not served")
            return
        self.http11 = request[3] != b"0"
        self.close_connection = not self.http11 or closes(self.fields)
        serve()

    def _send(self, status: int, body: dict) -> None:
        payload = render_body(body)
        close = "Connection: close\r\n" if self.close_connection else ""
        head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                f"Server: {USER_AGENT}\r\n"
                f"Date: {formatdate(usegmt=True)}\r\n"
                f"Content-Type: application/json; charset=utf-8\r\n"
                f"Content-Length: {len(payload)}\r\n{close}\r\n")
        self.connection.sendall(head.encode("ascii") + payload)

    def _error(self, status: int, code: str, detail: str) -> None:
        self._send(status, {"error": code, "detail": detail})

    def _refuse_unread(self, status: int, code: str, detail: str) -> None:
        """Refuse a request whose body was not read, and end the
        connection, so that the body is never taken for a request."""
        self.close_connection = True
        self._error(status, code, detail)

    def _identifier_from_path(self) -> str | None:
        """minid:<suffix> for a /minid/<suffix> path, else None."""
        prefix = "/minid/"
        if not self.path.startswith(prefix):
            return None
        return render_identifier(self.path[len(prefix):])

    def _write_body(self) -> dict | None:
        """The JSON object a write request carries.

        Returns None once a refusal has been sent: 401 without the
        bearer token, 413 above MAX_BODY_BYTES, 400 for a body that is
        not a JSON object. A client that waits for an interim reply
        before it sends the body gets one only once neither of the
        first two refuses it.
        """
        authorization = self.fields.get(b"authorization", b"")
        if self.token is not None and (authorization.decode("latin-1")
                                       != f"Bearer {self.token}"):
            self._refuse_unread(401, "unauthorized",
                                "write requires a bearer token")
            return None
        if self.length > MAX_BODY_BYTES:
            self._refuse_unread(413, "too-large",
                                f"body of {self.length} bytes exceeds the "
                                f"{MAX_BODY_BYTES}-byte limit")
            return None
        if self.http11 and (self.fields.get(b"expect", b"").lower()
                            == b"100-continue"):
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            raw = self.rfile.read(self.length) if self.length else b""
            # ValueError covers JSONDecodeError and UnicodeDecodeError
            body = json.loads(raw.decode("utf-8")) if raw else {}
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
        except ValueError as exc:
            self._error(400, "bad-request", f"unusable request body: {exc}")
            return None
        return body

    def _answer(self, act, *args) -> MinidRecord | None:
        """The record act(*args) returns; None once the answer _ERRORS
        gives for what it raised has been sent."""
        try:
            return act(*args)
        except Exception as exc:
            for classes, status, code in _ERRORS:
                if isinstance(exc, classes):
                    self._error(status, code, str(exc))
                    return None
            raise

    def _minted(self, body: dict) -> MinidRecord:
        return self.registry.mint(
            author=body.get("author", ""),
            title=body.get("title", ""),
            locations=tuple(body.get("locations", ())),
            checksum=Checksum.from_json(body["checksum"]),
        )

    def _patched(self, identifier: str, body: dict) -> MinidRecord:
        actor = str(body.get("actor", ""))
        if body.get("tombstone"):
            return self.registry.tombstone(identifier, actor=actor)
        if "supersede_by" in body:
            return self.registry.supersede(
                identifier, str(body["supersede_by"]), actor=actor)
        return self.registry.update_locations(
            identifier, add=tuple(body.get("add", ())),
            remove=tuple(body.get("remove", ())), actor=actor)

    # --- methods ---------------------------------------------------------

    def do_GET(self) -> None:
        if self.length:
            self._refuse_unread(400, "bad-request", "a GET carries no body")
            return
        if self.path == "/healthz":
            self._send(200, {"status": "ok",
                             "identifiers": len(self.registry)})
            return
        identifier = self._identifier_from_path()
        if identifier is None:
            self._error(404, "no-route", f"no route for {self.path}")
            return
        record = self._answer(self.registry.resolve, identifier)
        if record is not None:
            self._send(410 if record.status == TOMBSTONED else 200,
                       record.to_json())

    def do_POST(self) -> None:
        if self.path not in ("/minid", "/minid/"):
            self._refuse_unread(404, "no-route", f"no route for {self.path}")
            return
        body = self._write_body()
        record = None if body is None else self._answer(self._minted, body)
        if record is not None:
            self._send(201, record.to_json())

    def do_PATCH(self) -> None:
        identifier = self._identifier_from_path()
        if identifier is None:
            self._refuse_unread(404, "no-route", f"no route for {self.path}")
            return
        body = self._write_body()
        record = (None if body is None
                  else self._answer(self._patched, identifier, body))
        if record is not None:
            self._send(200, record.to_json())


class RegistryServer:
    """A registry bound to a listening socket.

    WORKERS threads accept connections and serve each one until it
    closes. When a connection is pending and every worker holds one, the
    connection idle the longest (at least IDLE_GRACE seconds) is closed
    between two requests, never during one. serve_forever() runs the
    workers and watches them from the calling thread; start() and stop()
    (``with``) run it on a daemon thread; never both.
    """

    def __init__(self, registry: Registry, host: str = "127.0.0.1",
                 port: int = 0, *, token: str | None = None) -> None:
        self.registry = registry
        self._token = token
        self._socket = socket.create_server((host, port),
                                            backlog=socket.SOMAXCONN)
        self.address: tuple[str, int] = self._socket.getsockname()[:2]
        self._thread: threading.Thread | None = None
        self._changed = threading.Condition()
        self._stopping = False
        self._free = 0  # workers holding no connection
        self._held: set[socket.socket] = set()
        # held connections awaiting a request, with the time since when
        self._idle: dict[socket.socket, float] = {}

    @property
    def base_url(self) -> str:
        """Resolver base: identifier minid:<s> maps to <base_url>/<s>."""
        host, port = self.address
        return f"http://{host}:{port}/minid"

    def serve_forever(self) -> None:
        """Serve on the workers until stopped; the socket is closed and
        every worker has ended on return."""
        self._free = WORKERS
        workers = [threading.Thread(target=self._work, daemon=True,
                                    name="cuflinks-registry-worker")
                   for _ in range(WORKERS)]
        try:
            for worker in workers:
                worker.start()
            self._evict_while_full()
        finally:
            self._halt()
            for worker in workers:
                if worker.is_alive():
                    worker.join()
            self._socket.close()

    def start(self) -> "RegistryServer":
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="cuflinks-registry",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """End the loop start() began; the socket is closed on return."""
        self._halt()
        self._thread.join()

    def __enter__(self) -> "RegistryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # --- workers ---------------------------------------------------------

    def _halt(self) -> None:
        """Wake every worker and the watcher to end. A request already
        read is answered; every later read sees end of input."""
        with self._changed:
            self._stopping = True
            self._changed.notify_all()
            for connection in self._held:
                with suppress(OSError):
                    connection.shutdown(socket.SHUT_RD)
        with suppress(OSError):  # wakes accept() and poll() on it
            self._socket.shutdown(socket.SHUT_RDWR)

    def _work(self) -> None:
        while True:
            try:
                connection, _ = self._socket.accept()
            except OSError:
                if self._stopping:
                    return
                continue  # e.g. the client gave up while it was pending
            with self._changed:
                if self._stopping:
                    connection.close()
                    return
                self._free -= 1
                self._held.add(connection)
                if not self._free:
                    self._changed.notify()
            try:
                connection.setsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY, 1)
                # a client that declares more than it sends frees the
                # worker instead of holding it
                connection.settimeout(REQUEST_TIMEOUT)
                with connection.makefile("rb") as rfile:
                    handler = _Handler(self.registry, self._token,
                                       connection, rfile)
                    while (not handler.close_connection
                           and self._await_request(handler)):
                        handler.handle_one_request()
            except (ConnectionError, TimeoutError):
                pass  # the client went away or stalled
            except Exception:  # noqa: BLE001 - the worker keeps serving
                traceback.print_exc()
            finally:
                with self._changed:
                    self._held.discard(connection)
                    self._idle.pop(connection, None)
                    if not self._free:
                        self._changed.notify()
                    self._free += 1
                connection.close()

    def _await_request(self, handler: _Handler) -> bool:
        """Wait until the next request on handler's connection begins.

        False when the connection is to close instead: the client
        closed it or stayed silent for REQUEST_TIMEOUT, the server is
        stopping, or the watcher evicted it to make room.
        """
        connection = handler.connection
        with self._changed:
            if self._stopping:
                return False
            self._idle[connection] = time.monotonic()
            if not self._free:
                self._changed.notify()
        try:
            # returns at once when a pipelined request is buffered
            waiting = handler.rfile.peek(1)
        except OSError:  # TimeoutError, or the client reset it
            waiting = b""
        with self._changed:
            self._idle.pop(connection, None)
        return bool(waiting)

    def _evict_while_full(self) -> None:
        """Until stopped: whenever a connection is pending and every
        worker holds one, close the connection idle the longest once it
        has been idle for IDLE_GRACE seconds."""
        pending = select.poll()
        pending.register(self._socket, select.POLLIN)
        while True:
            with self._changed:
                self._changed.wait_for(
                    lambda: self._stopping or not self._free)
                if self._stopping:
                    return
            pending.poll()  # a stop shuts the socket down, which wakes it
            with self._changed:
                if self._stopping or self._free or not pending.poll(0):
                    continue
                victim = min(self._idle, key=self._idle.__getitem__,
                             default=None)
                wait = (None if victim is None else
                        self._idle[victim] + IDLE_GRACE - time.monotonic())
                if wait is None or wait > 0:
                    # until a connection turns idle, one has been idle
                    # long enough, or a worker frees up
                    self._changed.wait(wait)
                    continue
                # its worker sees end of input and closes it, unless a
                # request has just begun, which it answers first
                del self._idle[victim]
                with suppress(OSError):
                    victim.shutdown(socket.SHUT_RD)
                self._changed.wait_for(
                    lambda: self._stopping or victim not in self._held,
                    IDLE_GRACE)
