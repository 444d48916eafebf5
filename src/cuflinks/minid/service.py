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
Connection: close request. Such a close lingers (RFC 9112 §9.6): what
the client still sends is read and dropped until it closes, or for
REQUEST_TIMEOUT at most, since unread bytes would turn the close into
a reset, which can destroy the reply. Each reply goes out in one write.
WORKERS threads answer requests side by side, so resolution keeps
working while a mint is in flight, and the registry serializes writers
internally; a connection between two requests holds no thread.
"""

from __future__ import annotations

import json
import re
import select
import socket
import threading
import traceback
from contextlib import suppress
from email.utils import formatdate
from errno import EMFILE, ENFILE
from http import HTTPStatus
from time import monotonic
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
# threads that accept connections and answer requests, each one request
# at a time; they are started with the server and are all it ever runs
WORKERS = 16
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

    WORKERS threads take turns (Leader/Followers) waiting on one epoll
    set of the listening socket and the connections between requests,
    each armed for one wake-up. serve_forever() runs the workers and
    closes the connections silent for REQUEST_TIMEOUT; start() and stop()
    (``with``) run it on a daemon thread; never both. Linux only (epoll).
    """

    def __init__(self, registry: Registry, host: str = "127.0.0.1",
                 port: int = 0, *, token: str | None = None) -> None:
        self.registry = registry
        self._token = token
        self._epoll = select.epoll()
        self._socket = socket.create_server((host, port),
                                            backlog=socket.SOMAXCONN)
        # accept() returns at once if the pending client has gone, and
        # what it returns has Nagle's algorithm off (Linux)
        self._socket.setblocking(False)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._epoll.register(self._socket,
                             select.EPOLLIN | select.EPOLLONESHOT)
        self.address: tuple[str, int] = self._socket.getsockname()[:2]
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        # every open connection; only the worker it wakes closes it
        self._handlers: dict[int, _Handler] = {}
        # when each connection in the epoll set closes, soonest first
        self._deadlines: dict[int, float] = {}

    @property
    def base_url(self) -> str:
        """Resolver base: identifier minid:<s> maps to <base_url>/<s>."""
        host, port = self.address
        return f"http://{host}:{port}/minid"

    def serve_forever(self) -> None:
        """Serve on the workers until stopped; the socket and every
        connection are closed and every worker has ended on return."""
        workers = [threading.Thread(target=self._work, daemon=True,
                                    name="cuflinks-registry-worker")
                   for _ in range(WORKERS)]
        try:
            for worker in workers:
                worker.start()
            while not self._stopped.wait(self._sweep()):
                pass
        finally:
            # a request already read is answered; every later read sees
            # end of input, and the listener wakes each worker in turn
            self._stopped.set()
            for handler in list(self._handlers.values()):
                with suppress(OSError):
                    handler.connection.shutdown(socket.SHUT_RD)
            with suppress(OSError):
                self._socket.shutdown(socket.SHUT_RDWR)
            for worker in workers:
                if worker.is_alive():
                    worker.join()
            for handler in list(self._handlers.values()):
                self._close(handler.connection)
            self._epoll.close()
            self._socket.close()

    def start(self) -> "RegistryServer":
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="cuflinks-registry",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """End the loop start() began; the socket is closed on return."""
        self._stopped.set()
        self._thread.join()

    def __enter__(self) -> "RegistryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # --- workers ---------------------------------------------------------

    def _work(self) -> None:
        while not self._stopped.is_set():
            for ready, _ in self._epoll.poll(-1, 1):
                if ready == self._socket.fileno():
                    self._accept()
                else:
                    self._serve(self._handlers[ready])

    def _arm(self, sock: socket.socket) -> None:
        """Have the epoll set wake one worker once sock is readable."""
        self._epoll.modify(sock, select.EPOLLIN | select.EPOLLONESHOT)

    def _accept(self) -> None:
        """Accept a connection into the epoll set."""
        try:
            sock, _ = self._socket.accept()
        except OSError as exc:
            with self._lock:
                if exc.errno in (EMFILE, ENFILE) and self._deadlines:
                    # out of descriptors: end the connection silent the
                    # longest, whose close re-arms the listener
                    self._end(next(iter(self._deadlines)))
                    return
            self._arm(self._socket)  # e.g. the client gave up: try again
            return
        self._arm(self._socket)
        try:
            handler = _Handler(self.registry, self._token, sock,
                               sock.makefile("rb"))
            with self._lock:
                self._handlers[sock.fileno()] = handler
                self._deadlines[sock.fileno()] = monotonic() + REQUEST_TIMEOUT
            self._epoll.register(sock, select.EPOLLIN | select.EPOLLONESHOT)
        except Exception:  # noqa: BLE001 - the worker keeps serving
            traceback.print_exc()  # e.g. the kernel is out of memory
            self._close(sock)

    def _serve(self, handler: _Handler) -> None:
        """Answer the requests waiting on handler's connection, which the
        epoll set found readable, and return it to the set."""
        connection, rfile = handler.connection, handler.rfile
        with self._lock:  # renewed by a request, not by a lingering close
            if not handler.close_connection:
                self._deadlines.pop(connection.fileno(), None)
        try:
            connection.settimeout(0)  # so that a peek returns at once
            # nothing to read at first is end of input, or a stop's
            while not self._stopped.is_set() and rfile.peek(1):
                if handler.close_connection:  # the lingering close below
                    rfile.read1()  # a bufferful a turn, however fast it comes
                else:
                    # a client that declares more than it sends frees the
                    # worker instead of holding it
                    connection.settimeout(REQUEST_TIMEOUT)
                    handler.handle_one_request()
                    connection.settimeout(0)
                if handler.close_connection:
                    # a lingering close (RFC 9112 §9.6): what the client
                    # still sends is discarded until it closes, since bytes
                    # unread at close() would reset the connection, and the
                    # reset can destroy the reply before the client reads it
                    connection.shutdown(socket.SHUT_WR)
                elif rfile.peek(1):
                    continue  # a pipelined request
                with self._lock:
                    self._deadlines.setdefault(connection.fileno(),
                                               monotonic() + REQUEST_TIMEOUT)
                self._arm(connection)
                return
        except OSError:
            pass  # the client went away or stalled
        except Exception:  # noqa: BLE001 - the worker keeps serving
            traceback.print_exc()
        self._close(connection)

    def _close(self, connection: socket.socket) -> None:
        with self._lock:
            handler = self._handlers.pop(connection.fileno(), None)
            self._deadlines.pop(connection.fileno(), None)
        if handler is not None:
            handler.rfile.close()
        connection.close()
        self._arm(self._socket)  # accept() may wait for a descriptor

    def _sweep(self) -> float:
        """End the connections past their deadline; seconds to the next."""
        now = monotonic()
        with self._lock:
            while self._deadlines:
                descriptor, deadline = next(iter(self._deadlines.items()))
                if deadline > now:
                    return deadline - now
                self._end(descriptor)
        return REQUEST_TIMEOUT

    def _end(self, descriptor: int) -> None:
        """With the lock held, shut a connection; the worker it wakes
        reads end of input and closes it."""
        del self._deadlines[descriptor]
        with suppress(OSError):
            self._handlers[descriptor].connection.shutdown(socket.SHUT_RDWR)
