"""Fixture file server: serves a directory over HTTP GET.

Runs as its own process so the benchmark's transfers cross a real
socket into another interpreter, as they do for users. It speaks
HTTP/1.1 with keep-alive, as file servers do, so a client that reuses
its connection does not open one per file (and the host does not pile
up sockets in TIME_WAIT from run to run). It prints ``port <n>`` on
stdout once it listens and serves until SIGTERM or SIGINT.

    python3 perfbench/fileserver.py ROOT
"""

from __future__ import annotations

import shutil
import signal
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import unquote, urlsplit


def _handler(root: Path):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # headers and body go out as separate writes; without TCP_NODELAY
        # a kept-alive connection waits on the peer's delayed ACK
        disable_nagle_algorithm = True

        def log_message(self, format: str, *args) -> None:
            pass

        def do_GET(self) -> None:
            relative = unquote(urlsplit(self.path).path).lstrip("/")
            target = (root / relative).resolve()
            if root not in target.parents or not target.is_file():
                self.send_error(404, "no such fixture")
                return
            with open(target, "rb") as source:
                size = source.seek(0, 2)
                source.seek(0)
                self.send_response(200)
                self.send_header("Content-Length", str(size))
                self.send_header("Content-Type", "application/octet-stream")
                self.end_headers()
                shutil.copyfileobj(source, self.wfile, 256 * 1024)

    return Handler


def _stop(signum, frame) -> None:
    raise KeyboardInterrupt


def main() -> None:
    root = Path(sys.argv[1]).resolve()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _handler(root))
    server.daemon_threads = True
    signal.signal(signal.SIGTERM, _stop)
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
