"""Stand-in static web server for the audit workload.

``python3 perfbench/static_server.py ROOT`` serves ROOT with the stdlib
``SimpleHTTPRequestHandler`` (auto-index included) on a free loopback
port, prints the port on one line and serves until stdin closes.
"""

from __future__ import annotations

import sys
import threading
from functools import partial
from http.server import SimpleHTTPRequestHandler, ThreadingHTTPServer


class QuietHandler(SimpleHTTPRequestHandler):
    def log_message(self, fmt, *args):
        pass


def main() -> int:
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0), partial(QuietHandler, directory=sys.argv[1])
    )
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    thread.join()
    return 0


if __name__ == "__main__":
    sys.exit(main())
