"""A fixed HTTP server of the benchmark's own, the speed probe of
``serve_mixed``.

Usage::

    python perfbench/null_server.py

It prints ``serving on http://127.0.0.1:PORT`` and answers every POST
the way ``repro serve`` answers a warm ``/compile``, minus the program:
read the body, parse and hash it, and send a fixed JSON report of about
the same size over a keep-alive connection.  Its round trip, timed next
to the program's, tells how fast the CPU they share runs at that moment.
"""

import hashlib
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_REPLY = json.dumps({"status": "ok", "report": {
    "rows": [[i, 3 * i, f"buffer{i}"] for i in range(40)]}}).encode()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers["Content-Length"]))
        hashlib.sha256(json.dumps(json.loads(body),
                                  sort_keys=True).encode()).hexdigest()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(_REPLY)))
        self.end_headers()
        self.wfile.write(_REPLY)

    def log_message(self, *args) -> None:
        pass


def main() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    print(f"serving on http://127.0.0.1:{server.server_address[1]}",
          flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
