"""Completion endpoint stub for the remote-stub workload, run as its own process.

    python3 perfbench/stub.py --truth TRUTH.json --latency-ms 2 --fail-seed 7 --fail-share 0.005

It speaks HTTP/1.1 with keep-alive and Nagle's algorithm off, waits a fixed
latency before each answer and answers "Yes." or "No." from the truth
table (question text -> "yes" / "no") for the question on the prompt's last
"Q: " line. A seeded share of prompts gets one 503 before its real answer;
the choice is a sha256 of (seed, prompt), never `hash()`, which changes
with PYTHONHASHSEED. `GET /stats` reports the requests served so far and
the CPU-speed samples (see speed.py) taken since the last `GET /stats`.

It prints `PORT <n>` once it listens and stops when its stdin closes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import speed


class Stub:
    def __init__(self, truth: dict[str, str], latency: float, fail_seed: int, fail_share: float,
                 sampler: speed.Sampler):
        self.truth = truth
        self.sampler = sampler
        self.latency = latency
        self.fail_seed = fail_seed
        self.fail_share = fail_share
        self.lock = threading.Lock()
        self.requests = 0
        self.failures = 0
        self.failed_once: set[str] = set()

    def fails_first(self, prompt: str) -> bool:
        digest = hashlib.sha256(f"{self.fail_seed}:{prompt}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < self.fail_share

    def respond(self, body: bytes) -> tuple[int, dict]:
        prompt = json.loads(body)["prompt"]
        with self.lock:
            self.requests += 1
            fail = self.fails_first(prompt) and prompt not in self.failed_once
            if fail:
                self.failed_once.add(prompt)
                self.failures += 1
        time.sleep(self.latency)
        if fail:
            return 503, {"error": "try again"}
        question = prompt.rsplit("Q: ", 1)[-1].split("\n", 1)[0]
        answer = self.truth.get(question)
        text = {"yes": "Yes.", "no": "No."}.get(answer, "I do not know.")
        return 200, {"text": text}

    def stats(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "failures": self.failures,
                    "speed_samples": self.sampler.take()}


def make_server(stub: Stub) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def log_message(self, *args):
            pass

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_POST(self):
            length = int(self.headers.get("Content-Length") or 0)
            self._send(*stub.respond(self.rfile.read(length)))

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, stub.stats())
            else:
                self._send(404, {"error": "not found"})

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--truth", required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    parser.add_argument("--fail-seed", type=int, required=True)
    parser.add_argument("--fail-share", type=float, required=True)
    args = parser.parse_args(argv)
    with open(args.truth, encoding="utf-8") as fh:
        truth = json.load(fh)
    sampler = speed.Sampler().start()
    server = make_server(Stub(truth, args.latency_ms / 1000.0, args.fail_seed, args.fail_share, sampler))

    def stop_on_eof():
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_on_eof, daemon=True).start()
    print(f"PORT {server.server_port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
