"""JSON over HTTP on the standard library, with the package's one retry policy.

Connection errors, 429 and 5xx are retried after the longer of an exponential
backoff and a Retry-After given in seconds, capped at `backoff_cap`; other
non-200 statuses fail at once. No redirects or proxies; HTTPS verifies against the system CA store.
Imported only where a client is built, to keep `http.client` out of start-up.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
import weakref
from collections import deque
from urllib.parse import urlencode, urlsplit

from .errors import JSON_REFUSALS, ConfigError, MalformedResponse, NetworkError


class JsonClient:
    """JSON requests to one URL over kept-alive connections, each used by one
    thread at a time and closed when the client is collected. `min_interval`
    spaces the starts of all attempts."""

    def __init__(self, url: str, *, timeout: float, retries: int, backoff_base: float,
                 backoff_cap: float, headers: dict[str, str] | None = None, min_interval: float = 0.0):
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ConfigError(f"endpoint must be an http or https URL: {url!r}")
        kind = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        self._open = lambda: kind(parts.netloc, timeout=timeout)  # http.client splits host:port
        self._path, self._query, self._headers = parts.path or "/", parts.query, headers or {}
        self.retries, self.backoff_base, self.backoff_cap = retries, backoff_base, backoff_cap
        self.min_interval, self._next_start, self._pace_lock = min_interval, 0.0, threading.Lock()
        self._idle: deque[http.client.HTTPConnection] = deque()  # appends and pops are thread-safe
        weakref.finalize(self, _close_all, self._idle)

    def request(self, *, params: dict[str, str] | None = None, payload: object = None) -> object:
        """POST `payload` as JSON when given, else GET with query `params`; return the parsed body."""
        query = "&".join(q for q in (self._query, urlencode(params or {})) if q)
        target = self._path + (f"?{query}" if query else "")
        method, headers, data = "GET", self._headers, None
        if payload is not None:
            method, headers = "POST", {**headers, "Content-Type": "application/json"}
            data = json.dumps(payload).encode("utf-8")
        last_error, retry_after = None, None
        for attempt in range(self.retries + 1):
            if attempt:
                backoff = max(self.backoff_base * 2 ** (attempt - 1), _seconds(retry_after))
                time.sleep(min(self.backoff_cap, backoff))
            if self.min_interval > 0:
                with self._pace_lock:
                    time.sleep(max(0.0, self._next_start - time.monotonic()))
                    self._next_start = time.monotonic() + self.min_interval
            try:
                status, retry_after, body = self._send(method, target, data, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error, retry_after = exc, None
                continue
            if status == 429 or status >= 500:
                last_error = f"server returned {status}"
                continue
            if status != 200:
                raise NetworkError(f"endpoint returned {status}: {body.decode('utf-8', 'replace')[:200]}")
            try:
                return json.loads(body)
            except JSON_REFUSALS as exc:
                raise MalformedResponse(f"endpoint returned non-JSON body: {exc}") from exc
        raise NetworkError(f"request failed after {self.retries + 1} attempts: {last_error}")

    def _send(self, method: str, target: str, data: bytes | None, headers: dict) -> tuple[int, str | None, bytes]:
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = self._open()
        # A kept-alive socket that is readable before we send was closed by the server.
        if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            conn.close()
        try:
            conn.request(method, target, body=data, headers=headers)
            response = conn.getresponse()
            return response.status, response.getheader("Retry-After"), response.read()
        except BaseException:
            conn.close()
            raise
        finally:
            self._idle.append(conn)


def _close_all(connections: deque) -> None:
    while connections:
        connections.pop().close()


def _seconds(retry_after: str | None) -> float:
    try:  # absent or an HTTP date counts as 0; max() also keeps 0.0 over NaN
        return max(0.0, float(retry_after))
    except (TypeError, ValueError):
        return 0.0
