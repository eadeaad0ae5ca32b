"""Answering backends and the cache of their remote responses.

A backend turns (question, prompt prefix) into raw answer text. Four
kinds exist: a remote HTTP model, a perfect oracle giving each question's
expected answer, a noisy oracle that flips the perfect answer with a
seeded probability, and a scripted backend replaying a fixed answer map.
Remote calls go through an on-disk cache so a warm rerun makes zero
network requests and reproduces files byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import threading
import time
import weakref
from pathlib import Path

from .clusters import ClusterDataset
from .errors import INTEGER, NUMBER, OBJECT, STRING, Kind, optional, read_fields
from .errors import (
    JSON_REFUSALS,
    AuthMissing,
    ConfigError,
    FingerprintMismatch,
    MalformedResponse,
    MismatchedDataset,
    SchemaViolation,
    digest,
    read_json,
)
from .evaluation import prompt_with_prefix
from .hierarchy import DeductiveClosure

log = logging.getLogger(__name__)


# --- response cache ---------------------------------------------------------


_RECORD_FIELDS = {"key": STRING, "entry": OBJECT}
_KEY = re.compile(r"[0-9a-f]{64}")
_LINE_HEAD = b'{"key": "'  # how every line `store` writes starts, followed by the 64-digit key
_LINE_KEY = slice(len(_LINE_HEAD), len(_LINE_HEAD) + 64)
_BLOCK = 1 << 20  # bytes of the log read at once while indexing it


class ResponseCache:
    """Entries by request key in one append-only log per directory, `responses.jsonl`.

    A key is a lower-case sha256 hex digest, as `key` makes. Each `store`
    appends one line, {"key": ..., "entry": ...}, in a single write, and the
    last line for a key wins. Opening the cache indexes where each key's last
    line lies, not the entries, so a hit reads and parses one line, and the
    index costs time and memory in proportion to the lines in the log. A
    miss first indexes the lines appended since, so several objects and
    processes may share a directory, and then tries the older layout's
    `<key>.json` file, which is read but never written. A line that does not
    parse is a miss, and a torn last line is ended before the next append so
    it cannot swallow it.
    """

    LOG_NAME = "responses.jsonl"

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / self.LOG_NAME
        self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        weakref.finalize(self, os.close, self._fd)
        self._lock = threading.Lock()
        self._spans: dict[bytes, int] = {}  # key -> offset << 32 | length of its last line
        self._indexed = 0  # bytes of the log indexed so far, always whole lines
        self._catch_up()

    @staticmethod
    def key(model: str, prompt: str, question: str) -> str:
        return digest({"model": model, "prompt": prompt, "question": question})

    def _catch_up(self) -> None:
        """Index the whole lines the log gained since this object last read it."""
        end = os.fstat(self._fd).st_size
        block = _BLOCK
        while self._indexed < end:
            data = os.pread(self._fd, min(block, end - self._indexed), self._indexed)
            whole = data.rfind(b"\n") + 1
            if not whole:
                if len(data) < block:
                    return  # a line still being written, or a torn one
                block *= 2  # one line longer than the block
                continue
            offset = self._indexed
            for line in data[:whole].split(b"\n")[:-1]:
                if line.startswith(_LINE_HEAD):  # a line that is not, or a torn key, is only a miss
                    self._spans[line[_LINE_KEY]] = offset << 32 | len(line)
                offset += len(line) + 1
            self._indexed = offset

    def get(self, key: str) -> dict | None:
        span = self._spans.get(key.encode())
        if span is None:
            with self._lock:
                self._catch_up()
                span = self._spans.get(key.encode())
        if span is None:
            return self._get_old_layout(key)
        offset, length = divmod(span, 1 << 32)
        try:
            record = json.loads(os.pread(self._fd, length, offset))
            found, entry = read_fields(record, _RECORD_FIELDS, "cache log line")
        except (*JSON_REFUSALS, SchemaViolation) as exc:
            log.warning("skipping damaged cache log line: %s", exc)
            return None
        return entry if found == key else None

    def _get_old_layout(self, key: str) -> dict | None:
        path = self.directory / f"{key}.json"
        try:
            return json.loads(path.read_bytes())
        except FileNotFoundError:
            return None
        except (OSError, *JSON_REFUSALS) as exc:
            log.warning("skipping unreadable cache file %s: %s", path.name, exc)
            return None

    def put(self, key: str, raw: str) -> None:
        self.store(key, {"raw": raw, "timestamp": time.time()})

    def store(self, key: str, payload: dict) -> None:
        """Append any JSON object under `key`; fetch_live caches entity pages this way."""
        if not _KEY.fullmatch(key):
            raise ValueError(f"a cache key is a lower-case sha256 hex digest, got {key!r}")
        record = json.dumps({"key": key, "entry": payload}).encode("ascii")
        with self._lock:
            size = os.fstat(self._fd).st_size
            torn = size and os.pread(self._fd, 1, size - 1) != b"\n"
            # A torn last line is ended first, so it is skipped, not glued on.
            # The descriptor appends, so the write lands whole at the end.
            os.write(self._fd, b"\n" * torn + record + b"\n")
            end = os.lseek(self._fd, 0, os.SEEK_CUR)
            self._spans[key.encode()] = (end - len(record) - 1) << 32 | len(record)


# --- backends ---------------------------------------------------------------


class Backend:
    """Interface: raw answer text for (question, prefix).

    `prefix` is the `render_prefix` text above the question: the preamble,
    few-shots and context. Every question of one context gets the same
    string object; a backend that needs the full prompt builds it with
    `prompt_with_prefix(prefix, question)`, as `RemoteBackend` does.

    A backend may set `concurrency` above one to tell the evaluation loop
    how many questions it can absorb in flight; `answer` must then be
    thread-safe.
    """

    id: str = "backend"
    concurrency: int = 1

    def answer(self, question: str, prefix: str) -> str:
        raise NotImplementedError


class ScriptedBackend(Backend):
    """Replays a fixed question -> raw answer mapping, else its default; the
    oracles are scripted backends too, so this is their one lookup."""

    by_prompt = False  # key the answers by the full prompt, not the bare question

    def __init__(self, answers: dict[str, str], *, default: str | None = None, id: str = "scripted"):
        self._answers = dict(answers)
        self._default = default
        self.id = id

    def answer(self, question: str, prefix: str) -> str:
        raw = self._answers.get(prompt_with_prefix(prefix, question) if self.by_prompt else question, self._default)
        if raw is None:
            raise MismatchedDataset(f"backend {self.id} has no answer for {question!r}")
        return raw


class PerfectOracle(ScriptedBackend):
    """Answers each dataset question from the dataset's `answer_key`; the
    closure only binds the dataset to its graph."""

    def __init__(self, closure: DeductiveClosure, dataset: ClusterDataset):
        if closure.derived_from != dataset.graph_fingerprint:
            raise FingerprintMismatch(
                f"closure is for graph {closure.derived_from[:12]}..., "
                f"dataset for {dataset.graph_fingerprint[:12]}..."
            )
        super().__init__(dataset.answer_key(), id="perfect")


# The other answer of a yes/no truth, by one lookup.
_FLIPPED = {"yes": "no", "no": "yes"}


class NoisyOracle(Backend):
    """Perfect oracle with each answer flipped independently.

    The flip decision is a pure function of (seed, question text), so the
    answer stream is identical across runs and processes and does not
    depend on the order questions arrive in: an answer flips when the first
    eight bytes of sha256("<seed>:<question>" in UTF-8), read big-endian as
    a fraction of 2**64, fall below the flip probability.
    """

    def __init__(
        self,
        closure: DeductiveClosure,
        dataset: ClusterDataset,
        flip_probability: float,
        seed: int,
    ):
        if not 0.0 <= flip_probability <= 1.0:
            raise ConfigError("flip_probability must be in [0, 1]")
        self._inner = PerfectOracle(closure, dataset)
        self.flip_probability = flip_probability
        self.seed = seed
        self._seed_prefix = f"{seed}:".encode("utf-8")  # encoded once, not per question
        self.id = f"noisy-p{flip_probability:g}-s{seed}"

    def _flips(self, question: str) -> bool:
        digest = hashlib.sha256(self._seed_prefix + question.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < self.flip_probability

    def answer(self, question: str, prefix: str) -> str:
        truth = self._inner.answer(question, prefix)
        return _FLIPPED[truth] if self._flips(question) else truth


_ANSWER_FILE_FIELDS = {
    "answers": Kind("an object of strings", (dict,), lambda v: all(type(a) is str for a in v.values())),
    "default": optional(STRING),
}


def load_scripted_answers(path: str | Path) -> ScriptedBackend:
    """Read an answer file: {"answers": {question: raw}, "default"?: str}."""
    answers, default = read_fields(read_json(path, "answer file"), _ANSWER_FILE_FIELDS, f"answer file {path}")
    return ScriptedBackend(answers, default=default, id=Path(path).stem)


_ENTRY_FIELDS = {"raw": STRING}


class RemoteBackend(Backend):
    """HTTP completion endpoint speaking a minimal JSON protocol.

    Request:  POST {endpoint} {"model", "prompt", "max_tokens", "temperature"}
    Response: {"text": "..."}

    Sampling runs at `temperature`, 0 unless the spec gives another, for
    replayability. Responses are cached on disk when a cache is attached,
    keyed by (model, prompt, question) only: neither `temperature` nor
    `max_tokens` is in the key, so a warm cache replays answers made under
    other settings. Requests follow the retry policy of transport.JsonClient,
    and a failure after the last retry raises NetworkError.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        *,
        auth_env: str | None = None,
        max_tokens: int = 16,
        temperature: float = 0.0,
        timeout: float = 30.0,
        concurrency: int = 1,
        cache: ResponseCache | None = None,
        retries: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 8.0,
        id: str | None = None,
    ):
        if concurrency < 1:
            raise ConfigError("concurrency must be >= 1")
        if not 0 < timeout < math.inf:  # also false for NaN, which JSON files may hold
            raise ConfigError(f"timeout must be a finite number of seconds above 0, got {timeout!r}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries!r}")
        if max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {max_tokens!r}")
        self.model = model
        self.max_tokens = max_tokens
        self.temperature = float(temperature)  # posted as 0.0 even when given as 0
        self.concurrency = concurrency
        self.cache = cache
        self.id = id or f"remote-{model}"
        headers = {}
        if auth_env is not None:
            token = os.environ.get(auth_env)
            if not token:
                raise AuthMissing(f"environment variable {auth_env} is not set")
            headers["Authorization"] = f"Bearer {token}"
        from .transport import JsonClient  # here, so a process that builds no client never loads http.client
        self._client = JsonClient(
            endpoint, headers=headers, timeout=timeout, retries=retries,
            backoff_base=backoff_base, backoff_cap=backoff_cap,
        )

    def answer(self, question: str, prefix: str) -> str:
        prompt = prompt_with_prefix(prefix, question)
        if self.cache is not None:
            key = ResponseCache.key(self.model, prompt, question)
            hit = self.cache.get(key)
            if hit is not None:
                try:
                    return read_fields(hit, _ENTRY_FIELDS, f"cache entry {key}")[0]
                except SchemaViolation as exc:
                    log.warning("asking again: %s", exc)
        body = self._client.request(payload={
            "model": self.model,
            "prompt": prompt,
            "max_tokens": self.max_tokens,
            "temperature": self.temperature,
        })
        (raw,) = read_fields(body, {"text": STRING}, "endpoint response", MalformedResponse)
        if self.cache is not None:
            self.cache.put(key, raw)
        return raw


SPEC_FIELDS = {"kind": STRING, "id": optional(STRING)}
_NOISY_FIELDS = {"flip_probability": NUMBER, "seed": INTEGER}
_SCRIPTED_FIELDS = {"answers": STRING}
_REMOTE_FIELDS = {
    "endpoint": STRING, "model": STRING, "auth_env": optional(STRING), "cache_dir": optional(STRING),
    "max_tokens": optional(INTEGER, 16), "concurrency": optional(INTEGER, 1), "retries": optional(INTEGER, 3),
    "temperature": optional(NUMBER, 0.0), "timeout": optional(NUMBER, 30.0),
}
# The keys each kind reads besides SPEC_FIELDS; a spec holding any other is refused.
_KIND_FIELDS = {"perfect": {}, "noisy": _NOISY_FIELDS, "scripted": _SCRIPTED_FIELDS, "remote": _REMOTE_FIELDS}


def read_spec(spec: object, where: str = "backend spec") -> tuple[str, str | None]:
    """The kind and explicit id of a backend spec, named `where` in errors; ConfigError
    for an unknown kind or a key its kind does not read, so a misspelt option is not ignored."""
    kind, explicit_id = read_fields(spec, SPEC_FIELDS, where, ConfigError)
    if kind not in _KIND_FIELDS:
        raise ConfigError(f"unknown backend kind {kind!r}")
    extra = set(spec).difference(SPEC_FIELDS, _KIND_FIELDS[kind])
    if extra:
        raise ConfigError(f"unknown {where} keys for kind {kind!r}: {sorted(extra)}")
    return kind, explicit_id


def shared_cache(directory: str | Path, caches: dict[Path, ResponseCache]) -> ResponseCache:
    """The cache of `directory` in `caches`, opened and added there on first use."""
    directory = Path(directory).resolve()
    if directory not in caches:
        caches[directory] = ResponseCache(directory)
    return caches[directory]


def backend_from_config(
    spec: object,
    *,
    closure: DeductiveClosure | None = None,
    dataset: ClusterDataset | None = None,
) -> Backend:
    """Build a backend from one config entry: {"kind": ..., ...}.

    The oracle kinds need the closure and dataset they answer from; the
    caller supplies those, the config only selects and parameterizes.
    """
    kind, explicit_id = read_spec(spec)
    if kind in ("perfect", "noisy") and (closure is None or dataset is None):
        raise ConfigError(f"backend kind {kind!r} needs a graph closure and dataset")
    values = read_fields(spec, _KIND_FIELDS[kind], f"{kind} backend spec", ConfigError)
    if kind == "perfect":
        backend: Backend = PerfectOracle(closure, dataset)
    elif kind == "noisy":
        backend = NoisyOracle(closure, dataset, *values)
    elif kind == "scripted":
        backend = load_scripted_answers(*values)
    else:
        options = dict(zip(_REMOTE_FIELDS, values))
        cache_dir = options.pop("cache_dir")
        backend = RemoteBackend(**options)  # checks the options before a cache directory is made
        if cache_dir:
            backend.cache = shared_cache(cache_dir, {})
    if explicit_id:
        backend.id = explicit_id
    return backend
