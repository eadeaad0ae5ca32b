"""Answering backends and prompt plumbing.

A backend turns (question, rendered prompt) into raw answer text. Four
kinds exist: a remote HTTP model, a perfect oracle that answers from the
deductive closure, a noisy oracle that flips the perfect answer with a
seeded probability, and a scripted backend replaying a fixed answer map.
Remote calls go through an on-disk cache so a warm rerun makes zero
network requests and reproduces files byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .answers import Answer
from .clusters import ClusterDataset
from .errors import INTEGER, LIST, NUMBER, STRING, Kind, optional, read_fields
from .errors import (
    AuthMissing,
    ConfigError,
    FingerprintMismatch,
    MalformedResponse,
    MismatchedDataset,
    digest,
    read_json,
)
from .hierarchy import DeductiveClosure
from .transport import JsonClient

log = logging.getLogger(__name__)


# --- prompt template --------------------------------------------------------


@dataclass(frozen=True)
class PromptTemplate:
    """Preamble plus few-shot question/answer pairs."""

    preamble: str
    few_shot: tuple[tuple[str, str], ...] = ()

    def fingerprint(self) -> str:
        return digest({"preamble": self.preamble, "few_shot": [list(p) for p in self.few_shot]})


def render_prefix(template: PromptTemplate, context_statements: tuple[str, ...] = ()) -> str:
    """Render everything above a prompt's final question, once for many questions.

    The preamble and a blank line, each few-shot pair and a blank line, then
    the context statements verbatim: every line ends in a newline, so the
    prefix is "" when all of them are empty.
    """
    parts: list[str] = []
    if template.preamble:
        parts += (template.preamble, "")
    for shot_q, shot_a in template.few_shot:
        parts += (f"Q: {shot_q}", f"A: {shot_a}", "")
    parts.extend(context_statements)
    return "".join(f"{part}\n" for part in parts)


def prompt_with_prefix(prefix: str, question: str) -> str:
    """The full prompt for one question below a prefix from `render_prefix`."""
    return f"{prefix}Q: {question}\nA:"


def render_prompt(
    template: PromptTemplate,
    question: str,
    context_statements: tuple[str, ...] = (),
) -> str:
    """Render the full prompt for one question.

    Context statements, when present, are inserted verbatim, each on its
    own line, directly above the final question; everything else is byte
    identical to the context-free rendering.
    """
    return prompt_with_prefix(render_prefix(template, context_statements), question)


_TEMPLATE_FIELDS = {"preamble": STRING, "few_shot": optional(LIST, [])}
_SHOT_FIELDS = {"question": STRING, "answer": STRING}


def load_prompt_template(path: str | Path) -> PromptTemplate:
    """Read a template file: {"preamble": str, "few_shot": [{"question","answer"}]}."""
    where = f"prompt template {path}"
    preamble, shots = read_fields(read_json(path, "prompt template"), _TEMPLATE_FIELDS, where)
    few_shot = (tuple(read_fields(s, _SHOT_FIELDS, f"{where} few_shot #{i}")) for i, s in enumerate(shots))
    return PromptTemplate(preamble=preamble, few_shot=tuple(few_shot))


# --- response cache ---------------------------------------------------------


class ResponseCache:
    """One JSON file per request key; writes are atomic (temp then rename)."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(model: str, rendered_prompt: str, question: str) -> str:
        return digest({"model": model, "prompt": rendered_prompt, "question": question})

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> dict | None:
        path = self._path(key)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            # A damaged entry is a miss; the next put overwrites it.
            log.warning("discarding unreadable cache entry %s", path.name)
            return None

    def put(self, key: str, raw: str) -> None:
        self.store(key, {"raw": raw, "timestamp": time.time()})

    def store(self, key: str, payload: dict) -> None:
        """Write any JSON object under `key`; fetch_live caches entity pages this way."""
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)


# --- backends ---------------------------------------------------------------


class Backend:
    """Interface: raw answer text for (question, rendered prompt).

    A backend may set `concurrency` above one to tell the evaluation loop
    how many questions it can absorb in flight; `answer` must then be
    thread-safe.
    """

    id: str = "backend"
    concurrency: int = 1

    def answer(self, question: str, rendered_prompt: str) -> str:
        raise NotImplementedError


def _expected_by_question(dataset: ClusterDataset) -> dict[str, Answer]:
    # A question text repeated across clusters always carries the same
    # truth value, so last-write-wins assembly is safe.
    out: dict[str, Answer] = {}
    for cluster in dataset.clusters:
        for q in cluster.questions:
            out[q] = cluster.expected
    return out


class PerfectOracle(Backend):
    """Answers every dataset question with its closure-determined truth."""

    id = "perfect"

    def __init__(self, closure: DeductiveClosure, dataset: ClusterDataset):
        if closure.derived_from != dataset.graph_fingerprint:
            raise FingerprintMismatch(
                f"closure is for graph {closure.derived_from[:12]}..., "
                f"dataset for {dataset.graph_fingerprint[:12]}..."
            )
        self._expected = _expected_by_question(dataset)

    def answer(self, question: str, rendered_prompt: str) -> str:
        try:
            return self._expected[question].value
        except KeyError:
            raise MismatchedDataset(f"question not in bound dataset: {question!r}") from None


class NoisyOracle(Backend):
    """Perfect oracle with each answer flipped independently.

    The flip decision is a pure function of (seed, question text), so the
    answer stream is identical across runs and processes and does not
    depend on the order questions arrive in.
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
        self.id = f"noisy-p{flip_probability:g}-s{seed}"

    def _flips(self, question: str) -> bool:
        digest = hashlib.sha256(f"{self.seed}:{question}".encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        return draw < self.flip_probability

    def answer(self, question: str, rendered_prompt: str) -> str:
        truth = self._inner.answer(question, rendered_prompt)
        if self._flips(question):
            return Answer.NO.value if truth == Answer.YES.value else Answer.YES.value
        return truth


class ScriptedBackend(Backend):
    """Replays a fixed question -> raw answer mapping."""

    def __init__(self, answers: dict[str, str], *, default: str | None = None, id: str = "scripted"):
        self._answers = dict(answers)
        self._default = default
        self.id = id

    def answer(self, question: str, rendered_prompt: str) -> str:
        if question in self._answers:
            return self._answers[question]
        if self._default is not None:
            return self._default
        raise MismatchedDataset(f"scripted answers do not cover: {question!r}")


_ANSWER_FILE_FIELDS = {
    "answers": Kind("an object of strings", (dict,), lambda v: all(type(a) is str for a in v.values())),
    "default": optional(STRING),
}


def load_scripted_answers(path: str | Path) -> ScriptedBackend:
    """Read an answer file: {"answers": {question: raw}, "default"?: str}."""
    answers, default = read_fields(read_json(path, "answer file"), _ANSWER_FILE_FIELDS, f"answer file {path}")
    return ScriptedBackend(answers, default=default, id=Path(path).stem)


class RemoteBackend(Backend):
    """HTTP completion endpoint speaking a minimal JSON protocol.

    Request:  POST {endpoint} {"model", "prompt", "max_tokens", "temperature"}
    Response: {"text": "..."}

    Sampling is pinned to temperature 0 for replayability. Responses are
    cached on disk when a cache is attached; requests follow the retry policy
    of transport.JsonClient, and a failure after the last retry raises
    NetworkError.
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
        self._client = JsonClient(
            endpoint, headers=headers, timeout=timeout, retries=retries,
            backoff_base=backoff_base, backoff_cap=backoff_cap,
        )

    def answer(self, question: str, rendered_prompt: str) -> str:
        if self.cache is not None:
            key = ResponseCache.key(self.model, rendered_prompt, question)
            hit = self.cache.get(key)
            if hit is not None:
                return hit["raw"]
        body = self._client.request(payload={
            "model": self.model,
            "prompt": rendered_prompt,
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
    kind, explicit_id = read_fields(spec, SPEC_FIELDS, "backend spec", ConfigError)
    where = f"{kind} backend spec"
    if kind in ("perfect", "noisy"):
        if closure is None or dataset is None:
            raise ConfigError(f"backend kind {kind!r} needs a graph closure and dataset")
    if kind == "perfect":
        backend: Backend = PerfectOracle(closure, dataset)
    elif kind == "noisy":
        backend = NoisyOracle(closure, dataset, *read_fields(spec, _NOISY_FIELDS, where, ConfigError))
    elif kind == "scripted":
        backend = load_scripted_answers(*read_fields(spec, _SCRIPTED_FIELDS, where, ConfigError))
    elif kind == "remote":
        options = dict(zip(_REMOTE_FIELDS, read_fields(spec, _REMOTE_FIELDS, where, ConfigError)))
        cache_dir = options.pop("cache_dir")
        backend = RemoteBackend(**options, cache=ResponseCache(cache_dir) if cache_dir else None)
    else:
        raise ConfigError(f"unknown backend kind {kind!r}")
    if explicit_id:
        backend.id = explicit_id
    return backend
