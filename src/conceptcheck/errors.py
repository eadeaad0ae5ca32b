"""Exception types raised across the package, the JSON codec every
artifact is read and written with, and the one check of a JSON object's
fields that every file and config reader uses.

Every error callers are expected to handle derives from ConceptCheckError,
so CLI code can map the whole family to a single exit code.
"""

from __future__ import annotations

import codecs
import hashlib
import io
import json
from contextlib import nullcontext
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple


class ConceptCheckError(Exception):
    """Base class for all errors raised by this package."""


class CycleDetected(ConceptCheckError):
    """The subconcept relation contains a cycle.

    Carries one offending cycle as a list of concept ids in `cycle`.
    """

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__(f"subconcept cycle: {' -> '.join(self.cycle)}")


class DanglingReference(ConceptCheckError):
    """An edge, property, or same-as entry names an unknown concept id."""


class DuplicateLabel(ConceptCheckError):
    """Two concepts share a label after normalization."""


class UnknownConcept(ConceptCheckError):
    """A query names a concept id absent from the graph."""


class UnknownTemplate(ConceptCheckError):
    """A question form name is not in `clusters.QUESTION_FORMS`."""


class SchemaViolation(ConceptCheckError):
    """A file fails structural validation against its documented format."""


class SeedNotFound(ConceptCheckError):
    """The extraction seed concept is absent from the parsed entities."""


class EmptyFragment(ConceptCheckError):
    """Extraction produced a graph with no subconcept edges."""


class UnreadableSource(ConceptCheckError):
    """An input source could not be read at all."""


class NetworkError(ConceptCheckError):
    """A remote call failed after exhausting retries."""


class MalformedResponse(ConceptCheckError):
    """A remote endpoint returned a payload outside its documented shape."""


class AuthMissing(ConceptCheckError):
    """A required authentication environment variable is unset."""


class FingerprintMismatch(ConceptCheckError):
    """An artifact is bound to a different graph or dataset fingerprint."""


class MismatchedDataset(ConceptCheckError):
    """Result sets under comparison come from different datasets."""


class DenominatorMismatch(ConceptCheckError):
    """Report rows under comparison have different cluster denominators."""


class ConfigError(ConceptCheckError):
    """A run configuration is invalid or incomplete."""


class InsufficientPairsWarning(UserWarning):
    """Fewer unrelated pairs exist than were requested; non-fatal."""


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of the file at `path`; UnreadableSource names it as `what`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableSource(f"cannot read {what} {path}: {exc}") from exc


# Characters (bytes, from a file or a binary stream) that `read_lines` reads at
# once: far less than a results file, so that reading one holds its records
# and not its text.
LINE_BLOCK = 1 << 16


def read_lines(source: str | Path | IO, what: str) -> Iterator[tuple[int, str]]:
    """Each line of the file at `source`, or of the stream `source`, with its
    number from 1, as `enumerate(text.split("\\n"), start=1)` gives them for
    the whole text, read `LINE_BLOCK` at a time. Records end at "\\n" only:
    str.splitlines would also break inside a JSON string at U+2028, U+0085
    and other characters JSON leaves unescaped.

    A file is read as `read_text` reads it (UTF-8, universal newlines), a
    binary stream as UTF-8 with its newlines as they are, and a text stream
    as it comes. An OSError, or bytes that are not UTF-8, are an
    UnreadableSource naming the "<what> file" or "<what> stream", raised
    when reading reaches the fault. A file or binary stream gives the byte
    position that a decode of its whole text gives. A text stream decodes its
    own bytes and reports a position in its current buffer, not in its
    source, so its error gives no position.
    """
    stream = hasattr(source, "read")
    if stream:
        name = f"{what} stream {source.name}" if hasattr(source, "name") else f"{what} stream"
    else:
        name = f"{what} file {source}"
    decoder = codecs.getincrementaldecoder("utf-8")()
    if not stream:
        decoder = io.IncrementalNewlineDecoder(decoder, translate=True)
    lineno, parts, read = 0, [], 0
    try:
        with nullcontext(source) if stream else open(source, "rb") as file:
            while True:
                chunk = block = file.read(LINE_BLOCK)
                if type(chunk) is bytes:
                    read += len(chunk)
                    block = decoder.decode(chunk, final=not chunk)
                lines = block.split("\n")
                parts.append(lines[0])
                if len(lines) > 1:
                    lines[0] = "".join(parts)
                    parts = [lines.pop()]
                    yield from enumerate(lines, lineno + 1)
                    lineno += len(lines)
                if not chunk:
                    break
    except UnicodeDecodeError as exc:
        # The decoder failed inside the bytes it held over plus the last block
        # read; nothing was read as bytes when a text stream failed itself.
        shift = read - len(exc.object) if read else None
        raise UnreadableSource(f"cannot read {name}: {_decode_error(exc, shift)}") from exc
    except OSError as exc:
        raise UnreadableSource(f"cannot read {name}: {exc}") from exc
    yield lineno + 1, "".join(parts)


def _decode_error(exc: UnicodeDecodeError, shift: int | None) -> str:
    """`str(exc)`, with its positions `shift` bytes further on, or without them when `shift` is None."""
    one = exc.end == exc.start + 1
    at = f"byte 0x{exc.object[exc.start]:02x}" if one else "bytes"
    if shift is not None:
        start = exc.start + shift
        at += f" in position {start}" if one else f" in position {start}-{exc.end + shift - 1}"
    return f"'{exc.encoding}' codec can't decode {at}: {exc.reason}"


# What `json`'s decoder raises for text it refuses: a JSONDecodeError (a
# ValueError) for text that is not JSON, a ValueError for an integer longer
# than the interpreter's digit limit, and a RecursionError for nesting deeper
# than its recursion limit.
JSON_REFUSALS = (ValueError, RecursionError)
# The whitespace JSON allows around a value: space, tab, newline, carriage return.
JSON_SPACE = " \t\n\r"


def read_json(path: str | Path, what: str) -> object:
    """Parse the JSON file at `path`, named `what` in UnreadableSource and
    SchemaViolation messages."""
    try:
        return json.loads(read_text(path, what))
    except JSON_REFUSALS as exc:
        raise SchemaViolation(f"{what} {path} is not valid JSON: {exc}") from exc


_REQUIRED: Any = object()


class Kind(NamedTuple):
    """The JSON type a field must have: one of the exact Python `types` (so a
    bool is not an integer), with `test` holding of the value when set. A
    missing or null field takes `default`, if the kind has one."""

    name: str
    types: tuple[type, ...]
    test: Callable[[Any], bool] | None = None
    default: Any = _REQUIRED


STRING = Kind("a string", (str,))
TEXT = Kind("a non-empty string", (str,), bool)
INTEGER = Kind("an integer", (int,))
NUMBER = Kind("a number", (int, float))
BOOLEAN = Kind("a boolean", (bool,))
LIST = Kind("a list", (list,))
OBJECT = Kind("an object", (dict,))
STRINGS = Kind("a list of strings", (list,), lambda v: all(type(s) is str for s in v))


def one_of(*choices: str) -> Kind:
    """A string equal to one of `choices`."""
    return Kind(f"one of {', '.join(map(repr, choices))}", (str,), frozenset(choices).__contains__)


def optional(kind: Kind, default: Any = None) -> Kind:
    """`kind`, or `default` when the field is missing or null. The default
    itself is returned, so callers must not change a mutable one."""
    return kind._replace(default=default)


def read_fields(
    data: object, fields: dict[str, Kind], where: str, error: type[ConceptCheckError] = SchemaViolation
) -> list:
    """The values of the JSON object `data` under the keys of `fields`, in order.

    Raises `error` naming `where`, and the key and the value found, when
    `data` is not an object or a value is not of its field's kind. An object
    with a string "id" is named by it too, so a caller need not build a name
    for every object it reads.
    """
    if not isinstance(data, dict):
        raise error(f"{where} must be a JSON object, got {data!r:.80}")
    values = []
    for key, (name, types, test, default) in fields.items():
        value = data.get(key)
        if type(value) in types and (test is None or test(value)):
            values.append(value)
        elif value is None and default is not _REQUIRED:
            values.append(default)
        else:
            found = f"got {value!r:.80}" if key in data else "but is missing"
            named = f"{where} {data['id']!r}" if type(data.get("id")) is str else where
            raise error(f"{named} field {key!r} must be {name}, {found}")
    return values


# Built once: json.dumps with these arguments builds a new encoder per call.
# `encode` keeps no state between calls, so threads may share it.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: object) -> str:
    """The compact form: sorted keys, no spaces, non-ASCII escaped."""
    return _CANONICAL.encode(obj)


def digest(obj: object) -> str:
    """The fingerprint of `obj`: sha256 hex of its `canonical_json`."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write `text`, or each string of an iterable of them in turn, to the
    file at `path` as UTF-8, as a ConfigError naming it when a directory, a
    missing parent or the system stands in the way."""
    try:
        with open(path, "w", encoding="utf-8") as file:
            file.writelines((text,) if isinstance(text, str) else text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def write_json(path: str | Path, obj: object) -> None:
    """Write `obj` as indented JSON with sorted keys and a final newline."""
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_json_lines(path: str | Path, objs: Iterable[object]) -> None:
    """Write each object as one `canonical_json` line."""
    write_text(path, (canonical_json(obj) + "\n" for obj in objs))
