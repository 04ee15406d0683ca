"""The structured-text interchange formats.

Space documents (the wire format, version ``sset v1``)::

    sset v1
    name circle
    dim 0
    0 []
    dim 1
    0 [[0,[]],[0,[]]]

Each generator line is ``<id> <faces>`` where faces is a JSON list of
``[base-id, degeneracy-word]`` pairs in face order d0, d1, ...; the word
is a decreasing list of integers, ``[]`` when empty, and the base
dimension is implied (generator dimension - 1 - word length); ids and
letters are JSON ints, never booleans.  The parser reads the lines, then
decodes each dimension block ``DECODE_LINES`` face lists at a time, one
``json.loads`` each (kept when the piece has no string and each line has
as many ``[`` as ``]``, counted by two ``str.count`` maps), and writes
each entry, once checked, to the space's integer face table before the
next piece is decoded, so no more than one piece's JSON lists are held
at once.  An empty word takes index 0 at
once; each other distinct word of a piece is checked once, and the table
keeps one int object per distinct base id.  Its errors name the same
line as a line-by-line parse, and come in the same order: the first
decode error of any block, then the line pass's error, then the first
entry error.  The printer reads the space one face column at a time
(``_face_column``) and emits dimension-major, id-minor order with compact
JSON; parse(print(K)) is the identity on canonical documents.

Finite-group tables (``group v1``) use the same versioned-header style.
"""

from __future__ import annotations

import itertools
import json
import re

from .covers import FiniteGroup
from .simplex import SimplexRef
from .sset import FaceTable, SimplicialSet, is_valid


# the deepest face list decoded, far below the recursion limit of the decoder
MAX_NESTING = 100
# the face lists decoded at once: a bound on the decoded lists held in memory
DECODE_LINES = 1024
# the brackets of a JSON text, strings skipped
_BRACKETS = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')


class SpaceDocumentError(ValueError):
    """A parse or validation failure, with the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_space(text: str) -> SimplicialSet:
    """Parse and validate a space document."""
    space = _parse_unchecked(text)
    report = is_valid(space)
    if not report.ok:
        raise SpaceDocumentError("validation failed: " + report.first_violation)
    return space


def _parse_unchecked(text: str) -> SimplicialSet:
    """Parse a space document without checking the simplicial identities;
    the catalog reads its shipped documents this way."""
    # A line pass checks the header, the blocks and the ids, and collects
    # each block's face texts.  Its error waits until those are decoded: a
    # bad face list on an earlier line, or on the same line before a wrong
    # id, is reported first.  An entry error is reported only if every
    # block decodes, line by line when the document is refused.
    lines = ((k, s) for k, s in enumerate(map(str.strip, text.splitlines()), 1) if s and s[0] != "#")
    lineno, header = next(lines, (1, None))
    if header != "sset v1":
        raise SpaceDocumentError(f"bad or missing header (wanted 'sset v1', got {header!r})", lineno)
    name = pending = None
    blocks: list[tuple[list[str], list[int]]] = []      # face texts and line numbers per dim
    try:
        for lineno, content in lines:
            fields = content.split(None, 1)
            if fields[0] == "name":
                if blocks:
                    raise SpaceDocumentError("name must precede the dimension blocks", lineno)
                name = fields[1].strip() if len(fields) > 1 else ""
            elif fields[0] == "dim":
                try:
                    d = int(fields[1])
                except (IndexError, ValueError):
                    raise SpaceDocumentError("dim needs an integer argument", lineno) from None
                if d != len(blocks):
                    raise SpaceDocumentError(
                        f"dimension blocks must be consecutive from 0 (got {d}, wanted {len(blocks)})",
                        lineno)
                blocks.append(([], []))
            else:
                if not blocks:
                    raise SpaceDocumentError(f"generator line before any 'dim' block: {content!r}", lineno)
                try:
                    gid = int(fields[0])
                except ValueError:
                    raise SpaceDocumentError(f"bad generator id {fields[0]!r}", lineno) from None
                if len(fields) < 2:
                    raise SpaceDocumentError("generator line has no face list", lineno)
                texts, linenos = blocks[-1]
                texts.append(fields[1])
                linenos.append(lineno)
                if gid != len(texts) - 1:
                    raise SpaceDocumentError(
                        f"ids must be dense and ascending (got {gid}, wanted {len(texts) - 1})", lineno)
    except SpaceDocumentError as exc:
        pending = exc
    table = FaceTable(len(blocks) - 1)
    ids: dict[int, int] = {}  # one int object per distinct base id in the table
    try:
        # DECODE_LINES face lists at a time: decoded, then checked and
        # written unless the line pass failed, then dropped
        for d, (texts, linenos) in enumerate(blocks):
            for first in range(0, len(texts), DECODE_LINES):
                piece = slice(first, first + DECODE_LINES)
                rows = _decode(texts[piece], linenos[piece])
                if pending is None:
                    _write_faces(table, d, first, rows, linenos[piece], ids)
                del rows
            table.counts[d] = len(texts)
            table.labels[d] = [None] * len(texts)
        if pending is not None:
            raise pending
        try:
            return SimplicialSet(table, name=name)
        except ValueError as exc:
            raise SpaceDocumentError(str(exc)) from None
    except SpaceDocumentError:
        # A refused document is decoded line by line: a bad face list in any
        # block, even one after an entry error, is reported first.  Whether a
        # face list nested too deeply decodes in one piece depends on the
        # caller's stack depth; line by line it is refused before anything else.
        for texts, linenos in blocks:
            _decode_lines(texts, linenos)
        raise


def _write_faces(table: FaceTable, d: int, first: int, rows: list, linenos: list[int],
                 ids: dict[int, int]) -> None:
    """Check the decoded face lists of the d-generators from id ``first`` on
    and write each entry to the face table as it is read."""
    want = d + 1 if d else 0
    words = {}  # str(word), which tells 1 from true and 1.0 -> its index
    base, word = table.base[d], table.word[d]
    for gid, (faces, lineno) in enumerate(zip(rows, linenos), first):
        if type(faces) is not list:
            raise SpaceDocumentError("face list must be a list", lineno)
        if len(faces) != want:
            raise SpaceDocumentError(f"generator {d}.{gid} has {len(faces)} faces, wanted {want}", lineno)
        for entry in faces:
            if (type(entry) is not list or len(entry) != 2      # type(): True is not an id
                    or type(entry[0]) is not int or type(entry[1]) is not list):
                raise SpaceDocumentError(f"face entry {entry!r} is not [base-id, word]", lineno)
            w = entry[1]
            if not w:  # the empty word, index 0: nearly every face
                wi = 0
            else:
                key = str(w)
                wi = words.get(key)
                if wi is None:
                    wi = words[key] = table.intern(d, _checked_word(d, entry, lineno))
            base.append(ids.setdefault(entry[0], entry[0]))
            word.append(wi)


def _decode(texts: list[str], linenos: list[int]) -> list:
    """The face lists of one block, by one ``json.loads`` when it can."""
    # With no string in the block, one list per line and balanced brackets
    # on each line, every line is one value between top-level commas, so one
    # decode of the joined texts is the per-line decode.  A block that fails
    # this is decoded line by line, which names its first bad line.
    block = "[" + ",".join(texts) + "]"
    try:
        rows = json.loads(block)
    except (ValueError, RecursionError):
        rows = []
    opens, closes = (list(map(str.count, texts, itertools.repeat(bracket))) for bracket in "[]")
    if len(rows) == len(texts) and '"' not in block and opens == closes:
        return rows
    return _decode_lines(texts, linenos)


def _decode_lines(texts: list[str], linenos: list[int]) -> list:
    """The face lists of one block, one ``json.loads`` per line; the first
    bad line is refused.  A list nested deeper than ``MAX_NESTING`` (a valid
    one has depth 3) is refused before it is decoded, its depth counted
    without recursion, so the refusal does not depend on the stack."""
    rows = []
    for face_text, lineno in zip(texts, linenos):
        depth = 0
        for token in _BRACKETS.findall(face_text):
            depth += (token in "[{") - (token in "]}")
            if depth > MAX_NESTING:
                raise SpaceDocumentError("bad face list: nested too deeply", lineno)
        try:
            rows.append(json.loads(face_text))
        except json.JSONDecodeError as exc:
            raise SpaceDocumentError(f"bad face list: {exc.msg}", lineno) from None
    return rows


def _checked_word(d: int, entry: list, lineno: int) -> tuple[int, ...]:
    """The word of a face entry of a d-simplex."""
    word = entry[1]
    if not all(type(w) is int for w in word):
        raise SpaceDocumentError(f"face entry {entry!r} is not [base-id, word]", lineno)
    if len(word) >= d:
        raise SpaceDocumentError(f"degeneracy word {word} too long for a face of dimension {d - 1}", lineno)
    if word and not SimplexRef(d - 1 - len(word), 0, tuple(word)).words_ok():
        raise SpaceDocumentError(f"degeneracy word {word} is not strictly decreasing in range", lineno)
    return tuple(word)


def print_space(space: SimplicialSet) -> str:
    """Canonical document, dimension-major, id-minor, written a face column at a time."""
    out = ["sset v1"]
    if space.name:
        out.append(f"name {space.name}")
    for d in range(space.top_dim + 1):
        out.append(f"dim {d}")
        reads = [space._face_column(d, (), i) for i in range(d + 1 if d else 0)]
        texts = [f"[{','.join(map(str, w))}]" for _, w in reads[0][0]] if d else []
        columns = [[f"[{b},{texts[k]}]" for k, b in zip(of, bases)] for _, of, bases in reads]
        rows = zip(*columns) if d else [()] * space.n_gens(0)
        out += [f"{g} [{','.join(faces)}]" for g, faces in enumerate(rows)]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Finite group tables


def parse_group(text: str) -> FiniteGroup:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines or lines[0] != "group v1":
        raise ValueError("bad or missing group header")
    if len(lines) < 2 or not lines[1].startswith("elements"):
        raise ValueError("missing elements line")
    names = lines[1].split()[1:]
    if len(set(names)) != len(names) or not names:
        raise ValueError("element names must be nonempty and distinct")
    if len(lines) < 3 or lines[2] != "table":
        raise ValueError("missing table line")
    index = {nm: k for k, nm in enumerate(names)}
    table = []
    for ln in lines[3:3 + len(names)]:
        entries = ln.split()
        if len(entries) != len(names):
            raise ValueError("table row has the wrong length")
        unknown = [e for e in entries if e not in index]
        if unknown:
            raise ValueError(f"table entry {unknown[0]!r} names no element")
        table.append([index[e] for e in entries])
    if len(table) != len(names):
        raise ValueError("table has the wrong number of rows")
    if len(lines) > 3 + len(names):
        raise ValueError(f"{len(lines) - 3 - len(names)} lines follow the {len(names)} table rows")
    return FiniteGroup(names, table)
