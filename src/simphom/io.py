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
dimension is implied (generator dimension - 1 - word length).  The
canonical printer emits dimension-major, id-minor order with compact
JSON; parse(print(K)) is the identity on canonical documents.

Finite-group tables (``group v1``) use the same versioned-header style.
"""

from __future__ import annotations

import json

from .covers import FiniteGroup
from .simplex import NonDegenSimplex, SimplexRef
from .sset import SimplicialSet, is_valid


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
    lines = text.splitlines()
    pos = 0

    def next_content():
        nonlocal pos
        while pos < len(lines):
            stripped = lines[pos].strip()
            pos += 1
            if stripped and not stripped.startswith("#"):
                return stripped, pos
        return None, pos

    header, lineno = next_content()
    if header is None or header != "sset v1":
        raise SpaceDocumentError(f"bad or missing header (wanted 'sset v1', got {header!r})",
                                 lineno if header is not None else 1)
    name = None
    rows: list[list[tuple[int, list, int]]] = []
    current_dim = None
    while True:
        content, lineno = next_content()
        if content is None:
            break
        fields = content.split(None, 1)
        if fields[0] == "name":
            if current_dim is not None:
                raise SpaceDocumentError("name must precede the dimension blocks", lineno)
            name = fields[1].strip() if len(fields) > 1 else ""
        elif fields[0] == "dim":
            try:
                d = int(fields[1])
            except (IndexError, ValueError):
                raise SpaceDocumentError("dim needs an integer argument", lineno) from None
            expected = (current_dim + 1) if current_dim is not None else 0
            if d != expected:
                raise SpaceDocumentError(
                    f"dimension blocks must be consecutive from 0 (got {d}, wanted {expected})",
                    lineno)
            current_dim = d
            rows.append([])
        else:
            if current_dim is None:
                raise SpaceDocumentError(f"generator line before any 'dim' block: {content!r}", lineno)
            try:
                gid = int(fields[0])
            except ValueError:
                raise SpaceDocumentError(f"bad generator id {fields[0]!r}", lineno) from None
            if len(fields) < 2:
                raise SpaceDocumentError("generator line has no face list", lineno)
            try:
                faces = json.loads(fields[1])
            except json.JSONDecodeError as exc:
                raise SpaceDocumentError(f"bad face list: {exc.msg}", lineno) from None
            if gid != len(rows[current_dim]):
                raise SpaceDocumentError(
                    f"ids must be dense and ascending (got {gid}, wanted {len(rows[current_dim])})",
                    lineno)
            rows[current_dim].append((gid, faces, lineno))

    gens: list[list[NonDegenSimplex]] = []
    for d, row in enumerate(rows):
        out = []
        for gid, faces, lineno in row:
            if not isinstance(faces, list):
                raise SpaceDocumentError("face list must be a list", lineno)
            want = 0 if d == 0 else d + 1
            if len(faces) != want:
                raise SpaceDocumentError(
                    f"generator {d}.{gid} has {len(faces)} faces, wanted {want}", lineno)
            refs = []
            for entry in faces:
                if (not isinstance(entry, list) or len(entry) != 2
                        or not isinstance(entry[0], int) or not isinstance(entry[1], list)
                        or not all(isinstance(w, int) for w in entry[1])):
                    raise SpaceDocumentError(
                        f"face entry {entry!r} is not [base-id, word]", lineno)
                base_id, word = entry
                base_dim = d - 1 - len(word)
                if base_dim < 0:
                    raise SpaceDocumentError(
                        f"degeneracy word {word} too long for a face of dimension {d - 1}", lineno)
                ref = SimplexRef(base_dim, base_id, tuple(word))
                if word and not ref.words_ok():
                    raise SpaceDocumentError(
                        f"degeneracy word {word} is not strictly decreasing in range", lineno)
                refs.append(ref)
            out.append(NonDegenSimplex(d, gid, tuple(refs)))
        gens.append(out)
    try:
        space = SimplicialSet(gens, name=name)
    except ValueError as exc:
        raise SpaceDocumentError(str(exc)) from None
    return space


def print_space(space: SimplicialSet) -> str:
    """Canonical document: dimension-major, id-minor, compact JSON faces."""
    out = ["sset v1"]
    if space.name:
        out.append(f"name {space.name}")
    for d in range(space.top_dim + 1):
        out.append(f"dim {d}")
        for g in space.gens(d):
            faces = [[ref.base_id, list(ref.degens)] for ref in g.faces]
            out.append(f"{g.id} {json.dumps(faces, separators=(',', ':'))}")
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
