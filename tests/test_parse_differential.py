"""``parse_space`` against the line-by-line reference parser.

Every seeded corruption of a catalog or ladder document must end the same
way in both: the same ``SpaceDocumentError`` message and line, or the same
space.  Only JSON booleans, which the reference accepts as ints, differ.
A print/parse round trip covers the same documents, with blank lines,
comments and JSON whitespace added.
"""

from __future__ import annotations

import json
import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from reference import reference_parse_unchecked
from simphom.catalog import catalog
from simphom.io import SpaceDocumentError, parse_space, print_space
from simphom.sset import is_valid, product

CATALOG = ["point", "circle", "torus", "rp2", "klein", "delta:3", "boundary:3", "horn:3:1",
           "sphere:2", "discrete:2"]
# One space per rung of the benchmark's homology ladder.
LADDER = ["circle*circle", "circle*rp2", "torus*klein", "sphere:2*rp2", "torus*boundary:3",
          "rp2*boundary:2", "boundary:3*boundary:3", "torus*rp2"]
NAMES = CATALOG + LADDER


@cache
def document(name: str) -> str:
    factors = name.split("*")
    space = (product(catalog(factors[0]), catalog(factors[1])).space if len(factors) == 2
             else catalog(name))
    return print_space(space)


def reference_parse_space(text: str):
    space = reference_parse_unchecked(text)
    report = is_valid(space)
    if not report.ok:
        raise SpaceDocumentError("validation failed: " + report.first_violation)
    return space


def outcome(parse, text: str):
    try:
        return "parsed", print_space(parse(text))
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


# -- corruptions ---------------------------------------------------------------
# Each takes a random source, the document's lines and its blocks (the line
# indices of each dimension's generator lines) and edits the lines in place.


def _faces(line: str) -> list:
    return json.loads(line.split(" ", 1)[1])


def _set_faces(lines, k, faces) -> None:
    lines[k] = lines[k].split(" ", 1)[0] + " " + json.dumps(faces, separators=(",", ":"))


def broken_json(rng, lines, blocks, d, k):
    gid, text = lines[k].split(" ", 1)
    cut = rng.randrange(1, len(text))
    lines[k] = gid + " " + rng.choice([text[:cut], text[:cut] + "," + text[cut:],
                                       text[:cut] + "x" + text[cut:], text[:cut] + "]" + text[cut:]])


def wrong_face_count(rng, lines, blocks, d, k):
    faces = _faces(lines[k])
    if faces and rng.random() < 0.5:
        del faces[rng.randrange(len(faces))]
    else:
        faces.append(faces[0] if faces else [0, []])
    _set_faces(lines, k, faces)


def non_decreasing_word(rng, lines, blocks, d, k):
    faces = _faces(lines[k]) or [[0, []]]
    j = rng.randrange(max(d, 1))
    faces[rng.randrange(len(faces))][1] = rng.choice([[j, j], [j, j + 1], [j + 1]])
    _set_faces(lines, k, faces)


def dangling_id(rng, lines, blocks, d, k):
    faces = _faces(lines[k]) or [[0, []]]
    faces[rng.randrange(len(faces))][0] = rng.choice([len(blocks[max(d - 1, 0)]), 10**6, -1])
    _set_faces(lines, k, faces)


def bad_entry(rng, lines, blocks, d, k):
    faces = _faces(lines[k]) or [[0, []]]
    faces[rng.randrange(len(faces))] = rng.choice(
        [[0], 0, [[0], []], [0, [[1]]], [0, {}], ["0", []], [0, [], 0], [0, 0]])
    _set_faces(lines, k, faces)


def swapped_faces(rng, lines, blocks, d, k):
    faces = _faces(lines[k])
    if len(faces) > 1:
        i, j = rng.sample(range(len(faces)), 2)
        faces[i], faces[j] = faces[j], faces[i]
        _set_faces(lines, k, faces)


def swapped_id(rng, lines, blocks, d, k):
    other = rng.choice(blocks[d])
    (a, ta), (b, tb) = lines[k].split(" ", 1), lines[other].split(" ", 1)
    lines[k], lines[other] = f"{b} {ta}", f"{a} {tb}"
    if k == other:
        lines[k] = f"{int(a) + 1} {ta}"


LINE_CORRUPTIONS = [broken_json, wrong_face_count, bad_entry, non_decreasing_word, dangling_id,
                    swapped_faces, swapped_id]


def _blocks(lines) -> list[list[int]]:
    blocks = []
    for k, line in enumerate(lines):
        if line.startswith("dim "):
            blocks.append([])
        elif blocks:
            blocks[-1].append(k)
    return blocks


def corrupted(name: str, kind: str) -> str:
    """A seeded corruption of ``kind`` of the document of ``name``."""
    rng = random.Random(f"{name}/{kind}")
    lines = document(name).splitlines()
    blocks = _blocks(lines)
    filled = [d for d, block in enumerate(blocks) if block]
    if kind == "dropped line":
        del lines[rng.randrange(len(lines))]
    elif kind == "duplicated line":
        k = rng.randrange(len(lines))
        lines.insert(k, lines[k])
    elif kind == "out-of-order dim":
        heads = [k for k, line in enumerate(lines) if line.startswith("dim ")]
        k = rng.choice(heads)
        lines[k] = f"dim {int(lines[k].split()[1]) + rng.choice([1, 2, -1])}"
    elif kind == "bridged lines":
        # Two lines whose joined text decodes as the two original face lists,
        # while neither is valid JSON alone.
        d = max(filled, key=lambda d: len(blocks[d]))
        k, nxt = blocks[d][0], blocks[d][1] if len(blocks[d]) > 1 else blocks[d][0]
        gid, first = lines[k].split(" ", 1)
        gid2, second = lines[nxt].split(" ", 1)
        cut = rng.choice([c for c, char in enumerate(second) if char == ","] or [1])
        lines[k], lines[nxt] = f"{gid} {first},{second[:cut]}", f"{gid2} {second[cut + 1:]}"
    elif kind == "two errors":
        first, second = sorted(rng.sample(filled, 2)) if len(filled) > 1 else (filled[0], filled[0])
        for d in (second, first):
            rng.choice(LINE_CORRUPTIONS)(rng, lines, blocks, d, rng.choice(blocks[d]))
    else:
        corrupt = {f.__name__.replace("_", " "): f for f in LINE_CORRUPTIONS}[kind]
        d = rng.choice(filled)
        if kind == "broken json":       # in the middle of the block
            k = blocks[d][len(blocks[d]) // 2]
        else:
            k = rng.choice(blocks[d])
        corrupt(rng, lines, blocks, d, k)
    return "\n".join(lines) + "\n"


KINDS = ["dropped line", "duplicated line", "broken json", "swapped id", "wrong face count",
         "bad entry", "non decreasing word", "dangling id", "swapped faces", "out-of-order dim",
         "bridged lines", "two errors"]


def test_corrupted_documents_fail_as_the_reference_does():
    messages = []
    for name in NAMES:
        for kind in KINDS:
            text = corrupted(name, kind)
            got = outcome(parse_space, text)
            assert got == outcome(reference_parse_space, text), (name, kind)
            messages.append(got[1] if got[0] != "parsed" else "parsed")
    # the corpus reaches every kind of refusal, not only the first check
    for needle in ("bad face list", "ids must be dense", "dimension blocks must be consecutive",
                   "faces, wanted", "degeneracy word", "is not [base-id, word]", "dangles",
                   "validation failed", "parsed"):
        assert any(needle in m for m in messages), needle


JOINED_ONLY = {
    "strings": 'sset v1\ndim 0\n0 []\ndim 1\n0 ["]"],[1\n1 "[",2]\n',
    "two lists": "sset v1\ndim 0\n0 []\ndim 1\n0 [[0,[]],[0,[]]],[[0,[]],[0,[]]]\n",
}


@pytest.mark.parametrize("case", ["bridged", "strings", "two lists"])
def test_lines_that_decode_only_when_joined_are_refused(case):
    """Text that is valid JSON only across a line break (brackets split
    between lines, or inside strings), or two values on one line: a block
    is decoded in one piece, but each line must still be one value."""
    doc = corrupted("torus*rp2", "bridged lines") if case == "bridged" else JOINED_ONLY[case]
    with pytest.raises(SpaceDocumentError, match="bad face list: Extra data") as err:
        parse_space(doc)
    assert (str(err.value), err.value.line) == outcome(reference_parse_space, doc)[1:]


@pytest.mark.parametrize("doc, line", [
    ("sset v1\ndim 0\n0 []\n1 []\ndim 1\n0 [[true,[]],[0,[]]]\n", 6),
    ("sset v1\ndim 0\n0 []\ndim 1\n0 [[0,[]],[0,[]]]\ndim 2\n0 [[0,[false]],[0,[0]],[0,[0]]]\n", 7),
    ("sset v1\ndim 0\n0 []\ndim 1\n0 [[0,[]],[0,[]]]\ndim 2\n0 [[0,[0]],[0,[0.0]],[0,[0]]]\n", 7),
], ids=["true id", "false letter", "float letter"])
def test_booleans_and_floats_are_not_ints(doc, line):
    """The reference takes true for 1 (``bool`` is an ``int``); the parser
    refuses it as an id and as a word letter, as it refuses 0.0."""
    with pytest.raises(SpaceDocumentError, match=r"is not \[base-id, word\]") as err:
        parse_space(doc)
    assert err.value.line == line


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(NAMES), st.randoms(use_true_random=False))
def test_print_parse_round_trip(name, rng):
    doc = document(name)
    space = parse_space(doc)
    assert print_space(space) == doc
    # the same space spelled with blank lines, comments and JSON whitespace
    lines = []
    for line in doc.splitlines():
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "   ", "# a comment", "  # [not, json"]))
        if line[:1].isdigit() and rng.random() < 0.3:
            gid, faces = line.split(" ", 1)
            line = f"{gid}\t {faces.replace(',', rng.choice([', ', ' ,', ',']))} "
        lines.append(line)
    assert print_space(parse_space("\n".join(lines))) == doc
