"""The interchange formats: space documents and group tables."""

from pathlib import Path

import pytest

from simphom import io
from simphom.catalog import catalog
from simphom.cli import run
from simphom.covers import FiniteGroup
from simphom.io import (
    SpaceDocumentError,
    parse_group,
    parse_space,
    print_space,
)
from simphom.sset import is_valid
from test_parse_differential import KINDS, NAMES, corrupted, document, outcome, reference_parse_space

CONFORMANCE = Path(__file__).parent / "conformance"


def test_parse_interval_document():
    doc = (CONFORMANCE / "valid_interval.sset").read_text()
    space = parse_space(doc)
    assert space.counts() == (2, 1)
    assert space.name == "interval"
    assert is_valid(space).ok


def test_round_trip_on_catalog():
    for name in ("point", "circle", "torus", "rp2", "klein", "sphere:2",
                 "delta:3", "boundary:3", "horn:3:1", "discrete:2"):
        space = catalog(name)
        doc = print_space(space)
        space2 = parse_space(doc)
        assert print_space(space2) == doc
        assert space2.counts() == space.counts()
        for d in range(space.top_dim + 1):
            for g, h in zip(space2.gens(d), space.gens(d)):
                assert g.faces == h.faces


def test_parse_is_idempotent_on_conformance_corpus():
    for path in sorted(CONFORMANCE.glob("valid_*.sset")):
        space = parse_space(path.read_text())
        doc = print_space(space)
        assert print_space(parse_space(doc)) == doc, path.name


def test_invalid_documents_rejected():
    expectations = {
        "invalid_header.sset": "header",
        "invalid_dangling.sset": "dangle",
        "invalid_word.sset": "decreasing",
        "invalid_face_count.sset": "faces",
        "invalid_identity.sset": "identity",
        "invalid_sparse_ids.sset": "dense",
        "invalid_json.sset": "face list",
        "invalid_bool_id.sset": "[True, []] is not [base-id, word]",
    }
    for name, needle in expectations.items():
        text = (CONFORMANCE / name).read_text()
        with pytest.raises(SpaceDocumentError) as err:
            parse_space(text)
        assert needle in str(err.value), (name, str(err.value))


def test_dangling_error_names_the_id():
    text = (CONFORMANCE / "invalid_dangling.sset").read_text()
    with pytest.raises(SpaceDocumentError) as err:
        parse_space(text)
    assert "(0,3)" in str(err.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(SpaceDocumentError) as err:
        parse_space("sset v1\ndim 0\nnonsense []\n")
    assert err.value.line == 3


def test_deeply_nested_face_list_is_refused_on_its_line(tmp_path):
    """A face list nested past the JSON decoder's recursion limit is a bad
    face list on its line, not a RecursionError: exit 2 with one line."""
    doc = "sset v1\ndim 0\n0 []\ndim 1\n0 " + "[" * 100_000 + "]" * 100_000 + "\n"
    with pytest.raises(SpaceDocumentError, match="nested too deeply") as err:
        parse_space(doc)
    assert err.value.line == 5
    path = tmp_path / "deep.sset"
    path.write_text(doc)
    lines, status = run(["validate", "--file", str(path)])
    assert status == 2 and lines == ["error: line 5: bad face list: nested too deeply"]


def test_nesting_past_the_bound_gives_one_message_at_any_stack_depth(tmp_path):
    """A face list 900 deep decodes or not with the caller's stack depth;
    either way it is refused as nested too deeply, at top level and under
    300 extra frames."""
    doc = "sset v1\ndim 0\n0 []\ndim 1\n0 " + "[" * 900 + "]" * 900 + "\n"
    with pytest.raises(SpaceDocumentError, match="nested too deeply") as err:
        parse_space(doc)
    path = tmp_path / "deep.sset"
    path.write_text(doc)

    def framed(k):
        return framed(k - 1) if k else run(["validate", "--file", str(path)])

    assert framed(300) == ([f"error: {err.value}"], 2)


@pytest.mark.parametrize("lines", [1, 3])
def test_documents_decoded_a_few_lines_at_a_time_fail_as_the_reference_does(monkeypatch, lines):
    """With blocks decoded ``lines`` face lists at a time, no decode holds
    more, and every document of the differential corpus ends as the
    reference's does: a decode error in any block first, then the
    line-pass error, then the first entry error, with its generator id."""
    decode, sizes = io._decode, []
    monkeypatch.setattr(io, "DECODE_LINES", lines)
    monkeypatch.setattr(io, "_decode", lambda texts, linenos: sizes.append(len(texts)) or decode(texts, linenos))
    for name in NAMES:
        assert print_space(parse_space(document(name))) == document(name)
        for kind in KINDS:
            text = corrupted(name, kind)
            assert outcome(parse_space, text) == outcome(reference_parse_space, text), (name, kind)
    assert max(sizes) == lines


def test_group_round_trip():
    z3 = FiniteGroup.cyclic(3)
    back = parse_group("# Z/3\ngroup v1\nelements e g g2\ntable\ne g g2\ng g2 e\ng2 e g\n")
    assert back.names == z3.names
    assert back.table == z3.table
    with pytest.raises(ValueError):
        parse_group("group v1\nelements a a\ntable\na a\na a\n")


def test_truncated_or_unknown_group_tables_are_refused():
    with pytest.raises(ValueError, match="missing elements line"):
        parse_group("group v1\n")
    with pytest.raises(ValueError, match="missing table line"):
        parse_group("group v1\nelements e a\n")
    with pytest.raises(ValueError, match="'x' names no element"):
        parse_group("group v1\nelements e a\ntable\ne a\na x\n")
    with pytest.raises(ValueError, match="1 lines follow the 1 table rows"):
        parse_group("group v1\nelements e\ntable\ne\nthis line is not part of any table\n")
