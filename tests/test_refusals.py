"""Refusals that no other test reaches: each input ends in exit 2 with one
``error:`` line, or in its ``ValueError``, in process."""

import json

import pytest

from simphom.catalog import catalog
from simphom.cli import run
from simphom.io import parse_group
from simphom.kan import fibration_check
from simphom.sset import std_simplex

from conftest import constant_map

DOCUMENTS = {
    "late_name.sset": "sset v1\ndim 0\n0 []\nname late\n",
    "bad_dim.sset": "sset v1\ndim zero\n",
    "dict_faces.sset": "sset v1\ndim 0\n0 {}\n",
    "v2.group": "group v2\nelements e\ntable\ne\n",
    "short_row.group": "group v1\nelements e a\ntable\ne a\na\n",
    "one_row.group": "group v1\nelements e a\ntable\ne a\n",
}

CLI_CASES = [
    (["homology", "--file", "late_name.sset"], "line 4: name must precede the dimension blocks"),
    (["homology", "--file", "bad_dim.sset"], "line 2: dim needs an integer argument"),
    (["homology", "--file", "dict_faces.sset"], "line 3: face list must be a list"),
    (["cover", "--space", "circle", "--group", "v2.group"], "bad or missing group header"),
    (["cover", "--space", "circle", "--group", "short_row.group"], "table row has the wrong length"),
    (["cover", "--space", "circle", "--group", "one_row.group"], "table has the wrong number of rows"),
    (["homology"], "need --space NAME or --file PATH"),
    (["les", "--space", "rp2", "--sub", "half"],
     "bad subcomplex spec 'half' (use skeleton:N or gens:D.I,...)"),
    (["mv", "--space", "rp2", "--a", "skeleton:1"], "mv needs --a and --b subcomplex specs"),
    (["kunneth", "--space", "rp2"], "kunneth needs --with NAME"),
    (["fill", "--space", "rp2", "--dim", "2", "--k", "0", "--faces", json.dumps([[[0, 0], []]])],
     "need 2 faces for a (2,0) horn"),
    (["cover", "--space", "circle", "--group", "trivial"], "cover needs --images for non-cyclic groups"),
    (["cover", "--space", "circle", "--group", "cyclic:2", "--images", "e0=h"], "no element named 'h'"),
    (["subdivide"], "subdivide needs --space with an ordered-complex model"),
    # A case is named by its first three words, so the option that sets it
    # apart comes first where the command and space would repeat a name.
    (["les", "--sub", "skeleton:x", "--space", "rp2"],
     "bad subcomplex spec 'skeleton:x' (use skeleton:N or gens:D.I,...)"),
    (["les", "--sub", "gens:1", "--space", "rp2"], "bad subcomplex spec 'gens:1' (use skeleton:N or gens:D.I,...)"),
    (["les", "--sub", "gens:1.x", "--space", "rp2"],
     "bad subcomplex spec 'gens:1.x' (use skeleton:N or gens:D.I,...)"),
    (["mv", "--a", "gens:1", "--b", "skeleton:1", "--space", "rp2"],
     "bad subcomplex spec 'gens:1' (use skeleton:N or gens:D.I,...)"),
    (["mv", "--b", "skeleton:x", "--a", "skeleton:1", "--space", "rp2"],
     "bad subcomplex spec 'skeleton:x' (use skeleton:N or gens:D.I,...)"),
    (["cover", "--group", "cyclic:x", "--space", "rp2"], "bad group spec 'cyclic:x' (use cyclic:N or a table file)"),
    (["cover", "--images", "e5", "--space", "rp2", "--group", "cyclic:2"],
     "bad image item 'e5' (use GEN=ELEMENT,...)"),
    (["cover", "--images", "e5=", "--space", "rp2", "--group", "cyclic:2"],
     "bad image item 'e5=' (use GEN=ELEMENT,...)"),
    # e11 twice: the first image, g, breaks the relator e9 e13 e11^-1 and the
    # second, e, keeps it; neither is taken
    (["cover", "--images", "e11=g,e5=e,e6=e,e7=e,e8=e,e9=e,e10=e,e12=e,e13=e,e14=e,e11=e", "--space", "rp2",
      "--group", "cyclic:2"], "bad image item 'e11=e' (e11 has an image already)"),
    (["kan", "--space", "rp2", "--dim", "0"], "up_to_dim must be >= 1"),
    (["coeffs", "--coeff", "Z/1", "--space", "rp2"], "bad torsion order 1"),
    (["coeffs", "--coeff", "Q", "--space", "rp2"], "cannot parse group term 'Q'"),
    (["cover", "--group", "cyclic:0", "--space", "rp2"], "cyclic group order must be >= 1"),
    (["pi1", "--space", "discrete:0"], "empty space has no fundamental group"),
    (["homology", "--space", "rp2", "--dim", "100000"],
     "--dim 100000 would have 100001 degrees, over the budget of 100000"),
    (["uct", "--dim", "100000", "--space", "rp2", "--coeff", "Z/2"],
     "--dim 100000 would have 100001 degrees, over the budget of 100000"),
    (["fill", "--faces", "[[[0,0],[]],[[1,0],[]]]", "--space", "rp2", "--dim", "2", "--k", "0"],
     "face 1 missing or of wrong dimension"),
    (["fill", "--faces", "[[[0,0],[1]],[[1,0],[]]]", "--space", "rp2", "--dim", "2", "--k", "0"],
     "face 1 has a non-canonical degeneracy word"),
    # An option the command does not read, --seed, which no command reads,
    # and an abbreviation are refused as arguments.
    (["homology", "--coeff", "Z/0", "--space", "rp2"], "unrecognized arguments: --coeff Z/0"),
    (["euler", "--space", "rp2", "--dim", "2"], "unrecognized arguments: --dim 2"),
    (["subdivide", "--space", "rp2", "--file", "x.sset"], "unrecognized arguments: --file x.sset"),
    (["homology", "--seed", "1", "--space", "rp2"], "unrecognized arguments: --seed 1"),
    (["homology", "--sp", "rp2"], "unrecognized arguments: --sp rp2"),
    # Options come after the command.
    (["--space", "rp2", "homology"], "option --space comes before the command; options follow the command"),
    # sphere:n is refused as Delta[n] is, though Delta[n] is not built.
    (["homology", "--space", "sphere:-1"], "n must be >= 0"),
    (["homology", "--space", "sphere:16"],
     "Delta[16] would have at least 109293 non-degenerate simplices, over the budget of 100000"),
    (["homology", "--space", "sphere:x"], "bad numeric argument in space name 'sphere:x'"),
    (["homology", "--space", "delta:17"],
     "Delta[17] would have at least 106761 non-degenerate simplices, over the budget of 100000"),
]


@pytest.mark.parametrize("argv, message", CLI_CASES, ids=[" ".join(argv[:3]) for argv, _ in CLI_CASES])
def test_refusal_is_one_error_line(tmp_path, monkeypatch, argv, message):
    for name, text in DOCUMENTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == ([f"error: {message}"], 2)


@pytest.mark.parametrize("elements, table, message", [
    ("a b", "a a\na a", "no identity element"),
    ("e a b", "e a b\na e e\nb e e", r"not associative at \(a,a,b\)"),
])
def test_group_table_without_the_group_laws_is_refused(elements, table, message):
    with pytest.raises(ValueError, match=message):
        parse_group(f"group v1\nelements {elements}\ntable\n{table}\n")


def test_a_map_that_is_not_a_fibration_reports_each_failed_lift():
    """The interval is not Kan, so its map to the point is not a fibration:
    the report fails and names each relative horn without a lift."""
    report = fibration_check(constant_map(std_simplex(1), catalog("point"), 0), 2)
    assert not report.passed and len(report.failures) == 2
    assert report.lines() == [f"FAIL 2 relative horn problem(s) of {report.problems_checked}"] + [
        f"  horn (2,{p.horn.k}) over base simplex {p.base_simplex}: 0 solution(s)" for p in report.failures]
    assert len(report.lines(require_unique=True)) == 1 + 2 + len(report.non_unique)
