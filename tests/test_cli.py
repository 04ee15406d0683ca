"""The command-line surface: outputs, determinism, exit codes."""

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from simphom import budget, cli
from simphom.catalog import catalog
from simphom.cli import main, run
from simphom.io import print_space
import simphom.sset as sset
from simphom.sset import is_valid, product, subcomplex


def out_of(argv):
    lines, status = run(argv)
    return "\n".join(lines), status


def test_homology_machine_format():
    text, status = out_of(["homology", "--space", "rp2", "--dim", "2",
                           "--format", "machine"])
    assert status == 0
    assert "H_0=Z" in text and "H_1=Z/2" in text and "H_2=0" in text


def test_homology_beyond_top_dimension():
    text, status = out_of(["homology", "--space", "rp2", "--dim", "4"])
    assert status == 0
    assert text.splitlines()[1:] == ["H_0 = Z", "H_1 = Z/2", "H_2 = 0", "H_3 = 0", "H_4 = 0"]


def test_homology_of_rp2_times_boundary3_matches_kunneth(tmp_path):
    doc = tmp_path / "rp2xbd3.sset"
    doc.write_text(print_space(product(catalog("rp2"), catalog("boundary:3")).space))
    text, status = out_of(["homology", "--file", str(doc)])
    assert status == 0
    assert text.splitlines()[1:] == ["H_0 = Z", "H_1 = Z/2", "H_2 = Z", "H_3 = Z/2", "H_4 = 0"]


def test_uct_of_torus_times_rp2_mod_2_passes(tmp_path):
    doc = tmp_path / "torusxrp2.sset"
    doc.write_text(print_space(product(catalog("torus"), catalog("rp2")).space))
    text, status = out_of(["uct", "--file", str(doc), "--coeff", "Z/2"])
    assert status == 0
    lines = text.splitlines()
    assert lines[-1] == "RESULT PASS" and len(lines) == 12
    assert all(line.startswith("PASS ") for line in lines[1:-1])
    assert lines[3] == "PASS H_2: direct Z/2 + Z/2 + Z/2 + Z/2 vs tensor/Tor Z/2 + Z/2 + Z/2 + Z/2"


def test_certificate_failure_exits_3(monkeypatch, capsys):
    def fail(m, steps, residue):
        raise AssertionError("forced mismatch")

    monkeypatch.setattr("simphom.snf._check_elimination", fail)
    assert main(["homology", "--space", "rp2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "error: certificate failed: forced mismatch\n"
    assert "Traceback" not in captured.err


def test_snf_certificate_failure_exits_3(monkeypatch):
    """A residue SNF whose recorded operations do not reproduce S fails
    the replay certificate: one error line, exit 3."""
    snf = sys.modules["simphom.snf"]
    verify = snf._verify

    def corrupted(m, res):
        res.divisors[-1] += 1
        verify(m, res)

    monkeypatch.setattr(snf, "_verify", corrupted)
    assert run(["homology", "--space", "rp2"]) == (
        ["error: certificate failed: SNF postcondition failed: U*M*V != S"], 3)


def test_euler_boundary3():
    text, status = out_of(["euler", "--space", "boundary:3"])
    assert status == 0
    assert "chi = 2" in text


def test_kan_interval_fails_with_witness():
    text, status = out_of(["kan", "--space", "delta:1", "--dim", "2"])
    assert status == 1
    assert "FAIL" in text
    assert "(2,0)" in text and "s0 0" in text


def test_kan_discrete_passes():
    text, status = out_of(["kan", "--space", "discrete:2", "--dim", "3"])
    assert status == 0
    assert "PASS" in text


def test_reports_are_byte_identical():
    argv = ["les", "--space", "delta:2", "--sub", "skeleton:1"]
    first = out_of(argv)
    second = out_of(argv)
    assert first == second
    argv = ["cover", "--space", "rp2", "--group", "cyclic:2"]
    assert out_of(argv) == out_of(argv)


def test_les_and_mv_commands():
    text, status = out_of(["les", "--space", "delta:3", "--sub", "skeleton:2"])
    assert status == 0 and "RESULT PASS" in text
    text, status = out_of(["mv", "--space", "boundary:2",
                           "--a", "gens:1.0,1.1", "--b", "gens:1.2"])
    assert status == 0 and "H_1(K) = Z" in text


def test_truncated_les_and_mv_pass():
    text, status = out_of(["les", "--space", "torus", "--sub", "skeleton:1", "--dim", "1"])
    assert status == 0 and "FAIL" not in text
    text, status = out_of(["mv", "--space", "torus", "--a", "gens:2.0", "--b", "gens:2.1",
                           "--dim", "1"])
    assert status == 0 and "FAIL" not in text
    for dim in ("-1", "-2"):
        text, status = out_of(["les", "--space", "rp2", "--sub", "skeleton:1", "--dim", dim])
        assert (text, status) == ("error: --dim must be >= 0", 2)


LES_RP2_SKELETON1 = """\
simphom les
PASS exact at H_2(L) [0]
PASS exact at H_2(K) [0]
PASS exact at H_2(K,L) [Z^10]
PASS exact at H_1(L) [Z^10]
PASS exact at H_1(K) [Z/2]
PASS exact at H_1(K,L) [0]
PASS exact at H_0(L) [Z]
PASS exact at H_0(K) [Z]
PASS exact at H_0(K,L) [0]
H_0(K) = Z
H_0(K,L) = 0
H_0(L) = Z
H_1(K) = Z/2
H_1(K,L) = 0
H_1(L) = Z^10
H_2(K) = 0
H_2(K,L) = Z^10
H_2(L) = 0
RESULT PASS"""

MV_TORUS_TWO_TRIANGLES = """\
simphom mv
PASS exact at H_2(AnB) [0]
PASS exact at H_2(A)+H_2(B) [0]
PASS exact at H_2(K) [Z]
PASS exact at H_1(AnB) [Z^3]
PASS exact at H_1(A)+H_1(B) [Z^4]
PASS exact at H_1(K) [Z^2]
PASS exact at H_0(AnB) [Z]
PASS exact at H_0(A)+H_0(B) [Z^2]
PASS exact at H_0(K) [Z]
H_0(A)+H_0(B) = Z^2
H_0(AnB) = Z
H_0(K) = Z
H_1(A)+H_1(B) = Z^4
H_1(AnB) = Z^3
H_1(K) = Z^2
H_2(A)+H_2(B) = 0
H_2(AnB) = 0
H_2(K) = Z
RESULT PASS"""


KAN_TORUS_DIM3 = """\
simphom kan
FAIL 21 unfillable horn(s) of 114 checked
  horn (2,0): d1=s0 (*|*), d2=(s0 *|01)
  horn (2,0): d1=s0 (*|*), d2=(01|s0 *)
  horn (2,0): d1=s0 (*|*), d2=(01|01)
  horn (2,0): d1=(s0 *|01), d2=(01|s0 *)
  horn (2,0): d1=(s0 *|01), d2=(01|01)
  horn (2,0): d1=(01|s0 *), d2=(s0 *|01)
  horn (2,0): d1=(01|s0 *), d2=(01|01)
  horn (2,1): d0=(s0 *|01), d2=(s0 *|01)
  horn (2,1): d0=(s0 *|01), d2=(01|01)
  horn (2,1): d0=(01|s0 *), d2=(01|s0 *)
  horn (2,1): d0=(01|s0 *), d2=(01|01)
  horn (2,1): d0=(01|01), d2=(s0 *|01)
  horn (2,1): d0=(01|01), d2=(01|s0 *)
  horn (2,1): d0=(01|01), d2=(01|01)
  horn (2,2): d0=(s0 *|01), d1=s0 (*|*)
  horn (2,2): d0=(s0 *|01), d1=(01|s0 *)
  horn (2,2): d0=(01|s0 *), d1=s0 (*|*)
  horn (2,2): d0=(01|s0 *), d1=(s0 *|01)
  horn (2,2): d0=(01|01), d1=s0 (*|*)
  horn (2,2): d0=(01|01), d1=(s0 *|01)
  horn (2,2): d0=(01|01), d1=(01|s0 *)
RESULT FAIL"""

COVER_RP2_CYCLIC2 = """\
simphom cover
cover counts (12, 30, 20)
cover chi 2
H_0(cover) = Z
H_1(cover) = 0
H_2(cover) = Z
PASS every base generator has exactly 2 preimages
PASS chi multiplies: 2 = 2 * 1
PASS unique lifts for all 360 relative horn problems through dimension 2
RESULT PASS"""

FILL_RP2_EDGE_FROM_VERTEX = """\
simphom fill
fillers 6
  s0 1
  12
  13
  14
  15
  16"""


def test_kan_cover_and_fill_full_reports():
    # copied from the scan-based engine: pins the horn and filler order
    assert out_of(["kan", "--space", "torus", "--dim", "3"]) == (KAN_TORUS_DIM3, 1)
    assert out_of(["cover", "--space", "rp2", "--group", "cyclic:2"]) == (COVER_RP2_CYCLIC2, 0)
    assert out_of(["fill", "--space", "rp2", "--dim", "1", "--k", "0",
                   "--faces", "[[[0,0],[]]]"]) == (FILL_RP2_EDGE_FROM_VERTEX, 0)


def test_les_and_mv_full_reports():
    assert out_of(["les", "--space", "rp2", "--sub", "skeleton:1"]) == (LES_RP2_SKELETON1, 0)
    assert out_of(["mv", "--space", "torus", "--a", "gens:2.0", "--b", "gens:2.1"]) == (
        MV_TORUS_TWO_TRIANGLES, 0)


def test_homology_of_sphere0_is_two_points():
    text, status = out_of(["homology", "--space", "sphere:0"])
    assert status == 0
    assert text.splitlines()[1:] == ["H_0 = Z^2"]


def test_coefficients_with_a_large_prime_order():
    p = 2 ** 127 - 1
    text, status = out_of(["coeffs", "--space", "rp2", "--coeff", f"Z/{p}"])
    assert status == 0
    assert text.splitlines()[1:] == [f"H_0 = Z/{p}", "H_1 = 0", "H_2 = 0"]


def test_cover_command():
    text, status = out_of(["cover", "--space", "circle", "--group", "cyclic:2"])
    assert status == 0
    assert "cover counts (2, 2)" in text


def test_cover_with_explicit_images():
    text, status = out_of(["cover", "--space", "circle", "--group", "cyclic:2",
                           "--images", "e0=g"])
    assert status == 0


def test_cup_kunneth_uct_coeffs():
    text, status = out_of(["cup", "--space", "rp2", "--coeff", "Z/2"])
    assert status == 0 and "H^1 = Z/2" in text
    text, status = out_of(["kunneth", "--space", "circle", "--with", "circle"])
    assert status == 0 and "RESULT PASS" in text
    text, status = out_of(["uct", "--space", "klein", "--coeff", "Z/4"])
    assert status == 0
    text, status = out_of(["coeffs", "--space", "rp2", "--coeff", "Z/2"])
    assert status == 0 and "H_2 = Z/2" in text
    text, status = out_of(["cohomology", "--space", "rp2", "--coeff", "Z"])
    assert status == 0 and "H^2 = Z/2" in text


def test_coefficient_outputs_are_pinned():
    """Full stdout of a UCT check with mixed coefficients, and of Z/4
    cohomology read above the top degree."""
    text, status = out_of(["uct", "--space", "klein", "--coeff", "Z^2+Z/4"])
    assert status == 0
    assert text.splitlines() == [
        "simphom uct",
        "PASS H_0: direct Z^2 + Z/4 vs tensor/Tor Z^2 + Z/4",
        "PASS H_1: direct Z^2 + Z/2 + Z/2 + Z/2 + Z/4 vs tensor/Tor Z^2 + Z/2 + Z/2 + Z/2 + Z/4",
        "PASS H_2: direct Z/2 vs tensor/Tor Z/2",
        "PASS H^0: direct Z^2 + Z/4 vs Hom/Ext Z^2 + Z/4",
        "PASS H^1: direct Z^2 + Z/2 + Z/4 vs Hom/Ext Z^2 + Z/2 + Z/4",
        "PASS H^2: direct Z/2 + Z/2 + Z/2 vs Hom/Ext Z/2 + Z/2 + Z/2",
        "RESULT PASS",
    ]
    text, status = out_of(["cohomology", "--space", "rp2", "--coeff", "Z/4", "--dim", "4",
                           "--format", "machine"])
    assert status == 0
    assert text.splitlines() == [
        'command="cohomology"', "H^0=Z/4", "H^1=Z/2", "H^2=Z/2", "H^3=0", "H^4=0"]


def test_fill_command():
    faces = json.dumps([[[0, 0], [0]], [[1, 0], []]])
    text, status = out_of(["fill", "--space", "delta:1", "--dim", "2",
                           "--k", "0", "--faces", faces])
    assert status == 0
    assert "fillers 0" in text


def test_pi1_and_validate_and_subdivide():
    text, status = out_of(["pi1", "--space", "torus"])
    assert status == 0 and "abelianization Z^2" in text
    text, status = out_of(["validate", "--space", "klein"])
    assert status == 0 and "PASS" in text
    text, status = out_of(["subdivide", "--space", "delta:2"])
    assert status == 0 and "(7, 12, 6)" in text


def test_catalog_list_and_print(tmp_path):
    text, status = out_of(["catalog-list"])
    assert status == 0 and "circle" in text
    text, status = out_of(["print", "--space", "circle"])
    assert status == 0 and "sset v1" in text
    # documents written to disk load through --file
    doc = tmp_path / "c.sset"
    doc.write_text(text.split("simphom print\n")[-1] + "\n")
    text2, status = out_of(["homology", "--file", str(doc)])
    assert status == 0 and "H_1 = Z" in text2


def test_error_paths(tmp_path):
    text, status = out_of(["homology", "--space", "nowhere"])
    assert status == 2 and "error" in text
    square = tmp_path / "rp2xrp2.sset"
    square.write_text(print_space(product(catalog("rp2"), catalog("rp2")).space))
    assert out_of(["kunneth", "--file", str(square), "--with", "rp2"]) == (
        "error: the product rp2xrp2xrp2 would have 1182091 non-degenerate simplices, "
        "over the budget of 100000", 2)
    text, status = out_of(["les", "--space", "delta:2"])
    assert status == 2
    text, status = out_of(["cup", "--space", "torus", "--coeff", "Z^2"])
    assert status == 2
    text, status = out_of(["fill", "--space", "delta:1"])
    assert status == 2
    for argv in (["homology", "--space", "rp2", "--dim", "-1"],
                 ["cohomology", "--space", "rp2", "--dim", "-1"],
                 ["kan", "--space", "circle", "--dim", "-3"],
                 ["mv", "--space", "torus", "--a", "gens:2.0", "--b", "gens:2.1", "--dim", "-1"]):
        assert out_of(argv) == ("error: --dim must be >= 0", 2)
    assert out_of(["les", "--space", "rp2", "--sub", "skeleton:-1"]) == (
        "error: skeleton:N needs N >= 0", 2)
    cover = ["cover", "--group", "cyclic:2", "--images"]
    assert out_of(cover + ["e5=g", "--space", "circle"]) == (
        "error: e5 is not a presentation generator", 2)
    assert out_of(cover + ["e0=g", "--space", "torus"]) == ("error: no image for generator e1", 2)
    for doc, reason in (("group v1\n", "missing elements line"),
                        ("group v1\nelements e a\ntable\ne a\na x\n", "table entry 'x' names no element"),
                        ("group v1\nelements e\ntable\ne\ne\n", "1 lines follow the 1 table rows")):
        table = tmp_path / "group.txt"
        table.write_text(doc)
        assert out_of(["cover", "--space", "circle", "--group", str(table)]) == (f"error: {reason}", 2)
    fill = ["fill", "--space", "rp2", "--faces", "[[[0,0],[]]]"]
    assert out_of(fill + ["--dim", "1", "--k", "2"]) == ("error: horn index out of range", 2)
    assert out_of(fill + ["--dim", "0", "--k", "0"]) == ("error: horns need n >= 1", 2)


def test_runs_share_no_options(capsys):
    """One argument parser serves every run: the options of one call do not
    carry over into the next, and bad arguments exit 2 with argparse's
    reason as the one error line, with no usage text."""
    assert out_of(["homology", "--space", "rp2", "--dim", "1"])[0].splitlines()[1:] == [
        "H_0 = Z", "H_1 = Z/2"]
    assert out_of(["homology", "--space", "rp2"])[0].splitlines()[1:] == [
        "H_0 = Z", "H_1 = Z/2", "H_2 = 0"]
    assert out_of(["homology", "--space", "circle", "--format", "machine"]) == (
        'command="homology"\nH_0=Z\nH_1=Z', 0)
    assert out_of(["homology", "--space", "circle"]) == ("simphom homology\nH_0 = Z\nH_1 = Z", 0)
    capsys.readouterr()
    for argv, reason in ((["nosuch"], "argument command: invalid choice: 'nosuch'"),
                         (["homology", "--dim", "x"], "argument --dim: invalid int value: 'x'"),
                         (["homology", "--format", "json"], "argument --format: invalid choice"),
                         ([], "the following arguments are required: command")):
        lines, status = run(argv)
        assert status == 2 and len(lines) == 1 and lines[0].startswith(f"error: {reason}"), argv
    assert capsys.readouterr().err == ""
    assert out_of(["euler", "--space", "torus"]) == out_of(["euler", "--space", "torus"])


# One value per option: every command runs on boundary:2, which has an
# ordered-complex model for subdivide, and --file is given empty, so that
# its handler reads it and goes on to --space.
VALUES = {"--space": "boundary:2", "--file": "", "--dim": "1", "--coeff": "Z/2", "--group": "cyclic:2",
          "--base": "0", "--sub": "skeleton:0", "--a": "skeleton:0", "--b": "skeleton:1",
          "--with": "boundary:2", "--k": "0", "--faces": "[[[0,0],[]]]", "--images": "e2=g",
          "--format": "machine"}


def _takes(name: str) -> dict[str, str]:
    """The options of ``cli.OPTIONS`` that ``name`` takes, with their dests."""
    return {flag: settings.get("dest", flag[2:])
            for flag, readers, settings in cli.OPTIONS if name in readers.split()}


def test_the_option_table_counts():
    assert list(VALUES) == [flag for flag, _, _ in cli.OPTIONS]
    assert len(cli.OPTIONS) == 14
    assert sum(len(_takes(name)) for name in cli.COMMANDS) == 72


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_each_command_reads_every_option_it_takes(name):
    """The handler, given every option of its row, reads each of them and
    nothing else; ``run`` reads --format for every command."""
    reads = set()

    class Recorded(argparse.Namespace):
        def __getattribute__(self, attr):
            reads.add(attr)
            return super().__getattribute__(attr)

    takes = _takes(name)
    argv = [name] + [word for flag in takes for word in (flag, VALUES[flag])]
    cli.COMMANDS[name](Recorded(**vars(cli.PARSER.parse_args(argv))))
    assert reads | {"format"} == set(takes.values())


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_each_command_refuses_every_option_it_does_not_take(name):
    for flag in VALUES.keys() - _takes(name).keys():
        assert run([name, flag, VALUES[flag]]) == (
            [f"error: unrecognized arguments: {flag} {VALUES[flag]}"], 2)


def test_every_workload_argv_parses(tmp_path):
    """The benchmark's jobs, over seeds 1 to 39, give each command only the
    options it takes."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    mods = {name.rsplit(".", 1)[-1]: module for name, module in sys.modules.items()
            if name.startswith("simphom.")}
    inputs = workloads.Inputs(mods, str(tmp_path))
    argvs = {tuple(job.argv) for workload in workloads.WORKLOADS for seed in range(1, 40)
             for job in workloads.build(workload, seed, inputs)}
    for argv in argvs:
        cli.PARSER.parse_args(list(argv))


def test_fill_counts_the_faces_before_it_builds_the_horn():
    """A horn of a huge dimension with too few faces is refused before any
    list of that length is built."""
    tracemalloc.start()
    try:
        result = run(["fill", "--space", "rp2", "--dim", "1000000", "--k", "0", "--faces", "[]"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (["error: need 1000000 faces for a (1000000,0) horn"], 2)
    assert peak < 1 << 20


def test_validate_checks_a_space_once(monkeypatch, tmp_path):
    """validate runs is_valid once per space: inside parse_space for a
    document, in the command for a catalog space, the shipped klein
    document included.  An invalid document is refused by parse_space
    with exit 2."""
    calls = []

    def counted(space):
        calls.append(space)
        return is_valid(space)

    for module in ("simphom.io", "simphom.cli"):
        monkeypatch.setattr(f"{module}.is_valid", counted)
    doc = tmp_path / "torusxrp2.sset"
    doc.write_text(print_space(product(catalog("torus"), catalog("rp2")).space))
    for argv in (["validate", "--file", str(doc)], ["validate", "--space", "rp2"],
                 ["validate", "--space", "klein"]):
        calls.clear()
        text, status = out_of(argv)
        assert status == 0 and text.splitlines()[-1] == "RESULT PASS"
        assert len(calls) == 1
    bad = tmp_path / "bad.sset"
    bad.write_text(print_space(catalog("delta:2")).replace(
        "0 [[2,[]],[1,[]],[0,[]]]", "0 [[1,[]],[2,[]],[0,[]]]"))
    calls.clear()
    text, status = out_of(["validate", "--file", str(bad)])
    assert status == 2 and text.startswith("error: validation failed: simplicial identity fails")
    assert len(calls) == 1


# Full stdout of the parent code on circle x RP^2, copied byte for byte.
CIRCLE_X_RP2_STDOUT = {
    "les": """\
simphom les
PASS exact at H_3(L) [0]
PASS exact at H_3(K) [0]
PASS exact at H_3(K,L) [Z^30]
PASS exact at H_2(L) [Z^30]
PASS exact at H_2(K) [Z/2]
PASS exact at H_2(K,L) [0]
PASS exact at H_1(L) [Z + Z/2]
PASS exact at H_1(K) [Z + Z/2]
PASS exact at H_1(K,L) [0]
PASS exact at H_0(L) [Z]
PASS exact at H_0(K) [Z]
PASS exact at H_0(K,L) [0]
H_0(K) = Z
H_0(K,L) = 0
H_0(L) = Z
H_1(K) = Z + Z/2
H_1(K,L) = 0
H_1(L) = Z + Z/2
H_2(K) = Z/2
H_2(K,L) = 0
H_2(L) = Z^30
H_3(K) = 0
H_3(K,L) = Z^30
H_3(L) = 0
RESULT PASS
""",
    "mv": """\
simphom mv
PASS exact at H_3(AnB) [0]
PASS exact at H_3(A)+H_3(B) [0]
PASS exact at H_3(K) [0]
PASS exact at H_2(AnB) [Z^2]
PASS exact at H_2(A)+H_2(B) [Z^2]
PASS exact at H_2(K) [Z/2]
PASS exact at H_1(AnB) [Z^2 + Z/2]
PASS exact at H_1(A)+H_1(B) [Z^3 + Z/2 + Z/2]
PASS exact at H_1(K) [Z + Z/2]
PASS exact at H_0(AnB) [Z]
PASS exact at H_0(A)+H_0(B) [Z^2]
PASS exact at H_0(K) [Z]
H_0(A)+H_0(B) = Z^2
H_0(AnB) = Z
H_0(K) = Z
H_1(A)+H_1(B) = Z^3 + Z/2 + Z/2
H_1(AnB) = Z^2 + Z/2
H_1(K) = Z + Z/2
H_2(A)+H_2(B) = Z^2
H_2(AnB) = Z^2
H_2(K) = Z/2
H_3(A)+H_3(B) = 0
H_3(AnB) = 0
H_3(K) = 0
RESULT PASS
""",
    "cup_z2": """\
simphom cup
cup products of circlexrp2 with Z/2 coefficients
H^0 = Z/2 with 1 generator(s)
H^1 = Z/2 + Z/2 with 2 generator(s)
H^2 = Z/2 + Z/2 with 2 generator(s)
H^3 = Z/2 with 1 generator(s)
      left      right   class
      a0_0       a0_0   (1,)
      a0_0       a1_0   (1, 0)
      a0_0       a1_1   (0, 1)
      a0_0       a2_0   (1, 0)
      a0_0       a2_1   (0, 1)
      a0_0       a3_0   (1,)
      a1_0       a0_0   (1, 0)
      a1_0       a1_0   (0, 1)
      a1_0       a1_1   (1, 1)
      a1_0       a2_0   (1,)
      a1_0       a2_1   (0,)
      a1_1       a0_0   (0, 1)
      a1_1       a1_0   (1, 1)
      a1_1       a1_1   (0, 0)
      a1_1       a2_0   (1,)
      a1_1       a2_1   (1,)
      a2_0       a0_0   (1, 0)
      a2_0       a1_0   (1,)
      a2_0       a1_1   (1,)
      a2_1       a0_0   (0, 1)
      a2_1       a1_0   (0,)
      a2_1       a1_1   (1,)
      a3_0       a0_0   (1,)
""",
    "cup": """\
simphom cup
cup products of circlexrp2 with Z coefficients
H^0 = Z with 1 generator(s)
H^1 = Z with 1 generator(s)
H^2 = Z/2 with 1 generator(s)
H^3 = Z/2 with 1 generator(s)
      left      right   class
      a0_0       a0_0   (1,)
      a0_0       a1_0   (1,)
      a0_0       a2_0   (1,)
      a0_0       a3_0   (1,)
      a1_0       a0_0   (1,)
      a1_0       a1_0   (0,)
      a1_0       a2_0   (1,)
      a2_0       a0_0   (1,)
      a2_0       a1_0   (1,)
      a3_0       a0_0   (1,)
""",
    "cup_z3": """\
simphom cup
cup products of circlexrp2 with Z/3 coefficients
H^0 = Z/3 with 1 generator(s)
H^1 = Z/3 with 1 generator(s)
H^2 = 0 with 0 generator(s)
H^3 = 0 with 0 generator(s)
      left      right   class
      a0_0       a0_0   (1,)
      a0_0       a1_0   (1,)
      a1_0       a0_0   (1,)
      a1_0       a1_0   ()
""",
    "cover": """\
simphom cover
cover counts (12, 72, 120, 60)
cover chi 0
H_0(cover) = Z
H_1(cover) = Z
H_2(cover) = Z
H_3(cover) = Z
PASS every base generator has exactly 2 preimages
PASS chi multiplies: 0 = 2 * 0
PASS unique lifts for all 996 relative horn problems through dimension 2
RESULT PASS
""",
    "pi1": """\
simphom pi1
presentation <e5, e6, e7, e8, e9, e10, e11, e12, e13, e14, e15, e16, e17, e18, e19, e20,\
 e21, e22, e23, e24, e25, e26, e27, e28, e29, e30, e31, e32, e33, e34, e35 | e5, e8, e9,\
 e12, e14, e5 e10 e7^-1, e6 e12 e7^-1, e6 e13 e8^-1, e9 e13 e11^-1, e10 e14 e11^-1, e16 \
e21^-1, e17 e22^-1, e18 e23^-1, e19 e24^-1, e20 e25^-1, e5 e17 e26^-1, e6 e18 e27^-1, e7\
 e19 e28^-1, e8 e20 e29^-1, e9 e18 e30^-1, e10 e19 e31^-1, e11 e20 e32^-1, e12 e19 \
e33^-1, e13 e20 e34^-1, e14 e20 e35^-1, e26 e22^-1, e29 e25^-1, e30 e23^-1, e33 e24^-1, \
e35 e25^-1, e5 e31 e28^-1, e6 e33 e28^-1, e6 e34 e29^-1, e9 e34 e32^-1, e10 e35 e32^-1, \
e15 e21^-1, e15 e22^-1, e15 e23^-1, e15 e24^-1, e15 e25^-1, e16 e5 e26^-1, e16 e6 \
e27^-1, e16 e7 e28^-1, e16 e8 e29^-1, e17 e9 e30^-1, e17 e10 e31^-1, e17 e11 e32^-1, e18\
 e12 e33^-1, e18 e13 e34^-1, e19 e14 e35^-1, e21 e5 e22^-1, e21 e8 e25^-1, e22 e9 \
e23^-1, e23 e12 e24^-1, e24 e14 e25^-1, e26 e10 e28^-1, e27 e12 e28^-1, e27 e13 e29^-1, \
e30 e13 e32^-1, e31 e14 e32^-1>
abelianization Z + Z/2
simplified <e31, e35 | e31 e35^-1 e31 e35^-1, e35 e31 e35^-1 e31^-1, e35^-1 e31 e35 \
e31^-1> (steps 47)
""",
}


@pytest.fixture(scope="module")
def circle_x_rp2_doc(tmp_path_factory):
    space = product(catalog("circle"), catalog("rp2")).space
    doc = tmp_path_factory.mktemp("pins") / "circlexrp2.sset"
    doc.write_text(print_space(space))
    return space, str(doc)


@pytest.mark.parametrize("key", sorted(CIRCLE_X_RP2_STDOUT))
def test_circle_x_rp2_stdout_is_pinned(key, circle_x_rp2_doc, capsys):
    """les, mv on a split of the 3-simplices, three cup tables, the double
    cover and pi1 print exactly what they printed before."""
    space, doc = circle_x_rp2_doc
    tops = [f"3.{g.id}" for g in space.gens(3)]
    half = len(tops) // 2
    extra = {"les": ["les", "--sub", "skeleton:2"],
             "mv": ["mv", "--a", "gens:" + ",".join(tops[:half]),
                    "--b", "gens:" + ",".join(tops[half:])],
             "cup_z2": ["cup", "--coeff", "Z/2"], "cup": ["cup"],
             "cup_z3": ["cup", "--coeff", "Z/3"],
             "cover": ["cover", "--group", "cyclic:2"], "pi1": ["pi1"]}[key]
    assert main([extra[0], "--file", doc] + extra[1:]) == 0
    assert capsys.readouterr().out == CIRCLE_X_RP2_STDOUT[key]


KLEIN_X_CIRCLE_CUP = {
    "Z": """\
simphom cup
cup products of kleinxcircle with Z coefficients
H^0 = Z with 1 generator(s)
H^1 = Z^2 with 2 generator(s)
H^2 = Z + Z/2 with 2 generator(s)
H^3 = Z/2 with 1 generator(s)
      left      right   class
      a0_0       a0_0   (1,)
      a0_0       a1_0   (1, 0)
      a0_0       a1_1   (0, 1)
      a0_0       a2_0   (1, 0)
      a0_0       a2_1   (0, 1)
      a0_0       a3_0   (1,)
      a1_0       a0_0   (1, 0)
      a1_0       a1_0   (0, 0)
      a1_0       a1_1   (1, -1)
      a1_0       a2_0   (0,)
      a1_0       a2_1   (0,)
      a1_1       a0_0   (0, 1)
      a1_1       a1_0   (1, 1)
      a1_1       a1_1   (0, 0)
      a1_1       a2_0   (1,)
      a1_1       a2_1   (1,)
      a2_0       a0_0   (1, 0)
      a2_0       a1_0   (0,)
      a2_0       a1_1   (1,)
      a2_1       a0_0   (0, 1)
      a2_1       a1_0   (0,)
      a2_1       a1_1   (1,)
      a3_0       a0_0   (1,)
""",
    "Z/3": """\
simphom cup
cup products of kleinxcircle with Z/3 coefficients
H^0 = Z/3 with 1 generator(s)
H^1 = Z/3 + Z/3 with 2 generator(s)
H^2 = Z/3 with 1 generator(s)
H^3 = 0 with 0 generator(s)
      left      right   class
      a0_0       a0_0   (1,)
      a0_0       a1_0   (1, 0)
      a0_0       a1_1   (0, 1)
      a0_0       a2_0   (1,)
      a1_0       a0_0   (1, 0)
      a1_0       a1_0   (0,)
      a1_0       a1_1   (2,)
      a1_0       a2_0   ()
      a1_1       a0_0   (0, 1)
      a1_1       a1_0   (1,)
      a1_1       a1_1   (0,)
      a1_1       a2_0   ()
      a2_0       a0_0   (1,)
      a2_0       a1_0   ()
      a2_0       a1_1   ()
""",
}


@pytest.mark.parametrize("coeff", sorted(KLEIN_X_CIRCLE_CUP))
def test_klein_x_circle_cup_stdout_is_pinned(coeff, tmp_path, capsys):
    """The cup tables of klein x circle with Z and Z/3 print exactly what
    they printed before."""
    doc = tmp_path / "kleinxcircle.sset"
    doc.write_text(print_space(product(catalog("klein"), catalog("circle")).space))
    assert main(["cup", "--file", str(doc), "--coeff", coeff]) == 0
    assert capsys.readouterr().out == KLEIN_X_CIRCLE_CUP[coeff]


def test_les_and_mv_glue_no_subcomplex(monkeypatch):
    """Subcomplex specs reach ``pair_les`` and ``mayer_vietoris`` as id
    lists, closed as id sets: on rp2, which the catalog builds without
    gluing, neither command glues a space."""
    glued = []
    glue = sset._glue
    monkeypatch.setattr(sset, "_glue", lambda *args, **kwargs: glued.append(args) or glue(*args, **kwargs))
    for argv in (["les", "--space", "rp2", "--sub", "skeleton:1"],
                 ["mv", "--space", "rp2", "--a", "gens:2.0,2.1,2.2,2.3,2.4",
                  "--b", "gens:2.5,2.6,2.7,2.8,2.9"]):
        lines, status = run(argv)
        assert status == 0 and lines[-1] == "RESULT PASS", argv
    assert glued == []
    subcomplex(catalog("rp2"), [(2, 0)])
    assert len(glued) == 1


@pytest.mark.parametrize("coeff", ["Z/2^4", "Z^two", "Z/", "Z^2 + Z/x"])
def test_a_bad_order_in_a_group_term_is_refused_as_that_term(coeff):
    """A cyclic order or a rank that is not an integer gets the parser's
    own message naming the term, as any other unreadable term does."""
    term = coeff.split("+")[-1].strip()
    assert run(["coeffs", "--space", "rp2", "--coeff", coeff]) == (
        [f"error: cannot parse group term {term!r}"], 2)


def test_discrete_spaces_over_the_budget_are_refused_before_they_are_built(monkeypatch):
    """discrete:m with m over the budget is refused from m alone: no face
    table is made, so the refusal is one line and immediate."""
    def refuse(*args):
        raise AssertionError("an over-budget space was built")

    monkeypatch.setattr(sset, "FaceTable", refuse)
    start = time.perf_counter()
    assert run(["euler", "--space", "discrete:1000000000"]) == (
        ["error: discrete[1000000000] would have 1000000000 non-degenerate simplices, "
         "over the budget of 100000"], 2)
    assert time.perf_counter() - start < 0.1
    monkeypatch.undo()
    assert run(["euler", "--space", f"discrete:{budget.BUDGET}"]) == (
        ["simphom euler", f"chi = {budget.BUDGET}"], 0)
