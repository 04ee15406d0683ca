"""The command-line surface: outputs, determinism, exit codes."""

import json

from simphom.catalog import catalog
from simphom.cli import main, run
from simphom.io import print_space
from simphom.sset import product


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


def test_error_paths():
    text, status = out_of(["homology", "--space", "nowhere"])
    assert status == 2 and "error" in text
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
    fill = ["fill", "--space", "rp2", "--faces", "[[[0,0],[]]]"]
    assert out_of(fill + ["--dim", "1", "--k", "2"]) == ("error: horn index out of range", 2)
    assert out_of(fill + ["--dim", "0", "--k", "0"]) == ("error: horns need n >= 1", 2)


def test_seed_flag_is_accepted():
    first = out_of(["homology", "--space", "circle", "--seed", "7"])
    second = out_of(["homology", "--space", "circle", "--seed", "8"])
    assert first == second
