"""CLI stdout and exit status pinned on a fixed battery of commands.

``tests/golden/stdout.json`` maps each command line of ``ARGVS`` to the
stdout and exit status it gave when the file was written.  A change that
must leave every output byte-identical keeps this test passing; a change
of output on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden_stdout.py

and declares the change.
"""

from __future__ import annotations

import json
from pathlib import Path

from simphom.catalog import catalog
from simphom.cli import run

GOLDEN = Path(__file__).parent / "golden" / "stdout.json"

SPACES = ("point", "circle", "torus", "rp2", "klein", "sphere:2", "boundary:3")

COMMANDS = (
    ["homology"],
    ["cohomology", "--coeff", "Z/2"],
    ["coeffs", "--coeff", "Z/3"],
    ["uct", "--coeff", "Z/2"],
    ["les", "--sub", "skeleton:1"],
    ["cup"],
    ["cup", "--coeff", "Z/2"],
    ["cup", "--coeff", "Z/3"],
    ["pi1"],
    ["pi1", "--base", "1"],
    ["kan", "--dim", "2"],
    ["kan", "--dim", "3"],
    ["cover", "--group", "cyclic:2"],
    ["cover", "--group", "cyclic:3"],
    ["validate"],
    ["print"],
    ["homology", "--dim", "1"],
    ["cohomology", "--coeff", "Z/2", "--dim", "1"],
    ["coeffs", "--coeff", "Z/3", "--dim", "1"],
    ["uct", "--coeff", "Z/2", "--dim", "1"],
    ["cup", "--dim", "1"],
)


def _subcomplex_commands(space: str) -> list[list[str]]:
    """Mayer-Vietoris on the closures of the first and of the last half
    (rounded up) of the top generators, in full and truncated, and pairs
    with the 0-skeleton, with the closure of the first top generator and,
    truncated, with the 1-skeleton."""
    counts = catalog(space).counts()
    top, m = len(counts) - 1, counts[-1]
    half = -(-m // 2)

    def gens(ids) -> str:
        return "gens:" + ",".join(f"{top}.{i}" for i in ids)

    mv = ["mv", "--a", gens(range(half)), "--b", gens(range(m - half, m))]
    return [mv, mv + ["--dim", "1"],
            ["les", "--sub", "skeleton:0"],
            ["les", "--sub", gens([0])],
            ["les", "--sub", "skeleton:1", "--dim", "1"]]


RP2_IMAGES = "e5=e,e6=g,e7=g,e8=e,e9=e,e10=g,e11=g,e12=e,e13=g,e14=e"

# single runs: a cover from explicit images, well-formed horn fillings and
# degrees above the top of a 2-dimensional space
RUNS = (
    ["cover", "--space", "rp2", "--group", "cyclic:2", "--images", RP2_IMAGES],
    ["fill", "--space", "point", "--dim", "2", "--k", "1", "--faces", "[[[0,0],[0]],[[0,0],[0]]]"],
    ["fill", "--space", "rp2", "--dim", "1", "--k", "0", "--faces", "[[[0,0],[]]]"],
    ["fill", "--space", "torus", "--dim", "2", "--k", "1", "--faces", "[[[1,0],[]],[[1,1],[]]]"],
    ["fill", "--space", "circle", "--dim", "2", "--k", "1", "--faces", "[[[1,0],[]],[[1,0],[]]]"],
    ["homology", "--space", "rp2", "--dim", "5"],
    ["coeffs", "--space", "rp2", "--coeff", "Z/2", "--dim", "5"],
    ["cohomology", "--space", "rp2", "--coeff", "Z/2", "--dim", "5"],
)

# refusals that end in exit 2 with one line
REFUSALS = (
    ["homology", "--space", "delta:17"],
    ["homology", "--space", "nosuch"],
    ["homology", "--space", "rp2", "--dim", "-1"],
    ["les", "--space", "rp2"],
    ["cup", "--space", "rp2", "--coeff", "Z^2"],
    ["cover", "--space", "rp2"],
    ["mv", "--space", "rp2", "--a", "gens:2.0", "--b", "gens:2.1"],
    ["les", "--space", "rp2", "--sub", "gens:9.9"],
    ["les", "--space", "rp2", "--sub", "skeleton:-1"],
    ["cover", "--space", "rp2", "--group", "cyclic:2", "--images",
     "e11=g,e5=e,e6=e,e7=e,e8=e,e9=e,e10=e,e12=e,e13=e,e14=e"],
    ["fill", "--space", "rp2", "--dim", "2", "--k", "0", "--faces", "[[[1,5],[]],[[1,10],[]]]"],
    ["fill", "--space", "rp2", "--dim", "2", "--k", "0", "--faces", "[[[1,0],[]]]"],
)

ARGVS = [command[:1] + ["--space", space] + command[1:] + ["--format", fmt]
         for space in SPACES for command in COMMANDS + tuple(_subcomplex_commands(space))
         for fmt in ("text", "machine")] + [
    list(argv) for argv in RUNS + REFUSALS]


def _outputs() -> dict[str, dict]:
    out = {}
    for argv in ARGVS:
        lines, status = run(argv)
        out[" ".join(argv)] = {"stdout": "\n".join(lines) + "\n", "status": status}
    return out


def test_cli_stdout_and_status_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == [" ".join(argv) for argv in ARGVS], "the battery changed; rewrite the file"
    for key, got in _outputs().items():
        assert got == golden[key], f"first command that differs: simphom {key}"


def test_refusals_exit_2_with_one_line():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for argv in REFUSALS:
        entry = golden[" ".join(argv)]
        assert entry["status"] == 2 and entry["stdout"].count("\n") == 1, argv


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_outputs(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
