"""The size budget: every refusal in one form, counted before anything is
built, with estimates that equal the built counts or bound them."""

import json
import re
import sys
import time

import pytest

import simphom.covers as covers
import simphom.kan as kan_module
from simphom import budget, sset
from simphom.catalog import catalog
from simphom.cli import run
from simphom.covers import FiniteGroup, build_cover, cyclic_labeling
from simphom.io import print_space
from simphom.kan import fibration_check
from simphom.pi1 import pi1_presentation
from simphom.sset import SimplicialSet, product
from simphom.subdivision import OrderedSimplicialComplex, complex_to_sset

from conftest import LADDER_RUNGS, all_catalog_spaces, constant_map

FORM = re.compile(r"(?P<what>.+) would have (?P<bound>at least )?(?P<count>\d+) "
                  r"(?P<unit>[a-z -]+), over the budget of (?P<budget>-?\d+)")


def _refuse(*args):
    raise AssertionError("an over-budget object was built")


def test_every_refusal_has_one_form_and_builds_nothing(monkeypatch, tmp_path):
    """Each over-budget construction exits 2 with one line of the one form
    in under 0.1 s, with the builder it would have called patched to raise."""
    catalog_module = sys.modules["simphom.catalog"]  # simphom.catalog is the function
    simplices = [(sset, "FaceTable"), (sset.itertools, "combinations")]
    tables = [(kan_module, "_tables"), (SimplicialSet, "all_simplices")]
    faces = json.dumps([[[0, 0], list(range(6, -1, -1))]] * 8)
    rp2_x_rp2 = product(catalog("rp2"), catalog("rp2")).space  # 3,811 generators
    gon = OrderedSimplicialComplex([(i, i + 1) for i in range(1999)] + [(0, 1999)])  # 4,000
    square, cycle = tmp_path / "square.sset", tmp_path / "cycle.sset"
    square.write_text(print_space(rp2_x_rp2))
    cycle.write_text(print_space(complex_to_sset(gon, name="cycle")))
    square, cycle = str(square), str(cycle)
    cases = [
        (["kunneth", "--file", square, "--with", "rp2"], [(sset, "SimplexRef")]),
        (["homology", "--space", "delta:16"], simplices),
        (["homology", "--space", "boundary:16"], simplices),
        (["homology", "--space", "horn:16:3"], simplices),
        (["homology", "--space", "sphere:16"], simplices),
        (["homology", "--space", "delta:1000000000000"], simplices),
        (["euler", "--space", "discrete:1000000000"], simplices),
        (["subdivide", "--space", "delta:7"],
         [(catalog_module, "full_simplex_complex"), (catalog_module, "boundary_complex")]),
        (["kan", "--file", square, "--dim", "4"], tables),
        (["kan", "--space", "point", "--dim", str(10 ** 12)], tables),
        (["fill", "--file", square, "--dim", "8", "--k", "0", "--faces", faces], tables),
        (["cover", "--space", "circle", "--group", "cyclic:317"], [(FiniteGroup, "__init__")]),
        (["cover", "--space", "circle", "--group", "cyclic:1000000"], [(FiniteGroup, "__init__")]),
        (["cover", "--file", cycle, "--group", "cyclic:26"], [(covers, "FaceTable")]),
    ]
    for argv, patches in cases:
        with monkeypatch.context() as patched:
            for owner, name in patches:
                patched.setattr(owner, name, _refuse)
            start = time.perf_counter()
            lines, status = run(argv)
            elapsed = time.perf_counter() - start
        assert status == 2 and len(lines) == 1, (argv, lines)
        match = FORM.fullmatch(lines[0].removeprefix("error: "))
        assert match and match["budget"] == "100000" and int(match["count"]) > budget.BUDGET, lines
        assert elapsed < 0.1, (argv, elapsed)
    assert lines == ["error: the 26-sheeted cover of cycle would have 104000 non-degenerate "
                     "simplices, over the budget of 100000"]
    # a group file is refused from its element count, before its laws are checked
    for name in ("_find_identity", "_find_inverses", "_check_associativity"):
        monkeypatch.setattr(FiniteGroup, name, _refuse)
    with pytest.raises(ValueError, match="^a group of order 317 would have 100489 table entries, "
                                         "over the budget of 100000$"):
        FiniteGroup([f"g{k}" for k in range(317)], [])
    # fibration_check counts the tables of source and target together
    point = catalog("point")
    monkeypatch.setattr(kan_module, "_tables", _refuse)
    with pytest.raises(ValueError, match="^the face tables through dimension 4 would have 112868 faces, "
                                         "over the budget of 100000$"):
        fibration_check(constant_map(rp2_x_rp2, point, 0), 4)


def _estimate(build, *args) -> int:
    """The count ``build(*args)`` gives the budget before it builds
    anything: with a budget of -1 every refusal names it."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(budget, "BUDGET", -1)
        with pytest.raises(ValueError, match="over the budget of -1$") as info:
            build(*args)
    return int(FORM.fullmatch(str(info.value))["count"])


def test_exact_estimates_equal_the_built_counts():
    """Products, discrete spaces, Kan face tables, group tables and covers
    are counted exactly, where each construction asks the budget: on the
    catalog spaces and the ladder rungs."""
    spaces = all_catalog_spaces()
    pairs = [(catalog(a), catalog(b)) for rung in LADDER_RUNGS for a, b in rung]
    pairs += [(a, b) for a in spaces[:5] for b in spaces[:5]]
    for a, b in pairs:
        assert _estimate(product, a, b) == sum(product(a, b).space.counts()), (a.name, b.name)
    for m in (0, 1, 7):
        assert _estimate(sset.discrete, m) == sum(sset.discrete(m).counts()) == m
    for space in spaces + [product(catalog(a), catalog(b)).space for (a, b), *_ in LADDER_RUNGS]:
        built = sum(len(row) for table in kan_module._tables(space, 2) for row in table.faces)
        assert _estimate(kan_module.kan_check, space, 2) == built, space.name
    for n in range(1, 7):
        group = FiniteGroup.cyclic(n)
        assert _estimate(FiniteGroup.cyclic, n) == _estimate(FiniteGroup, group.names, group.table) == (
            sum(map(len, group.table)))
    for space in spaces[:5]:
        order = 2 if space.name in ("circle", "torus", "rp2", "klein") else 1
        labeling = cyclic_labeling(space, pi1_presentation(space), order)
        assert _estimate(build_cover, space, labeling) == sum(build_cover(space, labeling).space.counts())


def test_partial_sums_are_exact_under_the_budget_and_bounds_over_it(monkeypatch):
    """The simplex family and subdivisions stop at their first partial sum
    over the budget: under it they are exact, over it a lower bound on the
    full count that is itself over the budget."""
    stopped = [(n, budget.simplex_family(n), budget.subdivision(n, False), budget.subdivision(n, True))
             for n in range(20)]
    monkeypatch.setattr(budget, "BUDGET", 10 ** 30)
    for n, family, sd, sd_boundary in stopped:
        assert budget.simplex_family(n) == 2 ** (n + 1) - 1
        for bound, full in ((family, 2 ** (n + 1) - 1), (sd, budget.subdivision(n, False)),
                            (sd_boundary, budget.subdivision(n, True))):
            assert bound == full if full <= 100_000 else 100_000 < bound <= full, (n, bound, full)
