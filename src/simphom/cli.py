"""Command-line surface.

One command per invocation; stdout is deterministic for fixed inputs
(timing goes to stderr) and the exit status encodes PASS/FAIL for the
property commands: 0 PASS (or no verdict), 1 FAIL, 2 a usage or data
error, 3 a failed internal certificate (an SNF postcondition, the
elimination check, a chain-level identity), each error as one line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .abgroup import AbelianGroup
from .catalog import catalog, ordered_complex_catalog, CATALOG_NAMES
from .chains import euler_characteristic, mapping_cone, normalized_chains
from .covers import FiniteGroup, build_cover, cyclic_labeling, labeling_from_hom, verify_covering
from .homology import (
    cohomology,
    homology,
    homology_of_space,
    mayer_vietoris,
    pair_les,
    uct_check,
    with_coefficients,
)
from .io import parse_group, parse_space, print_space, SpaceDocumentError
from .kan import HornMap, fill_horn, kan_check
from .operators import cohomology_ring_table, kunneth_check
from .pi1 import abelianization, pi1_presentation, tietze_simplify
from .simplex import SimplexRef
from .sset import SimplicialSet, is_valid, skeleton, subcomplex
from .subdivision import barycentric_subdivide


class CommandError(Exception):
    pass


def _load_space(args) -> SimplicialSet:
    if getattr(args, "file", None):
        with open(args.file, encoding="utf-8") as fh:
            return parse_space(fh.read())
    if getattr(args, "space", None):
        return catalog(args.space)
    raise CommandError("need --space NAME or --file PATH")


def _parse_subspec(space: SimplicialSet, spec: str):
    """Subcomplex specifications: 'skeleton:N' or 'gens:D.I,D.I,...'
    (the generated subcomplex, closure taken automatically)."""
    if spec.startswith("skeleton:"):
        n = int(spec.split(":", 1)[1])
        if n < 0:
            raise CommandError("skeleton:N needs N >= 0")
        return skeleton(space, n)
    if spec.startswith("gens:"):
        ids = []
        body = spec.split(":", 1)[1]
        if body:
            for item in body.split(","):
                d, _, i = item.partition(".")
                ids.append((int(d), int(i)))
        return subcomplex(space, ids)
    raise CommandError(f"bad subcomplex spec {spec!r} (use skeleton:N or gens:D.I,...)")


def _group_str(g: AbelianGroup, machine: bool) -> str:
    return str(g).replace(" ", "") if machine else str(g)


def _coeff(args) -> AbelianGroup:
    return AbelianGroup.parse(getattr(args, "coeff", None) or "Z")


def _load_group(spec: str) -> FiniteGroup:
    if spec.startswith("cyclic:"):
        return FiniteGroup.cyclic(int(spec.split(":", 1)[1]))
    if spec == "trivial":
        return FiniteGroup.trivial()
    with open(spec, encoding="utf-8") as fh:
        return parse_group(fh.read())


def _machine(lines: list[str]) -> list[str]:
    out = []
    for ln in lines:
        if ln.startswith("PASS"):
            rest = ln[4:].strip()
            out.append(f"pass={json.dumps(rest)}")
        elif ln.startswith("FAIL"):
            rest = ln[4:].strip()
            out.append(f"fail={json.dumps(rest)}")
        else:
            out.append(ln)
    return out


# ---------------------------------------------------------------------------
# Commands: each returns (lines, passed or None)


def cmd_homology(args):
    space = _load_space(args)
    top = space.top_dim if args.dim is None else args.dim
    groups = homology_of_space(space, range(top + 1))
    machine = args.format == "machine"
    if machine:
        return [f"H_{n}={_group_str(g, True)}" for n, g in enumerate(groups)], None
    return [f"H_{n} = {g}" for n, g in enumerate(groups)], None


def cmd_cohomology(args):
    space = _load_space(args)
    pi = _coeff(args)
    top = space.top_dim if args.dim is None else args.dim
    groups = cohomology(normalized_chains(space), pi, range(top + 1))
    machine = args.format == "machine"
    sep = "=" if machine else " = "
    return [f"H^{n}{sep}{_group_str(g, machine)}" for n, g in enumerate(groups)], None


def cmd_coeffs(args):
    space = _load_space(args)
    pi = _coeff(args)
    top = space.top_dim if args.dim is None else args.dim
    groups = with_coefficients(normalized_chains(space), pi, range(top + 1))
    machine = args.format == "machine"
    sep = "=" if machine else " = "
    return [f"H_{n}{sep}{_group_str(g, machine)}" for n, g in enumerate(groups)], None


def cmd_uct(args):
    space = _load_space(args)
    report = uct_check(space, _coeff(args))
    return report.lines(), report.passed


def cmd_les(args):
    space = _load_space(args)
    if not args.sub:
        raise CommandError("les needs --sub (skeleton:N or gens:D.I,...)")
    report = pair_les(space, _parse_subspec(space, args.sub), args.dim)
    lines = report.lines()
    for key in sorted(report.groups):
        lines.append(f"{key} = {report.groups[key]}")
    return lines, report.passed


def cmd_mv(args):
    space = _load_space(args)
    if not args.cover_a or not args.cover_b:
        raise CommandError("mv needs --a and --b subcomplex specs")
    report = mayer_vietoris(space, _parse_subspec(space, args.cover_a),
                            _parse_subspec(space, args.cover_b), args.dim)
    lines = report.lines()
    for key in sorted(report.groups):
        lines.append(f"{key} = {report.groups[key]}")
    return lines, report.passed


def cmd_cup(args):
    space = _load_space(args)
    pi = _coeff(args)
    if pi == AbelianGroup.free(1):
        modulus = 0
    elif pi.betti == 0 and len(pi.torsion) == 1:
        modulus = pi.torsion[0]
    else:
        raise CommandError("cup products need ring coefficients Z or Z/d")
    degrees = range((space.top_dim if args.dim is None else args.dim) + 1)
    table = cohomology_ring_table(space, modulus, degrees)
    return table.lines(), None


def cmd_kunneth(args):
    space = _load_space(args)
    if not args.with_space:
        raise CommandError("kunneth needs --with NAME")
    other = catalog(args.with_space)
    report = kunneth_check(space, other, args.dim)
    return report.lines(), report.passed


def cmd_euler(args):
    space = _load_space(args)
    chi = euler_characteristic(space)
    if args.format == "machine":
        return [f"chi={chi}"], None
    return [f"chi = {chi}"], None


def cmd_kan(args):
    space = _load_space(args)
    report = kan_check(space, args.dim if args.dim is not None else 3)
    return report.lines(), report.passed


def cmd_fill(args):
    space = _load_space(args)
    if args.dim is None or args.horn_k is None or not args.faces:
        raise CommandError("fill needs --dim N --k K --faces JSON")
    n, k = args.dim, args.horn_k
    if n < 1:
        raise CommandError("horns need n >= 1")
    if not 0 <= k <= n:
        raise CommandError("horn index out of range")
    entries = json.loads(args.faces)
    faces = [None] * (n + 1)
    given = [i for i in range(n + 1) if i != k]
    if len(entries) != len(given):
        raise CommandError(f"need {len(given)} faces for a ({n},{k}) horn")
    for i, entry in zip(given, entries):
        (bdim, bid), word = entry
        faces[i] = SimplexRef(bdim, bid, tuple(word))
    fillers = fill_horn(space, HornMap(n, k, tuple(faces)))
    lines = [f"fillers {len(fillers)}"]
    lines.extend(f"  {space.format_ref(ref)}" for ref in fillers)
    return lines, None


def cmd_pi1(args):
    space = _load_space(args)
    data = pi1_presentation(space, args.base)
    ab = abelianization(data.presentation)
    simplified = tietze_simplify(data.presentation)
    lines = [
        f"presentation {data.presentation}",
        f"abelianization {ab}",
        f"simplified {simplified.presentation} (steps {simplified.steps_used})",
    ]
    if simplified.certifies_trivial:
        lines.append("PASS presentation simplifies to the trivial group")
    return lines, None


def cmd_cover(args):
    space = _load_space(args)
    if not args.group:
        raise CommandError("cover needs --group (cyclic:N or a table file)")
    group = _load_group(args.group)
    data = pi1_presentation(space, args.base)
    if args.images:
        images = {}
        for item in args.images.split(","):
            gen, _, elem = item.partition("=")
            images[gen.strip()] = group.element(elem.strip())
        labeling = labeling_from_hom(space, data, group, images)
    elif args.group.startswith("cyclic:"):
        labeling = cyclic_labeling(space, data, group.order)
    else:
        raise CommandError("cover needs --images for non-cyclic groups")
    cover = build_cover(space, labeling)
    report = verify_covering(cover.projection, group.order, 2)
    lines = [f"cover counts {cover.space.counts()}"]
    lines.append(f"cover chi {euler_characteristic(cover.space)}")
    groups = homology_of_space(cover.space)
    lines.extend(f"H_{n}(cover) = {g}" for n, g in enumerate(groups))
    lines.extend(report.lines())
    return lines, report.passed


def cmd_subdivide(args):
    if not args.space:
        raise CommandError("subdivide needs --space with an ordered-complex model")
    cx = ordered_complex_catalog(args.space)
    result = barycentric_subdivide(cx)
    sd = result.subdivided
    lines = [f"counts {cx.counts()} -> {sd.counts()}"]
    chi_ok = cx.euler_characteristic() == sd.euler_characteristic()
    lines.append(("PASS" if chi_ok else "FAIL")
                 + f" chi preserved: {cx.euler_characteristic()} = {sd.euler_characteristic()}")
    lines.append("PASS subdivision chain map commutes with boundaries")
    cone = mapping_cone(result.chain_map)
    cone_h = homology(cone)
    acyclic = all(g.is_trivial() for g in cone_h)
    lines.append(("PASS" if acyclic else "FAIL") + " mapping cone is acyclic (quasi-isomorphism)")
    return lines, chi_ok and acyclic


def cmd_validate(args):
    space = _load_space(args)
    report = is_valid(space)
    if report.ok:
        return [f"PASS all invariants hold ({space.counts()})"], True
    return ["FAIL " + p for p in report.problems], False


def cmd_catalog_list(args):
    return list(CATALOG_NAMES), None


def cmd_print(args):
    space = _load_space(args)
    return print_space(space).splitlines(), None


COMMANDS = {
    "homology": cmd_homology,
    "cohomology": cmd_cohomology,
    "coeffs": cmd_coeffs,
    "uct": cmd_uct,
    "les": cmd_les,
    "mv": cmd_mv,
    "cup": cmd_cup,
    "kunneth": cmd_kunneth,
    "euler": cmd_euler,
    "kan": cmd_kan,
    "fill": cmd_fill,
    "pi1": cmd_pi1,
    "cover": cmd_cover,
    "subdivide": cmd_subdivide,
    "validate": cmd_validate,
    "catalog-list": cmd_catalog_list,
    "print": cmd_print,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simphom",
        description="homotopy-theoretic invariants of finitely presented simplicial sets")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--space", help="catalog space name")
    parser.add_argument("--file", help="space document file")
    parser.add_argument("--dim", type=int, default=None, help="degree bound")
    parser.add_argument("--coeff", default=None, help="coefficient group, e.g. Z, Z/2, Z^2+Z/4")
    parser.add_argument("--group", default=None, help="finite group: cyclic:N or a table file")
    parser.add_argument("--base", type=int, default=0, help="base vertex id")
    parser.add_argument("--sub", default=None, help="subcomplex spec (skeleton:N or gens:D.I,...)")
    parser.add_argument("--a", dest="cover_a", default=None, help="first cover piece for mv")
    parser.add_argument("--b", dest="cover_b", default=None, help="second cover piece for mv")
    parser.add_argument("--with", dest="with_space", default=None, help="second space for kunneth")
    parser.add_argument("--k", dest="horn_k", type=int, default=None, help="horn index")
    parser.add_argument("--faces", default=None,
                        help='horn faces as JSON [[[bdim,bid],[word]],...] in index order')
    parser.add_argument("--images", default=None, help="generator images, e.g. e1=g,e3=e")
    parser.add_argument("--seed", default=None, help="reserved; deterministic operations ignore it")
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    return parser


def run(argv: list[str]) -> tuple[list[str], int]:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if args.dim is not None and args.dim < 0:
            raise CommandError("--dim must be >= 0")
        lines, passed = COMMANDS[args.command](args)
    except (CommandError, SpaceDocumentError, ValueError, OSError) as exc:
        return [f"error: {exc}"], 2
    except AssertionError as exc:
        return [f"error: certificate failed: {exc}"], 3
    elapsed = time.monotonic() - started
    if args.format == "machine":
        body = _machine(lines)
        body.insert(0, f"command={json.dumps(args.command)}")
        if passed is not None:
            body.insert(1, f"passed={'1' if passed else '0'}")
    else:
        body = [f"simphom {args.command}"] + lines
        if passed is not None:
            body.append("RESULT " + ("PASS" if passed else "FAIL"))
    print(f"time {elapsed:.3f}s", file=sys.stderr)
    status = 0 if passed is None or passed else 1
    return body, status


def main(argv: list[str] | None = None) -> int:
    lines, status = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write("\n".join(lines) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
