"""Command-line surface.

One command per invocation, with only the options it reads; stdout is
deterministic (timing goes to stderr) and the exit status encodes PASS/FAIL
for the property commands: 0 PASS (or no verdict), 1 FAIL, 2 a bad argument
list, usage or data error, 3 a failed internal certificate (an SNF postcondition,
the elimination check, a chain-level identity), each error as one line.

``run`` parses an argv that starts with a command name with that command's
own subparser, so one argparse level runs; an argv that starts with an
option other than -h/--help is refused, since options follow the command;
any other argv (--help, an unknown or missing command) goes to ``PARSER``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import budget
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
from .sset import SimplicialSet, is_valid
from .subdivision import barycentric_subdivide


class CommandError(Exception):
    pass


def _load_space(args) -> SimplicialSet:
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            return parse_space(fh.read())
    if args.space:
        return catalog(args.space)
    raise CommandError("need --space NAME or --file PATH")


def _parse_subspec(space: SimplicialSet, spec: str) -> list[tuple[int, int]]:
    """Subcomplex specifications: 'skeleton:N' or 'gens:D.I,D.I,...', as
    the (dim, id) pairs they name; ``pair_les`` and ``mayer_vietoris``
    take the closure; any other spec, or a number that does not parse, is
    refused with the forms to use."""
    kind, _, body = spec.partition(":")
    try:
        if kind == "gens":
            items = body.split(",") if body else []
            return [(int(d), int(i)) for d, _, i in (item.partition(".") for item in items)]
        n = int(body) if kind == "skeleton" else None
    except ValueError:
        n = None
    if n is None:
        raise CommandError(f"bad subcomplex spec {spec!r} (use skeleton:N or gens:D.I,...)")
    if n < 0:
        raise CommandError("skeleton:N needs N >= 0")
    return [(d, g) for d in range(min(n, space.top_dim) + 1) for g in range(space.n_gens(d))]


def _group_str(g: AbelianGroup, machine: bool) -> str:
    return str(g).replace(" ", "") if machine else str(g)


def _coeff(args) -> AbelianGroup:
    return AbelianGroup.parse(args.coeff or "Z")


def _load_group(spec: str) -> FiniteGroup:
    if spec.startswith("cyclic:"):
        try:
            order = int(spec.split(":", 1)[1])
        except ValueError:
            raise CommandError(f"bad group spec {spec!r} (use cyclic:N or a table file)") from None
        return FiniteGroup.cyclic(order)
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


def _degrees(args, space) -> range:
    """Degrees 0 to --dim, or to the top of the space; refused over the budget."""
    count = (space.top_dim if args.dim is None else args.dim) + 1
    budget.refuse(f"--dim {args.dim}", count, "degrees")
    return range(count)


def _graded(args, symbol: str, groups):
    """One line per degree: the group after ``symbol`` and the degree."""
    machine = args.format == "machine"
    sep = "=" if machine else " = "
    return [f"{symbol}{n}{sep}{_group_str(g, machine)}" for n, g in enumerate(groups)], None


def cmd_homology(args):
    space = _load_space(args)
    return _graded(args, "H_", homology_of_space(space, _degrees(args, space)))


def cmd_cohomology(args):
    space, pi = _load_space(args), _coeff(args)
    return _graded(args, "H^", cohomology(normalized_chains(space), pi, _degrees(args, space)))


def cmd_coeffs(args):
    space, pi = _load_space(args), _coeff(args)
    return _graded(args, "H_", with_coefficients(normalized_chains(space), pi, _degrees(args, space)))


def cmd_uct(args):
    space = _load_space(args)
    report = uct_check(space, _coeff(args), _degrees(args, space))
    return report.lines(), report.passed


def _sequence(report):
    """Every node of an exact sequence, then its groups by label."""
    groups = [f"{key} = {report.groups[key]}" for key in sorted(report.groups)]
    return report.lines() + groups, report.passed


def cmd_les(args):
    space = _load_space(args)
    if not args.sub:
        raise CommandError("les needs --sub (skeleton:N or gens:D.I,...)")
    return _sequence(pair_les(space, _parse_subspec(space, args.sub), args.dim))


def cmd_mv(args):
    space = _load_space(args)
    if not args.cover_a or not args.cover_b:
        raise CommandError("mv needs --a and --b subcomplex specs")
    return _sequence(mayer_vietoris(space, _parse_subspec(space, args.cover_a),
                                    _parse_subspec(space, args.cover_b), args.dim))


def cmd_cup(args):
    space = _load_space(args)
    pi = _coeff(args)
    if pi == AbelianGroup.free(1):
        modulus = 0
    elif pi.betti == 0 and len(pi.torsion) == 1:
        modulus = pi.torsion[0]
    else:
        raise CommandError("cup products need ring coefficients Z or Z/d")
    table = cohomology_ring_table(space, modulus, _degrees(args, space))
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
    if len(entries) != n:
        raise CommandError(f"need {n} faces for a ({n},{k}) horn")
    faces = [None] * (n + 1)
    given = [i for i in range(n + 1) if i != k]
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
            gen, sep, elem = (part.strip() for part in item.partition("="))
            if not (gen and sep and elem):
                raise CommandError(f"bad image item {item!r} (use GEN=ELEMENT,...)")
            if gen in images:
                raise CommandError(f"bad image item {item!r} ({gen} has an image already)")
            images[gen] = group.element(elem)
        labeling = labeling_from_hom(space, data, group, images)
    elif args.group.startswith("cyclic:"):
        labeling = cyclic_labeling(space, data, group)
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
    # parse_space has checked a document already and refused an invalid one
    problems = [] if args.file else is_valid(space).problems
    if not problems:
        return [f"PASS all invariants hold ({space.counts()})"], True
    return ["FAIL " + p for p in problems], False


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

# Each option: the commands whose handlers read it, and its argparse settings.
_LOADERS = "homology cohomology coeffs uct les mv cup kunneth euler kan fill pi1 cover validate print"
OPTIONS = (
    ("--space", _LOADERS + " subdivide", dict(help="catalog space name")),
    ("--file", _LOADERS, dict(help="space document file")),
    ("--dim", "homology cohomology coeffs uct les mv cup kunneth kan fill", dict(type=int, help="degree bound")),
    ("--coeff", "cohomology coeffs uct cup", dict(help="coefficient group, e.g. Z, Z/2, Z^2+Z/4")),
    ("--group", "cover", dict(help="finite group: cyclic:N or a table file")),
    ("--base", "pi1 cover", dict(type=int, default=0, help="base vertex id")),
    ("--sub", "les", dict(help="subcomplex spec (skeleton:N or gens:D.I,...)")),
    ("--a", "mv", dict(dest="cover_a", help="first cover piece for mv")),
    ("--b", "mv", dict(dest="cover_b", help="second cover piece for mv")),
    ("--with", "kunneth", dict(dest="with_space", help="second space for kunneth")),
    ("--k", "fill", dict(dest="horn_k", type=int, help="horn index")),
    ("--faces", "fill", dict(help="horn faces as JSON [[[bdim,bid],[word]],...] in index order")),
    ("--images", "cover", dict(help="generator images, e.g. e1=g,e3=e")),
    ("--format", " ".join(COMMANDS), dict(choices=("text", "machine"), default="text")),
)


class _Parser(argparse.ArgumentParser):
    """Argument errors come back from ``run`` as one error line."""

    def error(self, message):
        raise CommandError(message)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with the options of ``OPTIONS`` it reads;
    the parser's ``commands`` holds each subparser by command name."""
    parser = _Parser(prog="simphom", allow_abbrev=False,
                     description="homotopy-theoretic invariants of finitely presented simplicial sets")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in sorted(COMMANDS):
        command = commands.add_parser(name, allow_abbrev=False)
        for flag, readers, settings in OPTIONS:
            if name in readers.split():
                command.add_argument(flag, **settings)
    parser.commands = commands.choices
    return parser


# One parser per process: parse_args builds a fresh namespace on every call.
PARSER = build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace of ``argv``.  An argv that starts with a command name
    is parsed by that command's own subparser, one argparse level; one
    that starts with any option but -h/--help is refused, since options
    follow the command; any other goes to ``PARSER``."""
    command = PARSER.commands.get(argv[0]) if argv else None
    if command is not None:
        return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        raise CommandError(f"option {argv[0].partition('=')[0]} comes before the command; "
                           "options follow the command")
    return PARSER.parse_args(argv)


def run(argv: list[str]) -> tuple[list[str], int]:
    started = time.monotonic()
    try:
        args = _parse(argv)
        if getattr(args, "dim", None) is not None and args.dim < 0:
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
