"""Command-line driver.

Thin shell over the library: `check` validates the generator relations,
`subgroup` and `orbits` answer index/orbit queries for generating words
given on the command line, `color` and `export` run config-driven
coloring pipelines.  Configs are JSON (see the bundled files under
`honeycomb434/configs/`); `--config` accepts a path or a bundled name.
The config layer (`load_config`, `validate_config`, `build_from_config`)
lives in `honeycomb434.crystal`, where the presets build through it too.

Exit codes: 0 success, 2 parse/config problem, 3 failed precondition
(bad plan, uncertified subgroup), 4 failed verification, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .coloring import PlanError, color_group, verify_theorem
from .crystal import build_from_config, export, load_config
from .isometry import check_presentation, dihedral_angle_check, perturbed_generators
from .orbits import decompose, stabilizer_codes
from .quotient import (
    MAX_MODULUS,
    CertificationError,
    SubgroupError,
    TorusGroup,
    build_group,
    build_subgroup,
    certify_translations,
    check_modulus,
    index,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4
EXIT_IO = 5


def _fail(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_check(args) -> int:
    generators = perturbed_generators() if args.perturb else None
    checks = check_presentation(generators)
    broken = 0
    for check in checks:
        if check.ok:
            print(f"relator {check.relator}: ok")
        else:
            broken += 1
            residual = (
                f"translation {check.residual.translation}"
                if check.residual.is_translation
                else repr(check.residual)
            )
            print(f"relator {check.relator}: FAIL, evaluates to {residual}")
    angles, angles_ok = dihedral_angle_check()
    print("mirror angles:", " ".join(c.angle for c in angles))
    print("angle multiset:", "ok" if angles_ok else "FAIL")
    if broken or not angles_ok:
        print(f"check failed: {broken} relator(s) broken")
        return EXIT_VERIFICATION
    print("check passed: 10 relators hold, angle multiset matches")
    return EXIT_OK


def _certified_subgroup(modulus: int, words) -> TorusGroup:
    group = build_group(modulus)
    return certify_translations(build_subgroup(group, tuple(words)))


def cmd_subgroup(args) -> int:
    sub = _certified_subgroup(args.modulus, args.words)
    idx = index(sub.parent, sub)
    print(f"modulus {args.modulus}: order {sub.order}, index {idx}, certificate yes")
    for witness in sub.translation_certificate:
        print(f"  translation {witness.target}: {''.join(witness.word)}")
    if args.cross_check:
        doubled = _certified_subgroup(args.modulus * 2, args.words)
        idx2 = index(doubled.parent, doubled)
        agree = "agrees" if idx2 == idx else "DISAGREES"
        print(f"modulus {args.modulus * 2}: order {doubled.order}, index {idx2} ({agree})")
        if idx2 != idx:
            return EXIT_VERIFICATION
    return EXIT_OK


def cmd_orbits(args) -> int:
    sub = _certified_subgroup(args.modulus, args.words)
    decomp = decompose(sub)
    print(
        f"modulus {args.modulus}: {len(decomp.orbits)} orbit(s) "
        f"under a subgroup of order {sub.order}"
    )
    for orbit in decomp.orbits:
        stab_order = len(stabilizer_codes(sub, orbit.representative))
        print(
            f"  orbit {orbit.index}: representative {orbit.representative}, "
            f"size {len(orbit.vertices)}, stabilizer order {stab_order}"
        )
    return EXIT_OK


def cmd_color(args) -> int:
    config = load_config(args.config)
    coloring = build_from_config(config).coloring
    h, plans = coloring.recipe.group, coloring.recipe.plans
    out_path = Path(args.out_dir) / config["coloring"].get("output", f"{config['family']}.coloring")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(coloring.to_text())
    print(f"wrote {out_path}")
    counts = coloring.counts()
    for info in coloring.color_table:
        tag = " (background)" if info.background else ""
        print(f"color {info.label}: {counts[info.label]} per period{tag}")
    decomp = decompose(h)
    failures = 0
    for plan in plans:
        rep = decomp.orbits[plan.orbit].representative
        report = verify_theorem(h, plan.subgroup, rep, coloring)
        for part in report.parts:
            status = "ok" if part.ok else f"FAIL ({part.detail})"
            print(f"orbit {plan.orbit}, part {part.part}: {status}")
        failures += sum(1 for part in report.parts if not part.ok)
    group_order = h.parent.order
    cg = color_group(coloring)
    verdict = "perfect" if cg.subgroup.order == group_order else "not perfect"
    print(f"color group: order {cg.subgroup.order} of {group_order} ({verdict})")
    if failures:
        print(f"verification failed: {failures} theorem part(s) violated")
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_export(args) -> int:
    config = load_config(args.config)
    requests = config.get("exports", [])
    if not requests:
        _fail("config lists no exports")
        return EXIT_USAGE
    model = build_from_config(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for request in requests:
        region = tuple(request.get("region", [1, 1, 1]))
        text = export(model, request["format"], region)
        target = out_dir / request["path"]
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
        print(f"wrote {target} ({request['format']})")
    return EXIT_OK


def _modulus(text: str) -> int:
    """An argparse type: a modulus that `check_modulus` accepts, checked
    before anything is built."""
    value = int(text)
    try:
        check_modulus(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


_modulus.__name__ = "modulus"  # argparse names the type in its errors


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--perturb",
        action="store_true",
        help="replace one mirror by a parallel plane and watch the relations fail",
    )


def _word_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("words", nargs="+", help="generating words over P, Q, R, S")
    p.add_argument(
        "--modulus",
        type=_modulus,
        default=2,
        help=f"torus period (even, at most {MAX_MODULUS}, default 2)",
    )


def _subgroup_arguments(p: argparse.ArgumentParser) -> None:
    _word_arguments(p)
    p.add_argument(
        "--cross-check",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="recompute at twice the modulus and compare the index",
    )


def _config_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="config file path or bundled name")
    p.add_argument("--out-dir", default=".", help="directory for output files")


class Command(NamedTuple):
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


PROG = "honeycomb434"

# every command, in the order the top-level help lists them
COMMANDS = {
    "check": Command(
        "verify the generator relations and mirror angles", _check_arguments, cmd_check
    ),
    "subgroup": Command(
        "order, index and translation certificate of a subgroup", _subgroup_arguments, cmd_subgroup
    ),
    "orbits": Command(
        "orbit decomposition of the torus under a subgroup", _word_arguments, cmd_orbits
    ),
    "color": Command(
        "build a coloring from a config, verify it, write the class file",
        _config_arguments,
        cmd_color,
    ),
    "export": Command("write the exports requested by a config", _config_arguments, cmd_export),
}


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, with the prog and help that the top-level
    parser gives it as a subcommand."""
    parser = argparse.ArgumentParser(prog=f"{PROG} {name}")
    COMMANDS[name].add_arguments(parser)
    return parser


def _top_parser() -> argparse.ArgumentParser:
    """Every command under one parser: only needed to list the commands or
    to reject input that does not start with one."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact symmetry computations and crystal colorings on the cubic honeycomb.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        command.add_arguments(commands.add_parser(name, help=command.help))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command builds its own parser only; argparse is a large share of a
    # short command's time
    if argv and argv[0] in COMMANDS:
        name, parser, argv = argv[0], _command_parser(argv[0]), argv[1:]
    else:
        name, parser = None, _top_parser()
    try:
        args = parser.parse_args(argv)
        name = name or args.command
        if getattr(args, "cross_check", False) and 2 * args.modulus > MAX_MODULUS:
            parser.error(
                f"--cross-check recomputes at modulus {2 * args.modulus}, above the limit "
                f"{MAX_MODULUS}; pass --no-cross-check"
            )
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return COMMANDS[name].run(args)
    except (PlanError, SubgroupError) as exc:
        _fail(f"precondition failed: {exc}")
        return EXIT_PRECONDITION
    except CertificationError as exc:
        _fail(f"certification failed: {exc}")
        return EXIT_PRECONDITION
    except ValueError as exc:
        _fail(f"error: {exc}")
        return EXIT_USAGE
    except OSError as exc:
        _fail(f"i/o error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
