"""Command-line driver.

Thin shell over the library: `check` validates the generator relations,
`subgroup` and `orbits` answer index/orbit queries for generating words
given on the command line, `color` and `export` run config-driven
coloring pipelines.  Configs are JSON (see the bundled files under
`honeycomb434/configs/`); `--config` accepts a path or a bundled name.
The config layer (`load_config`, `validate_config`, `build_from_config`)
lives in `honeycomb434.crystal`, where the presets build through it too.

Each command's options are declared once, in `COMMANDS`.  A plain command
line (exact option names, each at most once, values and words that do not
start with "-") is read directly, and argparse is not imported for it;
argparse parses every other line, with only the named command's parser
where there is one, and prints every help, usage and error text.  Both
give the same arguments for a plain line.

Exit codes: 0 success, 2 parse/config problem, 3 failed precondition
(bad plan, uncertified subgroup), 4 failed verification, 5 I/O failure.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace
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
        # each witness above, spelled twice, proves the translation by twice
        # the modulus, so the doubled subgroup is certified without a search
        doubled = build_subgroup(build_group(args.modulus * 2), tuple(args.words))
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
            f"size {orbit.size}, stabilizer order {stab_order}"
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


class Option(NamedTuple):
    """An option `--name` of a command, set to `default` when not given.
    Without a `type` it is a switch that sets True, and a `negatable` one
    also has `--no-name`, which sets False.  With one it takes the next
    word, converted by `type`; `check` may then refuse the value with a
    ValueError."""

    name: str
    help: str
    default: object = None
    type: Callable[[str], object] | None = None
    check: Callable[[object], None] | None = None
    required: bool = False
    negatable: bool = False

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


class Command(NamedTuple):
    help: str
    run: Callable[..., int]
    options: tuple[Option, ...]
    words: str | None = None  # the help of the generating words it takes, if any


MODULUS = Option(
    "modulus",
    f"torus period (even, at most {MAX_MODULUS}, default 2)",
    default=2,
    type=int,
    check=check_modulus,
)
WORDS = "generating words over P, Q, R, S"
CONFIG = (
    Option("config", "config file path or bundled name", type=str, required=True),
    Option("out-dir", "directory for output files", default=".", type=str),
)

PROG = "honeycomb434"

# every command, in the order the top-level help lists them
COMMANDS = {
    "check": Command(
        "verify the generator relations and mirror angles",
        cmd_check,
        (
            Option(
                "perturb",
                "replace one mirror by a parallel plane and watch the relations fail",
                default=False,
            ),
        ),
    ),
    "subgroup": Command(
        "order, index and translation certificate of a subgroup",
        cmd_subgroup,
        (
            MODULUS,
            Option(
                "cross-check",
                "recompute at twice the modulus and compare the index",
                default=True,
                negatable=True,
            ),
        ),
        WORDS,
    ),
    "orbits": Command(
        "orbit decomposition of the torus under a subgroup", cmd_orbits, (MODULUS,), WORDS
    ),
    "color": Command(
        "build a coloring from a config, verify it, write the class file", cmd_color, CONFIG
    ),
    "export": Command("write the exports requested by a config", cmd_export, CONFIG),
}


def _cross_check_error(args) -> str | None:
    """Why the cross-check of `subgroup` cannot run, if it cannot."""
    if getattr(args, "cross_check", False) and 2 * args.modulus > MAX_MODULUS:
        return (
            f"--cross-check recomputes at modulus {2 * args.modulus}, above the limit "
            f"{MAX_MODULUS}; pass --no-cross-check"
        )
    return None


def _read_plain(name: str, argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a plain command line, without argparse; None for
    any other line.  A plain line gives each option by its exact name at
    most once, each value as the next word, and the generating words of
    `subgroup` and `orbits` as one run; neither a value nor a word starts
    with "-".  Its required options are there and its values pass their
    checks.  argparse parses a plain line to the same arguments."""
    command = COMMANDS[name]
    flags = {f"--{option.name}": (option, True) for option in command.options}
    flags.update(
        {f"--no-{option.name}": (option, False) for option in command.options if option.negatable}
    )
    found, words, words_ended = {}, [], False
    rest = iter(argv)
    for word in rest:
        if not word.startswith("-"):
            if command.words is None or words_ended:
                return None
            words.append(word)
            continue
        words_ended = bool(words)
        option, value = flags.get(word, (None, None))
        if option is None or option.dest in found:
            return None
        if option.type is not None:
            value = next(rest, "-")  # a missing value reads as "-"
            if value.startswith("-"):
                return None
            try:
                value = option.type(value)
                if option.check is not None:
                    option.check(value)
            except ValueError:  # argparse reports it
                return None
        found[option.dest] = value
    if command.words is not None:
        if not words:
            return None
        found["words"] = words
    for option in command.options:
        if option.dest not in found:
            if option.required:
                return None
            found[option.dest] = option.default
    args = SimpleNamespace(**found)
    return None if _cross_check_error(args) else args


def _argument_type(option: Option):
    """The option's type and check as one argparse type: a word the type
    refuses is an "invalid <dest> value", and a value the check refuses
    gets the check's message."""
    if option.check is None:
        return option.type
    import argparse

    def convert(text: str):
        value = option.type(text)
        try:
            option.check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    convert.__name__ = option.dest  # argparse names the type in its errors
    return convert


def _add_arguments(parser, command: Command) -> None:
    import argparse

    if command.words is not None:
        parser.add_argument("words", nargs="+", help=command.words)
    for option in command.options:
        flag = f"--{option.name}"
        common = dict(default=option.default, required=option.required, help=option.help)
        if option.type is not None:
            parser.add_argument(flag, type=_argument_type(option), **common)
        elif option.negatable:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, **common)
        else:
            parser.add_argument(flag, action="store_true", **common)


def _command_parser(name: str):
    """The parser of one command, with the prog and help that the top-level
    parser gives it as a subcommand."""
    import argparse

    parser = argparse.ArgumentParser(prog=f"{PROG} {name}")
    _add_arguments(parser, COMMANDS[name])
    return parser


def _top_parser():
    """Every command under one parser: only needed to list the commands or
    to reject input that does not start with one."""
    import argparse

    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact symmetry computations and crystal colorings on the cubic honeycomb.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        _add_arguments(commands.add_parser(name, help=command.help), command)
    return parser


def _parse(argv: list[str]) -> tuple[str, object]:
    """The command and arguments argparse parses argv to, with only that
    command's parser when argv starts with one; SystemExit after help or
    an error."""
    if argv and argv[0] in COMMANDS:
        name, parser, argv = argv[0], _command_parser(argv[0]), argv[1:]
    else:
        name, parser = None, _top_parser()
    args = parser.parse_args(argv)
    error = _cross_check_error(args)
    if error:
        parser.error(error)
    return name or args.command, args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a plain line is read directly: importing argparse and building a first
    # parser cost more than a short command's own work; argparse parses
    # every other line, so it prints all help and errors
    name = argv[0] if argv else None
    args = _read_plain(name, argv[1:]) if name in COMMANDS else None
    if args is None:
        try:
            name, args = _parse(argv)
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
