import argparse
import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from honeycomb434 import cli, quotient
from honeycomb434.cli import main

from conftest import oversized_witness_words

BUNDLED = ("rock-salt", "nbo", "reo3", "perovskite")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_passes(capsys):
    code, out, err = run(capsys, "check")
    assert code == 0
    assert out.count(": ok") >= 11
    assert "relator (PQ)^4: ok" in out
    assert "mirror angles: pi/4 pi/3 pi/4 pi/2 pi/2 pi/2" in out
    assert "check passed: 10 relators hold, angle multiset matches" in out


def test_check_perturbed_fails(capsys):
    code, out, err = run(capsys, "check", "--perturb")
    assert code == 4
    assert out == (
        "relator P^2: ok\n"
        "relator Q^2: ok\n"
        "relator R^2: ok\n"
        "relator S^2: ok\n"
        "relator (PQ)^4: FAIL, evaluates to translation (0, 0, 8)\n"
        "relator (QR)^3: FAIL, evaluates to "
        "Isometry(perm=(1, 0, 2), signs=(1, 1, -1), trans=(0, 0, -1))\n"
        "relator (RS)^4: ok\n"
        "relator (PR)^2: ok\n"
        "relator (PS)^2: ok\n"
        "relator (QS)^2: ok\n"
        "mirror angles: pi/4 pi/3 pi/4 pi/2 pi/2 pi/2\n"
        "angle multiset: ok\n"
        "check failed: 2 relator(s) broken\n"
    )


def test_subgroup_with_cross_check(capsys):
    code, out, err = run(capsys, "subgroup", "Q", "R", "S", "PQP", "--modulus", "2")
    assert code == 0
    assert "modulus 2: order 192, index 2, certificate yes" in out
    assert "modulus 4: order 1536, index 2 (agrees)" in out
    assert "translation (2, 0, 0): " in out
    assert "translation (0, 2, 0): " in out
    assert "translation (0, 0, 2): " in out


def test_subgroup_without_cross_check(capsys):
    code, out, err = run(
        capsys, "subgroup", "Q", "R", "S", "(SRQPQR)^2",
        "--modulus", "2", "--no-cross-check",
    )
    assert code == 0
    assert "order 48, index 8" in out
    assert "modulus 4" not in out


def test_orbits_listing(capsys):
    code, out, err = run(
        capsys, "orbits", "Q", "R", "S", "(SRQPQR)^2", "--modulus", "2"
    )
    assert code == 0
    assert "4 orbit(s) under a subgroup of order 48" in out
    assert "orbit 0: representative (0, 0, 0), size 1, stabilizer order 48" in out
    assert "orbit 1: representative (0, 0, 1), size 3, stabilizer order 16" in out
    assert "orbit 3: representative (1, 1, 1), size 1, stabilizer order 48" in out


def test_bad_word_is_a_usage_error(capsys):
    code, out, err = run(capsys, "subgroup", "P!")
    assert code == 2
    assert "error:" in err
    assert "unexpected character" in err
    code, out, err = run(capsys, "subgroup", "(P)^" + "1" * 5000)
    assert code == 2
    assert "flattens to more than 10000 letters" in err


def test_deeply_nested_word_is_a_usage_error(capsys):
    # a usage error, not a RecursionError traceback with exit 1
    code, out, err = run(capsys, "subgroup", "(" * 5000)
    assert code == 2
    assert err.startswith("error: '((((")
    assert err.endswith("(5000 characters) nests groups more than 100 deep\n")


def test_syntax_errors_quote_long_words_in_part(capsys):
    # stderr stays short however long the word
    code, out, err = run(capsys, "subgroup", "P" * 10_000 + "!")
    assert code == 2
    assert "unexpected character '!' at position 10000 in 'PPPP" in err
    assert len(err.encode()) < 200
    # past the letter cap the word is refused at its 10,001st letter
    code, out, err = run(capsys, "subgroup", "P" * 100_000 + "!")
    assert code == 2
    assert "(100001 characters) flattens to more than 10000 letters" in err
    assert len(err.encode()) < 200
    code, out, err = run(capsys, "subgroup", "P!")
    assert err == "error: unexpected character '!' at position 1 in 'P!'\n"


def test_finite_subgroup_fails_certification(capsys):
    code, out, err = run(capsys, "subgroup", "Q")
    assert code == 3
    assert "certification failed" in err
    assert "no certificate exists" in err
    assert "advice" not in err


def test_small_radius_gets_advice(capsys):
    # no search radius could certify SRQPQR: the error is an exact "no"
    # with no advice, and there is no --radius option to retry with
    code, out, err = run(capsys, "subgroup", "SRQPQR")
    assert code == 3
    assert err == (
        "certification failed: translations (2, 0, 0) not reachable from "
        "['S·R·Q·P·Q·R'] (no certificate exists)\n"
    )
    code, out, err = run(capsys, "subgroup", "SRQPQR", "--radius", "8")
    assert code == 2
    assert "unrecognized arguments: --radius 8" in err


def test_long_words_are_cut_short_in_certification_errors(capsys):
    code, out, err = run(
        capsys, "subgroup", "(QPQRSR)^301", "(RQPQRS)^301", "(PQRSRQ)^301", "--no-cross-check"
    )
    assert code == 3
    assert len(err.encode()) < 1024
    assert "(2, 0, 0)" in err
    assert "no certificate exists" in err
    assert err.count("…(1806 letters)") == 3


def test_larger_radius_resolves_it(capsys):
    # certified with no search radius to choose
    words = ("Q", "R", "S", "QPQRQPQRP")
    code, out, err = run(capsys, "subgroup", *words, "--no-cross-check")
    assert code == 0
    assert "order 96, index 4" in out


def test_a_missed_witness_is_a_precondition_error(monkeypatch, capsys):
    monkeypatch.setattr(quotient, "_SEARCH_DEPTH", 1)
    code, out, err = run(capsys, "subgroup", "Q", "R", "S", "QPQRQPQRP", "--no-cross-check")
    assert code == 3
    assert err.startswith("certification failed: translations (2, 0, 0) lie in the lattice")
    assert err.endswith("but no witness was found within 1 generator factors\n")


def test_an_oversized_witness_is_a_precondition_error(capsys):
    words = oversized_witness_words()
    code, out, err = run(capsys, "subgroup", *words, "--modulus", "16", "--no-cross-check")
    assert (code, out) == (3, "")
    assert err == (
        "certification failed: the witness for (16, 0, 0) would spell "
        "33382178989097837440000 letters, above the limit 1000000\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("subgroup", "P", "--modulus", "1000000"), "modulus 1000000 is above the limit 16"),
        (("orbits", "P", "--modulus", "18"), "modulus 18 is above the limit 16"),
        (("orbits", "P", "--modulus", "3"), "even integer"),
        # the cross-check would build the group at twice the modulus
        (("subgroup", "P", "--modulus", "16"), "recomputes at modulus 32"),
    ],
)
def test_sizes_above_the_limits_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["paint"]) == 2


# The -h texts and the top-level errors below were captured when main still
# built every subcommand parser on each call; they must not change.
HELP = {
    (): '''\
usage: honeycomb434 [-h] command ...

Exact symmetry computations and crystal colorings on the cubic honeycomb.

positional arguments:
  command
    check     verify the generator relations and mirror angles
    subgroup  order, index and translation certificate of a subgroup
    orbits    orbit decomposition of the torus under a subgroup
    color     build a coloring from a config, verify it, write the class file
    export    write the exports requested by a config

options:
  -h, --help  show this help message and exit
''',
    ("check",): '''\
usage: honeycomb434 check [-h] [--perturb]

options:
  -h, --help  show this help message and exit
  --perturb   replace one mirror by a parallel plane and watch the relations
              fail
''',
    ("subgroup",): '''\
usage: honeycomb434 subgroup [-h] [--modulus MODULUS]
                             [--cross-check | --no-cross-check]
                             words [words ...]

positional arguments:
  words                 generating words over P, Q, R, S

options:
  -h, --help            show this help message and exit
  --modulus MODULUS     torus period (even, at most 16, default 2)
  --cross-check, --no-cross-check
                        recompute at twice the modulus and compare the index
''',
    ("orbits",): '''\
usage: honeycomb434 orbits [-h] [--modulus MODULUS] words [words ...]

positional arguments:
  words              generating words over P, Q, R, S

options:
  -h, --help         show this help message and exit
  --modulus MODULUS  torus period (even, at most 16, default 2)
''',
    ("color",): '''\
usage: honeycomb434 color [-h] --config CONFIG [--out-dir OUT_DIR]

options:
  -h, --help         show this help message and exit
  --config CONFIG    config file path or bundled name
  --out-dir OUT_DIR  directory for output files
''',
    ("export",): '''\
usage: honeycomb434 export [-h] --config CONFIG [--out-dir OUT_DIR]

options:
  -h, --help         show this help message and exit
  --config CONFIG    config file path or bundled name
  --out-dir OUT_DIR  directory for output files
''',
}

TOP_USAGE = "usage: honeycomb434 [-h] command ...\n"
CHOICES = "(choose from 'check', 'subgroup', 'orbits', 'color', 'export')"


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: " ".join(c) or "top")
def test_help_texts_are_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    for flag in ("-h", "--help"):
        assert run(capsys, *command, flag) == (0, HELP[command], "")


@pytest.mark.parametrize(
    "argv, err",
    [
        ([], "the following arguments are required: command"),
        (["paint"], f"argument command: invalid choice: 'paint' {CHOICES}"),
        (["--", "check"], f"argument command: invalid choice: '--' {CHOICES}"),
    ],
    ids=["nothing", "paint", "-- check"],
)
def test_input_without_a_command_gets_the_top_level_usage(monkeypatch, capsys, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (2, "", f"{TOP_USAGE}honeycomb434: error: {err}\n")


@pytest.mark.parametrize(
    "argv, usage, err",
    [
        (["check", "extra"], "usage: honeycomb434 check [-h] [--perturb]\n",
         "unrecognized arguments: extra"),
        (["check", "--", "x"], "usage: honeycomb434 check [-h] [--perturb]\n",
         "unrecognized arguments: -- x"),
        (
            ["subgroup", "P", "--modulus", "16"],
            "usage: honeycomb434 subgroup [-h] [--modulus MODULUS]\n"
            "                             [--cross-check | --no-cross-check]\n"
            "                             words [words ...]\n",
            "--cross-check recomputes at modulus 32, above the limit 16; pass --no-cross-check",
        ),
    ],
    ids=["check extra", "check -- x", "subgroup --modulus 16"],
)
def test_errors_after_a_command_show_that_commands_usage(monkeypatch, capsys, argv, usage, err):
    monkeypatch.setenv("COLUMNS", "80")
    prog = f"honeycomb434 {argv[0]}"
    assert run(capsys, *argv) == (2, "", f"{usage}{prog}: error: {err}\n")


def test_a_command_builds_only_its_own_parser(monkeypatch, capsys):
    # a plain line builds no parser; any other line builds only its
    # command's parser
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "check")
    assert code == 0, err
    assert built == []
    for argv, expected in ((["check", "--help"], 0), (["check", "extra"], 2)):
        built.clear()
        assert run(capsys, *argv)[0] == expected
        assert built == ["honeycomb434 check"]


MODULI = st.sampled_from(["2", "4", "8", "16", "0", "3", "-2", "x", "1e3", " 4", "+4", "4_0", "٤"])
PATHS = st.sampled_from(["rock-salt", "nbo", "out", "out dir", "", "-h", "--"])
WORDS = st.sampled_from(["P", "Q", "QPQ", "(SRQPQR)^2", "-P", ""])
# each command's options as a user types them, and whether it takes words
OPTIONS = {
    "check": ([st.just(["--perturb"])], False),
    "subgroup": (
        [
            MODULI.map(lambda value: ["--modulus", value]),
            st.sampled_from([["--cross-check"], ["--no-cross-check"]]),
        ],
        True,
    ),
    "orbits": ([MODULI.map(lambda value: ["--modulus", value])], True),
    "color": (
        [
            PATHS.map(lambda value: ["--config", value]),
            PATHS.map(lambda value: ["--out-dir", value]),
        ],
        False,
    ),
}
OPTIONS["export"] = OPTIONS["color"]
# words argparse reads or refuses that a plain line never holds
OTHER = st.sampled_from([
    "--", "-h", "--help", "--pert", "--cross", "--no-cross", "--mod", "--conf", "--out",
    "--modulus=4", "--config=nbo", "--out-dir=out", "--modulus", "--config", "-2", "extra",
])


@st.composite
def command_lines(draw):
    """A command and the words after it: some of its options once each, in
    any order, and a run of words if it takes them; then at times more
    options, runs of words or other words, anywhere."""
    name = draw(st.sampled_from(list(OPTIONS)))
    options, takes_words = OPTIONS[name]
    order = draw(st.permutations(options))
    pieces = [draw(option) for option in order[: draw(st.integers(0, len(options)))]]
    extras = [st.lists(WORDS, min_size=1, max_size=3), OTHER.map(lambda word: [word]), *options]
    for piece in [draw(extras[0])] * takes_words + draw(st.lists(st.one_of(extras), max_size=2)):
        pieces.insert(draw(st.integers(0, len(pieces))), piece)
    return name, [word for piece in pieces for word in piece]


@settings(max_examples=400, deadline=None)
@given(command_lines())
@example(("subgroup", ["Q", "R", "--modulus", "4", "--no-cross-check"]))
@example(("orbits", ["--modulus", "16", "P", "Q"]))
@example(("color", ["--out-dir", "out", "--config", "nbo"]))
@example(("check", ["--perturb"]))
def test_argparse_parses_every_plain_line_to_the_same_arguments(line):
    name, argv = line
    plain = cli._read_plain(name, argv)
    if plain is None:
        return
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        try:
            parsed_name, parsed = cli._parse([name, *argv])
        except SystemExit:
            pytest.fail(f"argparse refuses {[name, *argv]}: {stderr.getvalue()}")
    assert parsed_name == name
    assert vars(plain) == vars(parsed)


def test_lines_argparse_must_read_are_not_plain():
    # abbreviations, = forms, --, -h, repeats, values that start with -,
    # words around an option, refused moduli and the cross-check limit
    for argv in (
        ["subgroup", "P", "--mod", "4"],
        ["subgroup", "P", "--modulus=4"],
        ["subgroup", "--", "P"],
        ["subgroup", "P", "-h"],
        ["check", "--perturb", "--perturb"],
        ["subgroup", "P", "--cross-check", "--no-cross-check"],
        ["orbits", "P", "--modulus", "-2"],
        ["subgroup", "P", "--no-cross-check", "Q"],
        ["orbits", "P", "--modulus", "3"],
        ["orbits", "P", "--modulus", "x"],
        ["subgroup", "P", "--modulus", "16"],
        ["subgroup"],
        ["color", "--out-dir", "out"],
        ["check", "extra"],
    ):
        assert cli._read_plain(argv[0], argv[1:]) is None, argv


def test_color_command(tmp_path, capsys):
    code, out, err = run(
        capsys, "color", "--config", "perovskite", "--out-dir", str(tmp_path)
    )
    assert code == 0
    written = tmp_path / "perovskite.coloring"
    assert written.exists()
    assert f"wrote {written}" in out
    assert "color black: 1 per period" in out
    assert "color white: 3 per period (background)" in out
    assert "orbit 0, part 1: coset action equivalence: ok" in out
    assert "orbit 3, part 4b: |orbit| = [H:J]*[J:Stab]: ok" in out
    assert "color group: order 96 of 384 (not perfect)" in out
    assert "FAIL" not in out

    from honeycomb434.coloring import VertexColoring

    coloring = VertexColoring.from_text(written.read_text())
    assert coloring.counts() == {"black": 1, "brown": 3, "yellow": 1, "white": 3}
    assert coloring.color_table[0].element == "Ca"


def test_color_creates_the_directory_of_a_nested_output(tmp_path, capsys):
    with open("src/honeycomb434/configs/rock-salt.json") as f:
        cfg = json.load(f)
    cfg["coloring"]["output"] = "nested/deeper/x.coloring"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "color", "--config", str(path), "--out-dir", str(out_dir))
    assert code == 0, err
    written = out_dir / "nested" / "deeper" / "x.coloring"
    assert f"wrote {written}" in out
    assert written.read_text().startswith("modulus 2\n")


@pytest.mark.parametrize("command", ["color", "export"])
def test_unknown_element_labels_are_config_errors(tmp_path, capsys, command):
    with open("src/honeycomb434/configs/rock-salt.json") as f:
        cfg = json.load(f)
    cfg["elements"].update(zzz="X", aaa="Y")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, "--config", str(path), "--out-dir", str(out_dir))
    assert (code, out) == (2, "")
    assert err == "error: 'elements' names unknown color labels: ['aaa', 'zzz']\n"
    assert not out_dir.exists()


def test_color_reports_a_perfect_group(tmp_path, capsys):
    code, out, err = run(
        capsys, "color", "--config", "rock-salt", "--out-dir", str(tmp_path)
    )
    assert code == 0
    assert "color group: order 384 of 384 (perfect)" in out


def test_export_command(tmp_path, capsys):
    code, out, err = run(
        capsys, "export", "--config", "rock-salt", "--out-dir", str(tmp_path)
    )
    assert code == 0
    for name in ("rock-salt.xyz", "rock-salt.off", "rock-salt-report.txt"):
        assert (tmp_path / name).exists()
        assert f"wrote {tmp_path / name}" in out
    xyz = (tmp_path / "rock-salt.xyz").read_text().splitlines()
    assert xyz[0] == "8"
    assert xyz[1] == "rock-salt NaCl region=1x1x1 modulus=2"
    off = (tmp_path / "rock-salt.off").read_text().splitlines()
    assert off[0] == "OFF"
    # the off region is 2x2x2 cells = 64 sites
    assert off[1] == "512 384 0"
    report = (tmp_path / "rock-salt-report.txt").read_text()
    assert "formula: NaCl" in report


def test_all_bundled_configs_run_and_are_deterministic(tmp_path, capsys):
    for name in BUNDLED:
        one = tmp_path / f"{name}-1"
        two = tmp_path / f"{name}-2"
        for target in (one, two):
            code, out, err = run(
                capsys, "color", "--config", name, "--out-dir", str(target)
            )
            assert code == 0, (name, err)
            code, out, err = run(
                capsys, "export", "--config", name, "--out-dir", str(target)
            )
            assert code == 0, (name, err)
        files1 = sorted(p.name for p in one.iterdir())
        files2 = sorted(p.name for p in two.iterdir())
        assert files1 == files2 and len(files1) == 4
        for fname in files1:
            assert (one / fname).read_bytes() == (two / fname).read_bytes(), fname


def test_config_from_explicit_path(tmp_path, capsys):
    cfg = {
        "family": "rock-salt",
        "modulus": 2,
        "subgroups": {"full": ["P", "Q", "R", "S"], "half": ["Q", "R", "S", "PQP"]},
        "coloring": {
            "group": "full",
            "plans": [
                {"orbit": 0, "subgroup": "half", "labels": ["light-blue", "white"]}
            ],
            "merges": [],
            "background": None,
            "output": "out.coloring",
        },
        "elements": {"light-blue": "Na", "white": "Cl"},
        "exports": [{"format": "xyz", "region": [1, 1, 1], "path": "out.xyz"}],
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "export", "--config", str(path), "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "out.xyz").read_text().splitlines()[0] == "8"


def test_unknown_bundled_name(capsys):
    code, out, err = run(capsys, "color", "--config", "fluorite")
    assert code == 2
    assert "error:" in err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "color", "--config", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda c: c.update(family=3), "family"),
        (lambda c: c.update(modulus="two"), "modulus"),
        (lambda c: c["coloring"].update(group="missing"), "group"),
        (lambda c: c["coloring"]["plans"][0].update(subgroup="missing"), "subgroup"),
        (lambda c: c["exports"][0].update(format="stl"), "format"),
        (lambda c: c["exports"][0].update(region=[1, 1]), "region"),
        # JSON true and false are bools, not the counts 1 and 0
        (lambda c: c["exports"][0].update(region=[True, 1, 1]), "three non-negative integers"),
        (lambda c: c["coloring"]["plans"][0].update(orbit=False), "'orbit' index"),
        (lambda c: c["exports"][0].update(path="/abs/path.xyz"), "path"),
        (lambda c: c["subgroups"].update(half="PQP"), "subgroup"),
        (lambda c: c["subgroups"].update(alternating=["Z"]), "subgroup 'alternating': unexpected character 'Z'"),
        (lambda c: c.update(modulus=3), "even integer"),
        (lambda c: c.update(modulus=10**6), "modulus 1000000 is above the limit 16"),
        # output paths are joined to --out-dir and must stay inside it
        (lambda c: c["coloring"].update(output="/abs/escaped.coloring"), "'coloring.output' must stay inside"),
        (lambda c: c["coloring"].update(output="../escaped.coloring"), "'coloring.output' must stay inside"),
        (lambda c: c["coloring"].update(output="sub/../../escaped.coloring"), "no '..'"),
        (lambda c: c["coloring"].update(output=""), "'coloring.output' must be a filename"),
        # without an output, the CLI names the file after the family
        (lambda c: (c["coloring"].pop("output"), c.update(family="../escaped")), "'coloring.output'"),
        (lambda c: c["exports"][2].update(path="../escaped-report.txt"), "export paths must stay inside"),
        (lambda c: c["exports"][0].update(path="a/../../escaped.xyz"), "no '..'"),
        # a path with no parts names --out-dir itself, not a file in it
        (lambda c: c["coloring"].update(output="."), "'coloring.output' must stay inside --out-dir and name a file"),
        (lambda c: c["coloring"].update(output="./"), "and name a file there"),
        (lambda c: c["exports"][1].update(path="."), "export paths must stay inside --out-dir and name a file"),
        (lambda c: c["exports"][0].update(path="./."), "and name a file there"),
        # each value's type is checked before it is iterated or looked up
        (lambda c: c.update(exports=5), "'exports' must be a list of export objects"),
        (lambda c: c.update(exports=None), "'exports' must be a list"),
        (lambda c: c["coloring"].update(group=["full"]), "'coloring.group' must name a defined subgroup"),
        (lambda c: c["coloring"]["plans"][0].update(subgroup={"a": 1}), "each plan's 'subgroup' must be defined"),
        (lambda c: c["exports"][0].update(format=["xyz"]), "export format must be one of"),
    ],
)
def test_config_validation_errors(tmp_path, capsys, mangle, message):
    with open("src/honeycomb434/configs/rock-salt.json") as f:
        cfg = json.load(f)
    mangle(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    # a config the validator wrongly passed would be built and written here
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "color", "--config", str(path), "--out-dir", str(out_dir))
    assert code == 2
    assert "error:" in err
    assert message in err
    assert not out_dir.exists()


def spaced_label(config):
    config["coloring"]["plans"][0]["labels"] = ["light blue", "white"]
    config["elements"] = {"light blue": "Na", "white": "Cl"}


@pytest.mark.parametrize("command", ["color", "export"])
@pytest.mark.parametrize(
    "mangle, message",
    [
        (spaced_label, "color label 'light blue' is not one word"),
        (lambda c: c["elements"].update(white="Cl -"), "color element symbol 'Cl -' is not one word"),
    ],
    ids=["label", "element"],
)
def test_a_label_a_coloring_file_cannot_hold_is_a_config_error(tmp_path, capsys, command, mangle, message):
    # the color command would write a .coloring file that from_text refuses
    with open("src/honeycomb434/configs/rock-salt.json") as f:
        cfg = json.load(f)
    mangle(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, "--config", str(path), "--out-dir", str(out_dir))
    assert code == 2
    assert message in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "mangle", [lambda c: c.update(exports=[]), lambda c: c.pop("exports")], ids=["empty", "absent"]
)
def test_export_without_exports_builds_and_writes_nothing(monkeypatch, tmp_path, capsys, mangle):
    with open("src/honeycomb434/configs/rock-salt.json") as f:
        cfg = json.load(f)
    mangle(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    def build(config):
        raise AssertionError("built a model for a config without exports")

    monkeypatch.setattr(cli, "build_from_config", build)
    out_dir = tmp_path / "made" / "here"
    code, out, err = run(capsys, "export", "--config", str(path), "--out-dir", str(out_dir))
    assert code == 2
    assert err == "config lists no exports\n"
    assert not (tmp_path / "made").exists()


def test_config_plan_violation_is_a_precondition_error(tmp_path, capsys):
    with open("src/honeycomb434/configs/rock-salt.json") as f:
        cfg = json.load(f)
    # one label for two cosets
    cfg["coloring"]["plans"][0]["labels"] = ["light-blue"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "color", "--config", str(path), "--out-dir", str(tmp_path))
    assert code == 3
    assert "2 cosets but 1 labels" in err


def test_color_passes_a_plan_with_one_coset_per_vertex(tmp_path, capsys):
    # J = <Q, R, S> times 4 Z^3 fixes only the origin's class: [H:J] = 64
    with open("src/honeycomb434/configs/rock-salt.json") as f:
        cfg = json.load(f)
    cfg["modulus"] = 4
    cfg["subgroups"]["origin"] = ["Q", "R", "S", "(QPQRSR)^4", "(RQPQRS)^4", "(PQRSRQ)^4"]
    cfg["coloring"]["plans"][0].update(subgroup="origin", labels=[f"c{i}" for i in range(64)])
    cfg["elements"] = {}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "color", "--config", str(path), "--out-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert "color c63: 1 per period" in out
    assert out.count(": ok\n") == 5
    assert "FAIL" not in out


def test_config_uncertifiable_subgroup_is_a_precondition_error(tmp_path, capsys):
    with open("src/honeycomb434/configs/rock-salt.json") as f:
        cfg = json.load(f)
    cfg["subgroups"]["tiny"] = ["Q", "R"]
    cfg["coloring"]["plans"][0]["subgroup"] = "tiny"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "color", "--config", str(path), "--out-dir", str(tmp_path))
    assert code == 3
    assert "no certificate exists" in err


def test_oversized_export_region_is_rejected_before_writing(tmp_path, capsys):
    with open("src/honeycomb434/configs/rock-salt.json") as f:
        cfg = json.load(f)
    cfg["exports"][1]["region"] = [10**6, 1, 1]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "export", "--config", str(path), "--out-dir", str(out_dir))
    assert code == 2
    assert "region 1000000x1x1 at modulus 2 covers more than 262144 sites" in err
    assert not out_dir.exists()


def test_unwritable_out_dir_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "plainfile"
    blocker.write_text("")
    code, out, err = run(
        capsys, "export", "--config", "rock-salt",
        "--out-dir", str(blocker / "sub"),
    )
    assert code == 5
    assert "i/o error" in err


def test_radius_override_applies_to_config_runs(tmp_path, capsys):
    # a config's "radius" is ignored, like any key the validator does not read
    with open("src/honeycomb434/configs/reo3.json") as f:
        cfg = json.load(f)
    cfg["radius"] = 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "color", "--config", str(path), "--out-dir", str(tmp_path))
    assert code == 0, err
    code, out, err = run(
        capsys, "color", "--config", "reo3", "--out-dir", str(tmp_path), "--radius", "2"
    )
    assert code == 2
    assert "unrecognized arguments: --radius 2" in err


@pytest.mark.parametrize("cross_check", ["--cross-check", "--no-cross-check"])
def test_subgroup_searches_for_witnesses_once(monkeypatch, capsys, cross_check):
    # the doubled modulus inherits the certificate: each witness spelled twice
    searches = []
    search = quotient._certificate_search

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(quotient, "_certificate_search", counted)
    code, out, err = run(capsys, "subgroup", "Q", "R", "S", "PQP", cross_check)
    assert code == 0
    assert len(searches) == 1
    assert ("modulus 4: order 1536, index 2 (agrees)" in out) == (cross_check == "--cross-check")
