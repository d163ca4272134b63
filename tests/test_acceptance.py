"""Acceptance gate: one test per published behavior contract.

Each test is a self-contained statement of one required behavior, numbered
so the verbose pytest report reads as a checklist.  Every expected constant
was cross-checked against the brute-force reference in oracle.py before
being frozen here.  Tests state requirements as given.  A required constant
is corrected only when a proof independent of the torus computation backs
the new value, and the proof is written down next to the corrected
assertion; the computation itself is never adjusted to meet a constant.
"""

import filecmp

import pytest

import oracle
from honeycomb434.cli import main
from honeycomb434.coloring import (
    OrbitPlan,
    build_coloring,
    color_group,
    stoichiometry,
    verify_theorem,
)
from honeycomb434.crystal import preset, substitute
from honeycomb434.isometry import (
    GENERATORS,
    check_presentation,
    dihedral_angle_check,
    eval_word,
)
from honeycomb434.orbits import decompose, stabilizer_codes
from honeycomb434.quotient import (
    build_group,
    build_subgroup,
    certify_translations,
    decode,
    index,
)

from conftest import sigma_of

WORDS_HALF = ("Q", "R", "S", "PQP")
WORDS_QUARTER_AS_WRITTEN = ("Q", "R", "S", "PQRQP")
WORDS_EIGHTH = ("Q", "R", "S", "(SRQPQR)^2")
# the smallest overgroup of the eighth subgroup with index 4: replaces the
# palindrome above, whose group turns out to coincide with the index-2 one
WORDS_QUARTER = ("Q", "R", "S", "QPQRQPQRP")


def certified(group, words):
    return certify_translations(build_subgroup(group, words))


@pytest.fixture(scope="module")
def g2():
    return build_group(2)


@pytest.fixture(scope="module")
def g4():
    return build_group(4)


@pytest.fixture(scope="module")
def two_coloring(g2):
    full = certified(g2, ("P", "Q", "R", "S"))
    half = certified(g2, WORDS_HALF)
    return full, half, build_coloring(
        full, [OrbitPlan(0, half, ("light-blue", "white"))]
    )


@pytest.fixture(scope="module")
def three_coloring(g2):
    quarter = certified(g2, WORDS_QUARTER)
    eighth = certified(g2, WORDS_EIGHTH)
    anchor_orbit = decompose(quarter).orbit_of((0, 0, 1)).index
    return quarter, eighth, build_coloring(
        quarter,
        [OrbitPlan(anchor_orbit, eighth, ("dark-blue", "green"))],
        background="white",
    )


def test_01_presentation_suite():
    checks = check_presentation()
    assert all(c.ok for c in checks), [c.relator for c in checks if not c.ok]
    assert len(checks) == 10
    for check in checks:
        assert check.residual.perm == (0, 1, 2)
        assert check.residual.signs == (1, 1, 1)
        assert check.residual.trans == (0, 0, 0)
    angles, angles_ok = dihedral_angle_check()
    assert angles_ok
    named = [a.angle for a in angles]
    assert named == ["pi/4", "pi/3", "pi/4", "pi/2", "pi/2", "pi/2"]
    assert sorted(named) == sorted(["pi/4", "pi/3", "pi/4", "pi/2", "pi/2", "pi/2"])


def test_02_vertex_transitivity(g2, g4):
    for group in (g2, g4):
        full = certified(group, ("P", "Q", "R", "S"))
        dec = decompose(full)
        assert len(dec.orbits) == 1
        assert len(dec.orbits[0].vertices) == group.modulus**3


def test_03_base_vertex_stabilizer(g2):
    full = certified(g2, ("P", "Q", "R", "S"))
    stab = stabilizer_codes(full, (1, 1, 1))
    assert len(stab) == 48
    for el in (GENERATORS["Q"], GENERATORS["R"], eval_word("PQRSRQP")):
        assert el.apply((1, 1, 1)) == (1, 1, 1)


def test_04_subgroup_indices(g2, g4):
    # The chain G > half > quarter > eighth has indices 2, 4 and 8 in G.
    # The requirement once named <Q,R,S,PQRQP> as the index-4 subgroup, but
    # that group is the half subgroup:
    #  - PQRQP is R conjugated by PQ, the reflection (x, y, z) -> (x, 1-z, 1-y)
    #    in the plane y + z = 1;
    #  - <Q,R,S> is the 48-element point group at the origin and holds the
    #    reflection in y + z = 0; the product of the two reflections is the
    #    translation (0, 1, 1), whose conjugates under <Q,R,S> span the
    #    lattice of vectors with even coordinate sum, so the group contains
    #    the whole half subgroup;
    #  - Q, R, S and PQRQP all preserve x + y + z mod 2, so the group lies
    #    inside the half subgroup.
    # Hence [G : <Q,R,S,PQRQP>] = 2 and [<Q,R,S,PQRQP> : eighth] = 4.  The
    # index-4 subgroup the colorings use adds QPQRQPQRP, the inversion
    # v -> (1, 1, 1) - v through a body center.  Coset enumeration in the
    # infinite group (test_todd_coxeter.py) and the brute-force closure in
    # oracle.py (test_11) confirm these values independently of the torus.
    # Each index is required to be the same at both moduli.
    expected = {
        "half": 2,
        "quarter": 4,
        "quarter:eighth": 2,
        "literal": 2,
        "literal:eighth": 4,
        "eighth": 8,
    }
    for group in (g2, g4):
        full = certified(group, ("P", "Q", "R", "S"))
        half = certified(group, WORDS_HALF)
        quarter = certified(group, WORDS_QUARTER)
        literal = certified(group, WORDS_QUARTER_AS_WRITTEN)
        eighth = certified(group, WORDS_EIGHTH)
        for sub in (half, quarter, literal, eighth):
            assert sub.certified, sub.generator_words
        got = {
            "half": index(full, half),
            "quarter": index(full, quarter),
            "quarter:eighth": index(quarter, eighth),
            "literal": index(full, literal),
            "literal:eighth": index(literal, eighth),
            "eighth": index(full, eighth),
        }
        assert got == expected, f"N={group.modulus}"
        assert literal.elements == half.elements


def test_05_orbit_counts(g2):
    quarter_as_written = certified(g2, WORDS_QUARTER_AS_WRITTEN)
    eighth = certified(g2, WORDS_EIGHTH)
    assert len(decompose(quarter_as_written).orbits) == 2
    assert len(decompose(eighth).orbits) == 4


def test_06_two_coloring_is_perfect(g2, two_coloring):
    full, half, coloring = two_coloring
    cg = color_group(coloring)
    assert cg.subgroup.elements == g2.elements
    assert cg.subgroup.order == 384
    assert sigma_of(cg, GENERATORS["P"]) == (1, 0)
    for sym in ("Q", "R", "S"):
        assert sigma_of(cg, GENERATORS[sym]) == (0, 1)


def test_07_three_coloring_color_group(g2, three_coloring):
    quarter, eighth, coloring = three_coloring
    assert len(coloring.labels) == 3
    cg = color_group(coloring)
    assert cg.subgroup.elements <= quarter.elements
    assert quarter.elements <= cg.subgroup.elements
    assert sigma_of(cg, GENERATORS["P"]) is None


def test_08_theorem_verification(two_coloring, three_coloring):
    full, half, two = two_coloring
    report = verify_theorem(full, half, (1, 1, 1), two)
    assert report.ok, [p for p in report.parts if not p.ok]
    assert report.parts[4].detail == "8 = 2*4"

    quarter, eighth, three = three_coloring
    report = verify_theorem(quarter, eighth, (0, 0, 1), three)
    assert report.ok, [p for p in report.parts if not p.ok]
    assert report.parts[4].detail == "6 = 2*3"


def test_09_stoichiometry_ratios():
    assert stoichiometry(preset("rock-salt").coloring).ratio_text == "1:1"
    assert stoichiometry(preset("ReO3").coloring).ratio_text == "1:3"
    assert stoichiometry(preset("perovskite").coloring).ratio_text == "1:1:3"


def test_10_crystal_presets_and_substitutions():
    reo3 = preset("ReO3")
    assert stoichiometry(reo3.coloring).ratio == (1, 3)
    assert reo3.formula == "ReO3"
    pv = preset("perovskite")
    assert stoichiometry(pv.coloring).ratio == (1, 1, 3)
    assert pv.formula == "CaTiO3"

    for mapping, expected in [
        ({"black": "Ba", "yellow": "Ti", "brown": "O"}, "BaTiO3"),
        ({"black": "Pb", "yellow": "Zr", "brown": "O"}, "PbZrO3"),
        ({"black": "Pb", "yellow": "Ti", "brown": "O"}, "PbTiO3"),
    ]:
        out = substitute(pv, mapping)
        assert out.formula == expected
        assert out.coloring.assignment.tobytes() == pv.coloring.assignment.tobytes()
        assert color_classes(out.coloring) == color_classes(pv.coloring)

    rs = preset("rock-salt")
    for mapping, expected in [
        ({"light-blue": "Ag", "white": "Cl"}, "AgCl"),
        ({"light-blue": "Ca", "white": "O"}, "CaO"),
        ({"light-blue": "Na", "white": "F"}, "NaF"),
        ({"light-blue": "K", "white": "Br"}, "KBr"),
    ]:
        out = substitute(rs, mapping)
        assert out.formula == expected
        assert out.coloring.assignment.tobytes() == rs.coloring.assignment.tobytes()


def color_classes(coloring):
    """The oracle's classes of a coloring: label -> frozenset of vertices."""
    return oracle.color_classes({v: coloring.label_of(v) for v in coloring.vertices()})


def as_oracle(iso):
    """Package isometry -> the oracle's (matrix rows, translation) form."""
    rows = []
    for i in range(3):
        row = [0, 0, 0]
        row[iso.perm[i]] = iso.signs[i]
        rows.append(tuple(row))
    return (tuple(rows), iso.trans)


def test_11_brute_force_oracle(g2, two_coloring, three_coloring):
    n = 2
    # group order and full enumeration agree
    ours = {as_oracle(el) for el in g2.elements}
    theirs = oracle.full_group(n)
    assert ours == theirs and len(ours) == 384

    # subgroup closures, Lagrange, orbits, orbit-stabilizer
    letter_words = {
        WORDS_HALF: ["Q", "R", "S", "PQP"],
        WORDS_QUARTER: ["Q", "R", "S", "QPQRQPQRP"],
        WORDS_QUARTER_AS_WRITTEN: ["Q", "R", "S", "PQRQP"],
        WORDS_EIGHTH: ["Q", "R", "S", "SRQPQRSRQPQR"],
    }
    closures = {}
    for words, letters in letter_words.items():
        sub = certified(g2, words)
        closure = oracle.closure([oracle.eval_letters(w) for w in letters], n)
        assert {as_oracle(el) for el in sub.elements} == closure
        closures[words] = closure
        assert len(theirs) % len(closure) == 0
        assert len(theirs) // len(closure) == index(certified(g2, ("P", "Q", "R", "S")), sub)
        dec = decompose(sub)
        expected_orbits = oracle.all_orbits(closure, n)
        assert [(o.representative, frozenset(o.vertices)) for o in dec.orbits] == expected_orbits
        for rep, orb in expected_orbits:
            stab = oracle.stabilizer(closure, rep, n)
            assert len(orb) * len(stab) == len(closure)
            assert {as_oracle(el) for el in decode(stabilizer_codes(sub, rep), n)} == stab
    # the literal words close to the half subgroup, as test_04 states
    assert len(closures[WORDS_QUARTER_AS_WRITTEN]) == 192
    assert closures[WORDS_QUARTER_AS_WRITTEN] == closures[WORDS_HALF]

    # coset-color bijection on the planned orbit of each reference coloring
    for (h, j, coloring), anchor in (
        (two_coloring, (0, 0, 0)),
        (three_coloring, (0, 0, 1)),
    ):
        h_el = {as_oracle(el) for el in h.elements}
        j_el = {as_oracle(el) for el in j.elements}
        cosets = oracle.left_cosets(h_el, j_el, n)
        coset_images = {
            frozenset(oracle.act(g, anchor, n) for g in coset) for coset in cosets
        }
        orbit_vertices = oracle.orbit(h_el, anchor, n)
        on_orbit = {
            label: frozenset(vs) & orbit_vertices
            for label, vs in color_classes(coloring).items()
        }
        color_sets = {vs for vs in on_orbit.values() if vs}
        assert coset_images == color_sets
        assert len(cosets) == len(color_sets)

    # color group membership agrees with the brute-force permutation test
    for (h, j, coloring), expected_order in (
        (two_coloring, 384),
        (three_coloring, 96),
    ):
        classes = oracle.color_classes(
            {v: coloring.label_of(v) for v in coloring.vertices()}
        )
        brute = {g for g in theirs if oracle.permutes_classes(g, classes, n)}
        assert len(brute) == expected_order
        cg = color_group(coloring)
        assert {as_oracle(el) for el in cg.subgroup.elements} == brute


def test_12_bundled_config_determinism(tmp_path, capsys):
    for name in ("rock-salt", "nbo", "reo3", "perovskite"):
        runs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"{name}-{tag}"
            assert main(["color", "--config", name, "--out-dir", str(out_dir)]) == 0
            assert main(["export", "--config", name, "--out-dir", str(out_dir)]) == 0
            runs.append(out_dir)
        capsys.readouterr()
        a, b = runs
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        assert names_a == names_b and len(names_a) == 4
        match, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
        assert mismatch == [] and errors == []
        assert match == names_a
