import tracemalloc

import numpy as np
import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from honeycomb434 import coloring as coloring_module
from honeycomb434 import orbits as orbits_module
from honeycomb434 import quotient
from honeycomb434.coloring import (
    ColorInfo,
    OrbitPlan,
    PlanError,
    VertexColoring,
    build_coloring,
    color_action,
    color_group,
    stoichiometry,
    verify_theorem,
)
from honeycomb434.crystal import export_report, preset, substitute
from honeycomb434.isometry import GENERATORS, IDENTITY, eval_word
from honeycomb434.orbits import decompose
from honeycomb434.quotient import build_subgroup


@pytest.fixture(scope="module")
def rock_salt(subs2):
    return build_coloring(
        subs2["full"],
        [OrbitPlan(0, subs2["half"], ("light-blue", "white"))],
    )


@pytest.fixture(scope="module")
def nbo(subs2):
    return build_coloring(
        subs2["quarter"],
        [OrbitPlan(1, subs2["eighth"], ("dark-blue", "green"))],
        background="white",
    )


@pytest.fixture(scope="module")
def reo3(subs2):
    return build_coloring(
        subs2["eighth"],
        [
            OrbitPlan(0, subs2["eighth"], ("red",)),
            OrbitPlan(1, subs2["eighth"], ("orange",)),
        ],
        background="white",
    )


@pytest.fixture(scope="module")
def perovskite(subs2):
    return build_coloring(
        subs2["eighth"],
        [
            OrbitPlan(0, subs2["eighth"], ("black",)),
            OrbitPlan(2, subs2["eighth"], ("brown",)),
            OrbitPlan(3, subs2["eighth"], ("yellow",)),
        ],
        background="white",
    )


def test_rock_salt_is_the_parity_coloring(rock_salt):
    assert rock_salt.labels == ("light-blue", "white")
    assert rock_salt.counts() == {"light-blue": 4, "white": 4}
    assert rock_salt.label_of((0, 0, 0)) == "light-blue"
    assert rock_salt.label_of((0, 0, 1)) == "white"
    for v in rock_salt.vertices():
        expected = "light-blue" if sum(v) % 2 == 0 else "white"
        assert rock_salt.label_of(v) == expected


def test_rock_salt_color_action(rock_salt):
    swap = color_action(rock_salt, GENERATORS["P"])
    assert swap is not None and swap.mapping == (1, 0)
    for sym in "QRS":
        fix = color_action(rock_salt, GENERATORS[sym])
        assert fix is not None and fix.mapping == (0, 1)


def test_rock_salt_coloring_is_perfect(group2, rock_salt):
    cg = color_group(rock_salt)
    assert cg.subgroup.order == 384
    assert cg.subgroup.elements == group2.elements
    assert len(cg.sigma) == 384


def test_color_group_reuses_the_group_the_coloring_was_built_on(
    group2, nbo, monkeypatch
):
    loaded = VertexColoring.from_text(nbo.to_text())
    fresh = color_group(loaded)
    assert fresh.subgroup.parent.elements == group2.elements
    assert fresh.subgroup.order == 96

    def no_rebuild(modulus):
        raise AssertionError("color_group rebuilt the full group")

    monkeypatch.setattr(quotient, "build_group", no_rebuild)
    cg = color_group(nbo)
    assert cg.subgroup.parent is nbo.recipe.group.parent
    assert cg.subgroup.elements == fresh.subgroup.elements
    assert cg.sigma == fresh.sigma


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_color_action_pass_per_coloring(monkeypatch):
    passes = count_calls(monkeypatch, coloring_module, "_color_group_of")
    actions = count_calls(monkeypatch, coloring_module, "color_action")
    model = preset("rock-salt", 2)
    coloring = model.coloring
    h, plans = coloring.recipe.group, coloring.recipe.plans
    decomp = decompose(h)
    for plan in plans:
        rep = decomp.orbits[plan.orbit].representative
        assert verify_theorem(h, plan.subgroup, rep, coloring).ok
    assert color_group(coloring) is color_group(coloring)
    export_report(model)
    # one color-group pass, shared by all; it never calls color_action
    assert len(passes) == 1
    assert actions == []


def test_substitute_keeps_the_sigma_table(monkeypatch):
    passes = count_calls(monkeypatch, coloring_module, "_color_group_of")
    model = preset("rock-salt", 2)
    export_report(model)
    salt = substitute(model, {"light-blue": "Ag", "white": "Cl"})
    assert color_group(salt.coloring) is color_group(model.coloring)
    export_report(salt)
    assert len(passes) == 1


def test_one_orbit_decomposition_per_subgroup(monkeypatch):
    calls = count_calls(monkeypatch, orbits_module, "_orbit_decomposition")
    model = preset("perovskite", 2)
    coloring = model.coloring
    h, plans = coloring.recipe.group, coloring.recipe.plans
    for plan in plans:
        rep = decompose(h).orbits[plan.orbit].representative
        assert verify_theorem(h, plan.subgroup, rep, coloring).ok
    color_group(coloring)
    export_report(model)
    assert [args[0] for args in calls] == [h]


@pytest.mark.parametrize("modulus", [2, 4])
def test_sigma_matches_color_action_on_every_element(modulus):
    for name in ("rock-salt", "nbo", "reo3", "perovskite"):
        coloring = preset(name, modulus).coloring
        cg = color_group(coloring)
        full = coloring.recipe.group.parent
        assert_sigma_is_color_action(coloring, cg, full)


def assert_sigma_is_color_action(coloring, cg, full):
    expected = {}
    for g in full.elements:
        action = color_action(coloring, g)
        if action is None:
            assert cg.sigma.get(g) is None, g
        else:
            expected[g] = action.mapping
    assert cg.subgroup.elements == expected.keys()
    assert len(cg.sigma) == len(expected)
    assert cg.sigma == expected
    missing = next((g for g in full.elements if g not in expected), None)
    if missing is not None:
        with pytest.raises(KeyError):
            cg.sigma[missing]


def tiled(cell, modulus):
    """A coloring of the torus from labels on the 2x2x2 cell, or on the
    whole torus, repeated with that period."""
    cell = np.array(cell, dtype=np.int16)
    side = round(len(cell) ** (1 / 3))
    cell = cell.reshape(side, side, side)
    used = sorted(set(cell.ravel().tolist()))
    relabel = np.zeros(max(used) + 1, dtype=np.int16)
    relabel[used] = np.arange(len(used))
    assignment = np.tile(relabel[cell], (modulus // side,) * 3)
    table = tuple(ColorInfo(f"c{i}") for i in range(len(used)))
    return VertexColoring(modulus, table, assignment)


@st.composite
def random_colorings(draw):
    modulus = draw(st.sampled_from([2, 4]))
    side = draw(st.sampled_from([2, modulus]))
    colors = draw(st.integers(1, 4))
    cell = draw(st.lists(st.integers(0, colors - 1), min_size=side**3, max_size=side**3))
    return tiled(cell, modulus)


@settings(max_examples=20, deadline=None)
@given(random_colorings())
# a single vertex set apart: not perfect, and no translation but 0 permutes
@example(tiled([0, 0, 0, 0, 0, 0, 0, 1], 2))
# layers by x mod 2: only the 16 linear parts keeping the x axis permute
@example(tiled([0, 0, 0, 0, 1, 1, 1, 1], 4))
# the cell corners set apart at N = 4: the translations that permute are 2Z^3
@example(tiled([0, 1, 1, 1, 1, 1, 1, 1], 4))
def test_sigma_matches_color_action_on_random_colorings(coloring):
    full = quotient.build_group(coloring.modulus)
    assert_sigma_is_color_action(coloring, color_group(coloring), full)


def test_theorem_rejects_mismatched_moduli(subs2, subs4, rock_salt):
    # a rock-salt coloring at N = 2 checked against groups mod 4
    with pytest.raises(ValueError, match="moduli differ"):
        verify_theorem(subs4["full"], subs4["half"], (0, 0, 0), rock_salt)
    with pytest.raises(ValueError, match="moduli differ"):
        verify_theorem(subs2["full"], subs4["half"], (0, 0, 0), rock_salt)


def test_rock_salt_theorem(subs2, rock_salt):
    report = verify_theorem(subs2["full"], subs2["half"], (0, 0, 0), rock_salt)
    assert report.ok
    names = [p.part for p in report.parts]
    assert names == [
        "1: coset action equivalence",
        "2: colors on orbit = [H:J]",
        "3: color orbits <= vertex orbits",
        "4a: Stab_H(x) inside J",
        "4b: |orbit| = [H:J]*[J:Stab]",
    ]
    assert report.parts[4].detail == "8 = 2*4"
    # plain bools, so a report serializes (to JSON, say) as it is
    assert all(type(part.ok) is bool for part in report.parts)


def test_theorem_part_1_names_the_first_failing_element(subs2, rock_salt, nbo):
    # J = quarter is not the rock-salt coloring's subgroup: the coset and
    # color actions first disagree on the point reflection through (1/2, 0, 0)
    report = verify_theorem(subs2["full"], subs2["quarter"], (0, 0, 0), rock_salt)
    assert report.parts[0] == (
        "1: coset action equivalence",
        False,
        "element Isometry(perm=(0, 1, 2), signs=(-1, -1, -1), trans=(1, 0, 0)) "
        "sends coset 0 to 3 but color 0 to 1",
    )
    # NbO's colors are not permuted by every element of the full group
    report = verify_theorem(subs2["full"], subs2["half"], (0, 0, 0), nbo)
    assert report.parts[0] == (
        "1: coset action equivalence",
        False,
        "element Isometry(perm=(0, 1, 2), signs=(-1, -1, -1), trans=(0, 0, 1)) "
        "does not permute the colors",
    )


def test_theorem_when_j_misses_the_smallest_element_of_h(group4, subs4):
    # J = <PQP, R, S> is the stabilizer of (0, 0, 1); at N = 4 it lacks the
    # point reflection through the origin, the smallest element of H, so
    # J's own coset is not first in canonical order and must be moved there
    half = subs4["half"]
    j = build_subgroup(group4, ("PQP", "R", "S"))
    assert quotient.left_cosets(half, j).ids[IDENTITY] != 0
    labels = tuple(f"c{i}" for i in range(32))
    coloring = build_coloring(half, [OrbitPlan(1, j, labels)], background="white")
    assert coloring.label_of((0, 0, 1)) == "c0"
    report = verify_theorem(half, j, (0, 0, 1), coloring)
    assert report.ok, report
    assert report.parts[0].detail == "checked 1536 elements on 32 cosets"


PART_NAMES = (
    "1: coset action equivalence",
    "2: colors on orbit = [H:J]",
    "3: color orbits <= vertex orbits",
    "4a: Stab_H(x) inside J",
    "4b: |orbit| = [H:J]*[J:Stab]",
)
# the details of each preset plan's report, in plan order, pinned literally
# so that no rewrite of verify_theorem changes a report; every part holds
PRESET_REPORTS = {
    (2, "rock-salt"): [
        ("checked 384 elements on 2 cosets", "2 colors vs index 2",
         "1 color orbits vs 1 vertex orbits", "contained", "8 = 2*4"),
    ],
    (2, "nbo"): [
        ("checked 96 elements on 2 cosets", "2 colors vs index 2",
         "2 color orbits vs 2 vertex orbits", "contained", "6 = 2*3"),
    ],
    (2, "reo3"): [
        ("checked 48 elements on 1 cosets", "1 colors vs index 1",
         "3 color orbits vs 4 vertex orbits", "contained", "1 = 1*1"),
        ("checked 48 elements on 1 cosets", "1 colors vs index 1",
         "3 color orbits vs 4 vertex orbits", "contained", "3 = 1*3"),
    ],
    (2, "perovskite"): [
        ("checked 48 elements on 1 cosets", "1 colors vs index 1",
         "4 color orbits vs 4 vertex orbits", "contained", "1 = 1*1"),
        ("checked 48 elements on 1 cosets", "1 colors vs index 1",
         "4 color orbits vs 4 vertex orbits", "contained", "3 = 1*3"),
        ("checked 48 elements on 1 cosets", "1 colors vs index 1",
         "4 color orbits vs 4 vertex orbits", "contained", "1 = 1*1"),
    ],
    (4, "rock-salt"): [
        ("checked 3072 elements on 2 cosets", "2 colors vs index 2",
         "1 color orbits vs 1 vertex orbits", "contained", "64 = 2*32"),
    ],
    (4, "nbo"): [
        ("checked 768 elements on 2 cosets", "2 colors vs index 2",
         "2 color orbits vs 2 vertex orbits", "contained", "48 = 2*24"),
    ],
    (4, "reo3"): [
        ("checked 384 elements on 1 cosets", "1 colors vs index 1",
         "3 color orbits vs 4 vertex orbits", "contained", "8 = 1*8"),
        ("checked 384 elements on 1 cosets", "1 colors vs index 1",
         "3 color orbits vs 4 vertex orbits", "contained", "24 = 1*24"),
    ],
    (4, "perovskite"): [
        ("checked 384 elements on 1 cosets", "1 colors vs index 1",
         "4 color orbits vs 4 vertex orbits", "contained", "8 = 1*8"),
        ("checked 384 elements on 1 cosets", "1 colors vs index 1",
         "4 color orbits vs 4 vertex orbits", "contained", "24 = 1*24"),
        ("checked 384 elements on 1 cosets", "1 colors vs index 1",
         "4 color orbits vs 4 vertex orbits", "contained", "8 = 1*8"),
    ],
}


@pytest.mark.parametrize("modulus, name", list(PRESET_REPORTS))
def test_preset_theorem_reports_are_pinned(modulus, name):
    coloring = preset(name, modulus).coloring
    h = coloring.recipe.group
    orbits = decompose(h).orbits
    reports = [
        verify_theorem(h, plan.subgroup, orbits[plan.orbit].representative, coloring).parts
        for plan in coloring.recipe.plans
    ]
    assert reports == [
        tuple(zip(PART_NAMES, (True,) * 5, details)) for details in PRESET_REPORTS[modulus, name]
    ]


def test_failing_theorem_reports_are_pinned(subs2, rock_salt, nbo):
    report = verify_theorem(subs2["full"], subs2["quarter"], (0, 0, 0), rock_salt)
    assert report.parts == tuple(zip(PART_NAMES, (False, False, True, True, True), (
        "element Isometry(perm=(0, 1, 2), signs=(-1, -1, -1), trans=(1, 0, 0)) "
        "sends coset 0 to 3 but color 0 to 1",
        "2 colors vs index 4",
        "1 color orbits vs 1 vertex orbits",
        "contained",
        "8 = 4*2",
    )))
    report = verify_theorem(subs2["full"], subs2["half"], (0, 0, 0), nbo)
    assert report.parts == tuple(zip(PART_NAMES, (False, False, False, True, True), (
        "element Isometry(perm=(0, 1, 2), signs=(-1, -1, -1), trans=(0, 0, 1)) "
        "does not permute the colors",
        "3 colors vs index 2",
        "sigma undefined for some element of H",
        "contained",
        "8 = 2*4",
    )))


def test_nbo_counts_and_background(nbo):
    assert nbo.labels == ("dark-blue", "green", "white")
    assert nbo.counts() == {"dark-blue": 3, "green": 3, "white": 2}
    assert nbo.background_labels == frozenset({"white"})
    assert nbo.label_of((0, 0, 1)) == "dark-blue"
    assert nbo.label_of((0, 1, 1)) == "green"
    assert nbo.label_of((0, 0, 0)) == "white"
    assert nbo.label_of((1, 1, 1)) == "white"


def test_nbo_color_group_is_the_acting_subgroup(subs2, nbo):
    cg = color_group(nbo)
    assert cg.subgroup.order == 96
    assert cg.subgroup.elements == subs2["quarter"].elements
    assert color_action(nbo, GENERATORS["P"]) is None


def test_nbo_theorem(subs2, nbo):
    report = verify_theorem(subs2["quarter"], subs2["eighth"], (0, 0, 1), nbo)
    assert report.ok
    assert report.parts[4].detail == "6 = 2*3"


def test_reo3_counts(reo3):
    assert reo3.labels == ("red", "orange", "white")
    assert reo3.counts() == {"red": 1, "orange": 3, "white": 4}


def test_reo3_color_group_is_the_smallest_subgroup(subs2, reo3):
    cg = color_group(reo3)
    assert cg.subgroup.order == 48
    assert cg.subgroup.elements == subs2["eighth"].elements


def test_reo3_theorem_on_every_planned_orbit(subs2, reo3):
    h = j = subs2["eighth"]
    for anchor in ((0, 0, 0), (0, 0, 1)):
        report = verify_theorem(h, j, anchor, reo3)
        assert report.ok


def test_perovskite_counts(perovskite):
    assert perovskite.labels == ("black", "brown", "yellow", "white")
    assert perovskite.counts() == {"black": 1, "brown": 3, "yellow": 1, "white": 3}


def test_perovskite_color_group_is_larger_than_the_acting_group(subs2, perovskite):
    # the body-center inversion swaps the two singleton classes and the two
    # triple classes, so the color group is the index-4 subgroup, not the
    # index-8 one that built the coloring
    cg = color_group(perovskite)
    assert cg.subgroup.order == 96
    assert cg.subgroup.elements == subs2["quarter"].elements
    assert subs2["eighth"].elements < cg.subgroup.elements
    inversion = eval_word("QPQRQPQRP")
    act = color_action(perovskite, inversion)
    assert act is not None
    assert act.mapping == (2, 3, 0, 1)


def test_stoichiometry(rock_salt, nbo, reo3, perovskite):
    assert stoichiometry(rock_salt).ratio_text == "1:1"
    nb = stoichiometry(nbo)
    assert nb.ratio_text == "1:1"
    assert nb.ratio_labels == ("dark-blue", "green")
    assert nb.counts == (("dark-blue", 3), ("green", 3), ("white", 2))
    re = stoichiometry(reo3)
    assert re.ratio_text == "1:3"
    assert re.ratio == (1, 3)
    pv = stoichiometry(perovskite)
    assert pv.ratio_text == "1:1:3"
    assert pv.ratio_labels == ("black", "yellow", "brown")
    assert pv.counts == (("black", 1), ("brown", 3), ("yellow", 1), ("white", 3))


def test_merged_plans_share_colors(subs2):
    merged = build_coloring(
        subs2["quarter"],
        [
            OrbitPlan(0, subs2["eighth"], ("a", "b")),
            OrbitPlan(1, subs2["eighth"], ("c", "d")),
        ],
        merges=(("a", "c"), ("b", "d")),
    )
    assert merged.labels == ("a", "b")
    assert merged.counts() == {"a": 4, "b": 4}


def test_declared_reuse_of_one_label(subs2):
    c = build_coloring(
        subs2["eighth"],
        [
            OrbitPlan(0, subs2["eighth"], ("red",)),
            OrbitPlan(1, subs2["eighth"], ("red",)),
        ],
        merges=(("red", "red"),),
        background="white",
    )
    assert c.labels == ("red", "white")
    assert c.counts() == {"red": 4, "white": 4}


def test_merge_equals_background_assignment(subs2):
    # coloring orbits 2 and 3 with one merged label paints the same array
    # as leaving them to a background label
    explicit = build_coloring(
        subs2["eighth"],
        [
            OrbitPlan(0, subs2["eighth"], ("red",)),
            OrbitPlan(1, subs2["eighth"], ("orange",)),
            OrbitPlan(2, subs2["eighth"], ("white",)),
            OrbitPlan(3, subs2["eighth"], ("pale",)),
        ],
        merges=(("white", "pale"),),
    )
    implicit = build_coloring(
        subs2["eighth"],
        [
            OrbitPlan(0, subs2["eighth"], ("red",)),
            OrbitPlan(1, subs2["eighth"], ("orange",)),
        ],
        background="white",
    )
    assert explicit.labels == implicit.labels
    assert explicit.assignment.tobytes() == implicit.assignment.tobytes()
    # only the implicit one flags white as background
    assert implicit.background_labels == frozenset({"white"})
    assert explicit.background_labels == frozenset()


def plan_error(match, *args, **kwargs):
    with pytest.raises(PlanError, match=match):
        build_coloring(*args, **kwargs)


def test_plan_validation_errors(group2, subs2):
    full, half = subs2["full"], subs2["half"]
    eighth, quarter = subs2["eighth"], subs2["quarter"]
    plan_error("out of range", full, [OrbitPlan(1, half, ("a", "b"))])
    plan_error("two plans", eighth,
               [OrbitPlan(0, eighth, ("a",)), OrbitPlan(0, eighth, ("b",))],
               background="w")
    plan_error("unplanned", eighth, [OrbitPlan(0, eighth, ("a",))])
    plan_error("every orbit has a plan", full,
               [OrbitPlan(0, half, ("a", "b"))], background="w")
    plan_error("not contained in H", quarter, [OrbitPlan(0, full, tuple("ab"))],
               background="w")
    plan_error("2 cosets but 1 labels", full, [OrbitPlan(0, half, ("a",))])
    plan_error("also appears in a plan", eighth,
               [OrbitPlan(0, eighth, ("w",))], background="w")


def test_stabilizer_violation_names_an_element(group2, subs2):
    j = build_subgroup(group2, ("Q", "R"))
    labels = tuple(f"c{i}" for i in range(384 // j.order))
    with pytest.raises(PlanError, match="stabilizer .* offending element"):
        build_coloring(subs2["full"], [OrbitPlan(0, j, labels)])


def test_merge_validation_errors(subs2):
    eighth, quarter, full, half = (
        subs2["eighth"], subs2["quarter"], subs2["full"], subs2["half"],
    )
    plan_error("names a label no plan uses", eighth,
               [OrbitPlan(0, eighth, ("a",)), OrbitPlan(1, eighth, ("b",))],
               merges=(("a", "zz"),), background="w")
    plan_error("reused without a merge", eighth,
               [OrbitPlan(0, eighth, ("a",)), OrbitPlan(1, eighth, ("a",))],
               background="w")
    plan_error("same orbit plan", full,
               [OrbitPlan(0, half, ("a", "b"))], merges=(("a", "b"),))
    plan_error("different subgroups", quarter,
               [OrbitPlan(0, eighth, ("a", "b")), OrbitPlan(1, quarter, ("c",))],
               merges=(("a", "c"),))
    plan_error("different coset positions", quarter,
               [OrbitPlan(0, eighth, ("a", "b")), OrbitPlan(1, eighth, ("c", "d"))],
               merges=(("a", "d"),))


def test_serialization_round_trip(nbo, perovskite):
    for coloring in (nbo, perovskite):
        text = coloring.to_text()
        assert text == coloring.to_text()
        back = VertexColoring.from_text(text)
        assert back == coloring
        assert back.to_text() == text


tokens = st.from_regex(r"[A-Za-z0-9_.-]{1,8}", fullmatch=True)


@st.composite
def colorings(draw):
    """A total, onto coloring with random token labels, element symbols
    and background flags."""
    n = draw(st.sampled_from((2, 4)))
    labels = draw(st.lists(tokens, min_size=1, max_size=6, unique=True))
    k = len(labels)
    table = tuple(
        ColorInfo(label, draw(st.none() | tokens), draw(st.booleans())) for label in labels
    )
    rest = draw(st.lists(st.integers(0, k - 1), min_size=n**3 - k, max_size=n**3 - k))
    cells = draw(st.permutations(list(range(k)) + rest))
    return VertexColoring(n, table, np.array(cells, dtype=np.int16).reshape(n, n, n))


@settings(max_examples=40, deadline=None)
@given(colorings())
def test_text_round_trip(coloring):
    text = coloring.to_text()
    back = VertexColoring.from_text(text)
    assert back == coloring
    assert back.to_text() == text


@settings(max_examples=40, deadline=None)
@given(coloring=colorings())
# the parity coloring: one color orbit under the full group
@example(coloring=tiled([0, 1, 1, 0, 1, 0, 0, 1], 2))
# layers by x mod 2 at N = 4
@example(coloring=tiled([0, 0, 0, 0, 1, 1, 1, 1], 4))
def test_color_orbits_match_the_union_find_oracle(subs2, subs4, coloring):
    # part 3 counts the distinct sigma-image sets; the oracle joins every
    # color to its images and counts the classes
    cg = color_group(coloring)
    subs = {2: subs2, 4: subs4}[coloring.modulus]
    for h in [cg.subgroup] + [sub for sub in subs.values() if sub.within(cg.subgroup)]:
        images = [cg.sigma.image_colors(h.codes, c).tolist() for c in range(len(coloring.color_table))]
        part = verify_theorem(h, h, (0, 0, 0), coloring).parts[2]
        assert part.ok
        assert part.detail.startswith(f"{oracle.orbit_count(images)} color orbits vs ")


@settings(max_examples=40, deadline=None)
@given(colorings())
def test_classes_match_label_of(coloring):
    vertices = coloring.vertices()
    assert coloring.classes() == {
        label: tuple(v for v in vertices if coloring.label_of(v) == label)
        for label in coloring.labels
    }


def test_serialization_keeps_elements(rock_salt):
    named = rock_salt.with_elements({"light-blue": "Na", "white": "Cl"})
    back = VertexColoring.from_text(named.to_text())
    assert back == named
    assert back.color_table[0].element == "Na"


def test_with_elements_rejects_unknown_labels(rock_salt):
    with pytest.raises(KeyError):
        rock_salt.with_elements({"mauve": "Na"})


def test_from_text_errors(rock_salt):
    with pytest.raises(ValueError, match="modulus"):
        VertexColoring.from_text("colors first\n")
    with pytest.raises(ValueError, match="modulus"):
        VertexColoring.from_text("modulus \n")
    with pytest.raises(ValueError, match="bad color line"):
        VertexColoring.from_text("modulus 2\ncolor \n0 0 0 a\n")
    with pytest.raises(ValueError, match="bad color line"):
        VertexColoring.from_text("modulus 2\ncolor a glitter\n0 0 0 a\n")
    with pytest.raises(ValueError, match="bad vertex line"):
        VertexColoring.from_text("modulus 2\ncolor a\n0 0 a\n")
    with pytest.raises(ValueError, match="undeclared color"):
        VertexColoring.from_text("modulus 2\ncolor a\n0 0 0 b\n")
    lines = rock_salt.to_text().splitlines()
    with pytest.raises(ValueError, match="not total"):
        VertexColoring.from_text("\n".join(lines[:-1]) + "\n")
    unused = "\n".join(
        [lines[0], "color never"] + lines[1:]
    ) + "\n"
    with pytest.raises(ValueError, match="not onto"):
        VertexColoring.from_text(unused)
    with pytest.raises(ValueError, match="even integer"):
        VertexColoring.from_text("modulus 3\ncolor a\n0 0 0 a\n")
    twice = "\n".join(lines[:-1] + [lines[-2]]) + "\n"
    with pytest.raises(ValueError, match="listed twice"):
        VertexColoring.from_text(twice)
    with pytest.raises(ValueError, match="listed twice"):
        VertexColoring.from_text("\n".join(lines + [lines[-1]]) + "\n")
    relabeled = "\n".join([lines[0], lines[1], lines[1]] + lines[2:]) + "\n"
    with pytest.raises(ValueError, match="declared twice"):
        VertexColoring.from_text(relabeled)
    # the header is held to the modulus rule of the groups
    with pytest.raises(ValueError, match="modulus 18 is above the limit 16"):
        VertexColoring.from_text("modulus 18\ncolor a\n0 0 0 a\n")
    with pytest.raises(ValueError, match="modulus 64 is above the limit 16"):
        VertexColoring.from_text("modulus 64\ncolor a\n0 0 0 a\n")
    # rejected on the line count
    with pytest.raises(ValueError, match="not total: 1 vertex lines for 4096"):
        VertexColoring.from_text("modulus 16\ncolor a\n0 0 0 a\n")
    # a number too long for any modulus up to the limit is not converted
    with pytest.raises(ValueError, match="modulus is 5000 characters long; the limit is 16"):
        VertexColoring.from_text("modulus " + "9" * 5000 + "\ncolor a\n0 0 0 a\n")
    # an onto coloring of N^3 vertices uses at most N^3 colors
    many = "modulus 2\n" + "".join(f"color c{i}\n" for i in range(10**5))
    with pytest.raises(ValueError, match="more than 8 colors for 8 vertices"):
        VertexColoring.from_text(many)
    # more colors than a 16-bit color id holds
    many = "modulus 16\n" + "".join(f"color c{i}\n" for i in range(40_000))
    with pytest.raises(ValueError, match="more than 4096 colors"):
        VertexColoring.from_text(many)


def test_from_text_stops_at_the_first_vertex_line_past_n_cubed(rock_salt):
    lines = rock_salt.to_text().splitlines()
    # the duplicate is refused before the line after it is read
    text = "\n".join(lines + [lines[-1], "garbage"]) + "\n"
    with pytest.raises(ValueError, match="more than 8 vertex lines for 8 vertices: some vertex is listed twice"):
        VertexColoring.from_text(text)
    long = "\n".join(lines) + "\n" + "0 0 0 a\n" * 10**6
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="listed twice"):
            VertexColoring.from_text(long)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the million lines past the first are never split out (tens of MB)
    assert peak < 2**20


def test_equality_is_structural(rock_salt):
    twin = VertexColoring(
        rock_salt.modulus,
        rock_salt.color_table,
        np.array(rock_salt.assignment),
    )
    assert twin == rock_salt
    flipped = VertexColoring(
        rock_salt.modulus,
        rock_salt.color_table,
        np.array(rock_salt.assignment[::-1]),
    )
    assert flipped != rock_salt
    assert rock_salt != "rock salt"


def test_classes_partition_the_vertices(perovskite):
    classes = perovskite.classes()
    seen = [v for vs in classes.values() for v in vs]
    assert sorted(seen) == sorted(perovskite.vertices())
    for label, vs in classes.items():
        assert all(perovskite.label_of(v) == label for v in vs)


def test_coloring_at_modulus_4(subs4):
    coloring = build_coloring(
        subs4["full"],
        [OrbitPlan(0, subs4["half"], ("light-blue", "white"))],
    )
    assert coloring.counts() == {"light-blue": 32, "white": 32}
    report = verify_theorem(subs4["full"], subs4["half"], (0, 0, 0), coloring)
    assert report.ok
    assert report.parts[4].detail == "64 = 2*32"
