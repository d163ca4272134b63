import functools
import re
import tracemalloc

import identity_digest
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
    ColoringRecipe,
    OrbitPlan,
    PlanError,
    VertexColoring,
    build_coloring,
    color_group,
    stoichiometry,
    verify_theorem,
)
from honeycomb434.crystal import PRESET_NAMES, export_report, preset, substitute
from honeycomb434.isometry import GENERATORS, IDENTITY, Isometry, eval_word
from honeycomb434.orbits import decompose, stabilizer_codes
from honeycomb434.quotient import build_subgroup, encode

from conftest import sigma_of


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
    cg = color_group(rock_salt)
    assert sigma_of(cg, GENERATORS["P"]) == (1, 0)
    for sym in "QRS":
        assert sigma_of(cg, GENERATORS[sym]) == (0, 1)


def test_rock_salt_coloring_is_perfect(group2, rock_salt):
    cg = color_group(rock_salt)
    assert cg.subgroup.order == 384
    assert cg.subgroup.elements == group2.elements
    # sigma is a permutation of the two colors for each of the 384 elements
    assert all(sorted(sigma_of(cg, g)) == [0, 1] for g in group2.elements)


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
    assert np.array_equal(cg.class_vertices, fresh.class_vertices)
    assert all(sigma_of(cg, g) == sigma_of(fresh, g) for g in group2.elements)


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
    tests = count_calls(monkeypatch, coloring_module, "_induced")
    model = preset("rock-salt", 2)
    coloring = model.coloring
    h, plans = coloring.recipe.group, coloring.recipe.plans
    decomp = decompose(h)
    for plan in plans:
        rep = decomp.orbits[plan.orbit].representative
        assert verify_theorem(h, plan.subgroup, rep, coloring).ok
    assert color_group(coloring) is color_group(coloring)
    export_report(model)
    # one color-group pass, shared by all; the permutation test runs only
    # inside it, as a second pass on its own shows
    assert len(passes) == 1
    tested = len(tests)
    coloring_module._color_group_of(coloring, h.parent)
    assert len(tests) == 2 * tested


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


def adversarial_plan(group):
    """H = the full group and J = <Q, R, S, (QPQRSR)^N, (RQPQRS)^N,
    (PQRSRQ)^N>, the stabilizer of the origin times N Z^3: a valid plan
    with [H:J] = N^3 cosets, one label each."""
    n = group.modulus
    j = quotient.certify_translations(
        build_subgroup(group, ("Q", "R", "S", f"(QPQRSR)^{n}", f"(RQPQRS)^{n}", f"(PQRSRQ)^{n}"))
    )
    return OrbitPlan(0, j, tuple(f"c{i}" for i in range(n**3)))


def test_the_theorem_check_makes_a_constant_number_of_passes_over_h(monkeypatch):
    h = quotient.build_group(8)
    plan = adversarial_plan(h)
    assert len(plan.labels) == 512
    cosets = count_calls(monkeypatch, coloring_module, "left_cosets")
    coloring = build_coloring(h, [plan])
    color_group(coloring)
    passes = []

    def counting(name, code_args):
        original = getattr(coloring_module, name)

        def counted(*args):
            if any(np.size(args[i]) == h.order for i in code_args):
                passes.append(name)
            return original(*args)

        monkeypatch.setattr(coloring_module, name, counted)

    counting("images", [0])
    counting("multiply", [0, 1])
    assert verify_theorem(h, plan.subgroup, (0, 0, 0), coloring).ok
    # a pass per coset would be 512 of them
    assert len(passes) <= 2, passes
    # the coset table build_coloring made is the one the check reads
    assert len(cosets) == 1


def test_a_failing_part_1_walks_h_only_as_far_as_the_failure(monkeypatch):
    # the one-color-per-vertex coloring, checked at (0, 0, 1) instead of its
    # own anchor: part 1 fails, and a product pass per coset over all of H
    # would make 512 * 24,576 products
    h = quotient.build_group(8)
    plan = adversarial_plan(h)
    coloring = build_coloring(h, [plan])
    color_group(coloring)
    products = []
    original = coloring_module.multiply

    def counted(*args):
        out = original(*args)
        products.append(np.size(out))
        return out

    monkeypatch.setattr(coloring_module, "multiply", counted)
    report = verify_theorem(h, plan.subgroup, (0, 0, 1), coloring)
    assert report.parts[0].detail == (
        "element Isometry(perm=(0, 1, 2), signs=(-1, -1, -1), trans=(0, 0, 0)) "
        "sends coset 0 to 0 but color 7 to 1"
    )
    # the failing element's position in canonical order
    i = 0
    assert report.parts[0].detail.startswith(f"element {quotient.decode(h.codes[i], 8)[0]} ")
    assert sum(products) <= 2 * len(plan.labels) * (i + 64)
    # one pass with every coset's representative, within the cap
    assert max(products) <= coloring_module._PART1_PRODUCTS


@pytest.mark.parametrize("products", [1, 7, coloring_module._PART1_PRODUCTS])
def test_the_failing_walks_chunks_do_not_change_a_report(monkeypatch, products):
    # the sweep's 576 theorem reports at N = 2 and 4, the failing part 1
    # details among them, whatever elements share a pass
    monkeypatch.setattr(coloring_module, "_PART1_PRODUCTS", products)
    assert identity_digest.sweep_digest(moduli=(2, 4)) == (
        "f377494bb24ac911c9b0abf268cd81689f2eca9e3d8d76bf25443a0b060ae449"
    )


@pytest.mark.parametrize("modulus", [2, 4])
def test_sigma_matches_color_action_on_every_element(modulus):
    for name in ("rock-salt", "nbo", "reo3", "perovskite"):
        coloring = preset(name, modulus).coloring
        cg = color_group(coloring)
        full = coloring.recipe.group.parent
        assert_sigma_is_color_action(coloring, cg, full)


def assert_sigma_is_color_action(coloring, cg, full):
    # the oracle's permutation of the classes, by label, against sigma
    # read off image_colors, by color id; None where g permutes nothing
    n, labels = coloring.modulus, coloring.labels
    classes = oracle.color_classes({v: coloring.label_of(v) for v in coloring.vertices()})
    expected = {}
    for g in full.elements:
        action = oracle.permutes_classes((g.linear, g.trans), classes, n)
        if action is None:
            assert sigma_of(cg, g) is None, g
        else:
            expected[g] = tuple(labels.index(action[label]) for label in labels)
    assert cg.subgroup.elements == expected.keys()
    assert cg.subgroup.order == len(expected)
    assert {g: sigma_of(cg, g) for g in expected} == expected


@pytest.mark.parametrize("modulus", [2, 4, 8, 16])
def test_the_color_group_starts_from_the_recipe_group(monkeypatch, modulus):
    # the recipe's H permutes the colors, which one test per generator word
    # confirms; then only the translations and linear parts H lacks are
    # tested (4 to 11 tests for the presets; 51 to 69 without the seed)
    tests = count_calls(monkeypatch, coloring_module, "_induced")
    for name in PRESET_NAMES:
        coloring = preset(name, modulus).coloring
        del tests[:]
        cg = coloring_module._color_group_of(coloring, coloring.recipe.group.parent)
        assert len(tests) <= 12, (name, len(tests))
        bare = VertexColoring(modulus, coloring.color_table, coloring.assignment)
        assert np.array_equal(cg.subgroup.codes, color_group(bare).subgroup.codes), name
        if modulus == 2:
            assert_sigma_is_color_action(coloring, cg, coloring.recipe.group.parent)


def test_a_recipe_group_that_does_not_permute_the_colors_is_not_a_seed(group2, monkeypatch):
    # NbO's colors are not permuted by the whole group, so a recipe naming
    # the full group as H fails its word test, and the walk starts from the
    # identity as for a coloring without a recipe
    nbo = preset("nbo", 2).coloring
    odd = VertexColoring(2, nbo.color_table, nbo.assignment, nbo.recipe._replace(group=group2))
    bare = VertexColoring(2, nbo.color_table, nbo.assignment)
    tests = count_calls(monkeypatch, coloring_module, "_induced")
    expected = color_group(bare)
    walked = len(tests)
    cg = color_group(odd)
    # the words up to the first that fails, then the same walk
    assert 1 <= len(tests) - 2 * walked <= 4
    assert np.array_equal(cg.subgroup.codes, expected.subgroup.codes)
    assert_sigma_is_color_action(odd, cg, group2)


def test_a_recipe_shift_outside_the_lattice_seeds_its_coset(monkeypatch):
    # H = <P> at N = 4 holds (diag(1, 1, -1), (0, 0, 1)), the mirror in the
    # plane z = 1/2, and its lattice is 4 Z^3; coloring by z // 2 keeps the
    # pairs {0, 1} and {2, 3}, which that mirror swaps within themselves and
    # the one through z = 0 does not
    h = build_subgroup(quotient.build_group(4), ["P"])
    assignment = (np.indices((4, 4, 4))[2] // 2).astype(np.int16)
    table = (ColorInfo("low"), ColorInfo("high"))
    seeded = VertexColoring(4, table, assignment, ColoringRecipe(h, (), (), None))
    bare = VertexColoring(4, table, assignment)
    tests = count_calls(monkeypatch, coloring_module, "_induced")
    expected = color_group(bare)
    walked = len(tests)
    cg = color_group(seeded)
    # one word test, and no test for P's linear part
    assert len(tests) - walked < walked
    assert np.array_equal(cg.subgroup.codes, expected.subgroup.codes)
    assert cg.subgroup.includes(encode(GENERATORS["P"], 4))
    assert not cg.subgroup.includes(encode(Isometry((0, 1, 2), (1, 1, -1), (0, 0, 0)), 4))


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
    table = quotient.left_cosets(half, j)
    assert table.coset_ids[np.searchsorted(half.codes, encode(IDENTITY, 4))] != 0
    labels = tuple(f"c{i}" for i in range(32))
    coloring = build_coloring(half, [OrbitPlan(1, j, labels)], background="white")
    assert coloring.label_of((0, 0, 1)) == "c0"
    report = verify_theorem(half, j, (0, 0, 1), coloring)
    assert report.ok, report
    assert report.parts[0].detail == "checked 1536 elements on 32 cosets"


def test_a_failing_part_1_makes_no_search_over_h(monkeypatch):
    # the failing walk names the coset of each product g rep_p by its key,
    # with no sorted search over H's codes; the first failure is at position
    # 64 of H, in the walk's first chunk
    rock_salt, nbo = preset("rock-salt", 8).coloring, preset("nbo", 8).coloring
    full = rock_salt.recipe.group
    quarter = quotient.certify_translations(build_subgroup(full, ("Q", "R", "S", "QPQRQPQRP")))
    nbo_quarter = nbo.recipe.group
    searched = []
    original = np.searchsorted

    def counted(a, v, *args, **kwargs):
        searched.append(np.size(a))
        return original(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    report = verify_theorem(full, quarter, (0, 0, 0), rock_salt)
    assert report.parts[0].detail == (
        "element Isometry(perm=(0, 1, 2), signs=(-1, -1, -1), trans=(1, 0, 0)) "
        "sends coset 0 to 3 but color 0 to 1"
    )
    report = verify_theorem(nbo_quarter, nbo_quarter, (0, 0, 1), nbo)
    assert report.parts[0].detail == (
        "element Isometry(perm=(0, 1, 2), signs=(-1, -1, -1), trans=(1, 1, 1)) "
        "sends coset 0 to 0 but color 0 to 1"
    )
    assert [size for size in searched if size >= nbo_quarter.order] == []


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


# the groups of the oracle sweep: the preset word sets and the stabilizer of
# (0, 0, 1), a finite group that no certificate covers
SWEEP_WORDS = {
    "full": ("P", "Q", "R", "S"),
    "half": ("Q", "R", "S", "PQP"),
    "quarter": ("Q", "R", "S", "QPQRQPQRP"),
    "eighth": ("Q", "R", "S", "SRQPQRSRQPQR"),
    "stabilizer": ("PQP", "R", "S"),
}


@functools.cache
def oracle_groups(modulus):
    return {
        name: frozenset(oracle.closure([oracle.eval_letters(w) for w in words], modulus))
        for name, words in SWEEP_WORDS.items()
    }


@pytest.mark.parametrize("modulus", [2, 4])
@pytest.mark.parametrize("name", ["rock-salt", "nbo", "reo3", "perovskite"])
def test_theorem_reports_match_the_oracle(group2, group4, modulus, name):
    # every H >= J pair of the sweep groups, four vertices, one preset
    # coloring: each full report against the brute-force one, failures too
    group = {2: group2, 4: group4}[modulus]
    subs = {key: build_subgroup(group, words) for key, words in SWEEP_WORDS.items()}
    elements = oracle_groups(modulus)
    coloring = preset(name, modulus).coloring
    color = {v: coloring.color_id(v) for v in oracle.vertices(modulus)}
    classes = oracle.color_classes(color)
    sigma = {g: oracle.permutes_classes(g, classes, modulus) for g in elements["full"]}
    pairs = [(a, b) for a in elements for b in elements if elements[b] <= elements[a]]
    assert len(pairs) == 12
    for a, b in pairs:
        for x in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]:
            report = verify_theorem(subs[a], subs[b], x, coloring)
            expected = oracle.theorem_report(elements[a], elements[b], x, color, sigma, modulus)
            assert report.parts == tuple(
                (part, ok, detail) for part, (ok, detail) in zip(PART_NAMES, expected)
            ), (a, b, x)


def test_part_1_matches_the_full_pass_over_h_at_modulus_8():
    # the oracle's exhaustive walk is too slow at N = 8: part 1's verdict
    # from H's form codes against the pass over all of H it replaced, on
    # every sweep pair, preset and vertex, and on the N^3-coset plan
    full = quotient.build_group(8)
    subs = {name: build_subgroup(full, words) for name, words in identity_digest.SWEEP_WORDS.items()}
    pairs = [(a, b) for a in subs for b in subs if subs[b].within(subs[a])]
    assert len(pairs) == 12
    verdicts = []
    for name in PRESET_NAMES:
        coloring = preset(name, 8).coloring
        for a, b in pairs:
            for x in identity_digest.SWEEP_VERTICES:
                ok = verify_theorem(subs[a], subs[b], x, coloring).parts[0].ok
                assert ok == oracle.full_pass_part1(subs[a], subs[b], x, coloring), (name, a, b, x)
                verdicts.append(ok)
    assert 0 < sum(verdicts) < len(verdicts)
    plan = adversarial_plan(full)
    coloring = build_coloring(full, [plan])
    for x, ok in (((0, 0, 0), True), ((0, 0, 1), False)):
        assert verify_theorem(full, plan.subgroup, x, coloring).parts[0].ok is ok
        assert oracle.full_pass_part1(full, plan.subgroup, x, coloring) is ok
    # build_group's shifts are all zero, so only its lattice rows move the
    # origin: the unit translations swap rock salt's two colors
    rock_salt = preset("rock-salt", 8).coloring
    assert verify_theorem(full, full, (0, 0, 0), rock_salt).parts[0].ok is False
    assert oracle.full_pass_part1(full, full, (0, 0, 0), rock_salt) is False


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
    assert sigma_of(cg, GENERATORS["P"]) is None


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
    assert sigma_of(cg, inversion) == (2, 3, 0, 1)


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


def test_plan_labels_and_background_must_be_strings(subs2):
    full, half, eighth = subs2["full"], subs2["half"], subs2["eighth"]
    # a string is not taken for its letters
    plan_error("labels must be a sequence of strings", full, [OrbitPlan(0, half, "AB")])
    plan_error("labels must be a sequence of strings", full, [OrbitPlan(0, half, ("A", 2))])
    plan_error("background label 7 is not a string", eighth,
               [OrbitPlan(0, eighth, ("a",))], background=7)


def test_a_coloring_is_checked_on_construction():
    table = (ColorInfo("x"), ColorInfo("y"))
    onto = np.arange(8, dtype=np.int16).reshape(2, 2, 2) % 2
    assert VertexColoring(2, table, onto).counts() == {"x": 4, "y": 4}
    cases = [
        ("modulus must be an integer", 2.0, table, onto),
        ("even integer", 3, table, np.zeros((3, 3, 3), np.int16)),
        ("shape", 2, table, np.zeros((2, 2), np.int16)),
        ("integer array", 2, table, onto.astype(float)),
        ("integer array", 2, table, onto.tolist()),
        ("color ids must lie in", 2, table, onto + 1),
        ("color ids must lie in", 2, table, onto - 1),
        ("not onto: some declared color is unused", 2, table, np.zeros((2, 2, 2), np.int16)),
        ("distinct strings", 2, (ColorInfo("x"), ColorInfo("x")), onto),
        ("distinct strings", 2, (ColorInfo("x"), ColorInfo(5)), onto),
        ("element symbol 5 is not a string", 2, (ColorInfo("x", 5), ColorInfo("y")), onto),
    ]
    for match, modulus, colors, assignment in cases:
        with pytest.raises(ValueError, match=match):
            VertexColoring(modulus, colors, assignment)


def test_element_symbols_must_be_strings(rock_salt):
    with pytest.raises(ValueError, match="element symbol 5 is not a string"):
        rock_salt.with_elements({"white": 5})
    assert rock_salt.with_elements({"white": "Cl"}).color_table[1].element == "Cl"


BAD_VERTICES = [(0.5, 0, 0), (0, 0), (0, 0, 0, 0), "abc", (True, 0, 0), 5, None]


@pytest.mark.parametrize("v", BAD_VERTICES, ids=repr)
def test_a_vertex_is_three_integers(v):
    model = preset("rock-salt", 2)
    coloring = model.coloring
    h, j = coloring.recipe.group, coloring.recipe.plans[0].subgroup
    calls = (
        lambda: stabilizer_codes(h, v),
        lambda: verify_theorem(h, j, v, coloring),
        lambda: decompose(h).orbit_of(v),
        lambda: coloring.color_id(v),
    )
    for call in calls:
        with pytest.raises(ValueError, match="a vertex is three integers"):
            call()
    # numpy integers pass, and every coordinate is reduced mod N
    w = (np.int64(3), -1, 2)
    assert np.array_equal(stabilizer_codes(h, w), stabilizer_codes(h, (1, 1, 0)))
    assert decompose(h).orbit_of(w) is decompose(h).orbit_of((1, 1, 0))
    assert coloring.color_id(w) == coloring.color_id((1, 1, 0))
    assert verify_theorem(h, j, w, coloring) == verify_theorem(h, j, (1, 1, 0), coloring)


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


def test_merges_chain(subs2):
    # (a, b) and (b, c) put a, b and c in one color, as the whole triangle
    # of declarations does
    eighth = subs2["eighth"]
    plans = [OrbitPlan(k, eighth, (label,)) for k, label in enumerate("abcd")]
    chain = build_coloring(eighth, plans, merges=(("a", "b"), ("b", "c")))
    triangle = build_coloring(eighth, plans, merges=(("a", "b"), ("b", "c"), ("a", "c")))
    assert chain.labels == triangle.labels == ("a", "d")
    assert chain.assignment.tobytes() == triangle.assignment.tobytes()
    decomp = decompose(eighth)
    for plan in plans:
        assert verify_theorem(eighth, eighth, decomp.orbits[plan.orbit].representative, chain).ok
    # each declared pair is checked: a chain cannot join two colors of one plan
    quarter = subs2["quarter"]
    plan_error("different coset positions", quarter,
               [OrbitPlan(0, eighth, ("a", "b")), OrbitPlan(1, eighth, ("c", "d"))],
               merges=(("a", "c"), ("c", "b")))


@pytest.mark.parametrize("word", ["a b", "", "a\tb", "Na Cl", "a\u2028b", " a"], ids=repr)
def test_labels_and_element_symbols_are_one_word(subs2, rock_salt, word):
    # to_text writes them as whitespace-separated fields, which from_text
    # could not read back
    with pytest.raises(ValueError, match=re.escape(f"color label {word!r} is not one word")):
        build_coloring(subs2["full"], [OrbitPlan(0, subs2["half"], (word, "white"))])
    with pytest.raises(ValueError, match=re.escape(f"color element symbol {word!r} is not one word")):
        rock_salt.with_elements({"white": word})
    named = rock_salt.with_elements({"white": "Cl-1"})
    assert VertexColoring.from_text(named.to_text()) == named


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
    # part 3 joins every color to its images under sigma of H's form codes;
    # the oracle joins it to its images under all of H
    cg = color_group(coloring)
    subs = {2: subs2, 4: subs4}[coloring.modulus]
    for h in [cg.subgroup] + [sub for sub in subs.values() if sub.within(cg.subgroup)]:
        images = [cg.image_colors(h.codes, c).tolist() for c in range(len(coloring.color_table))]
        part = verify_theorem(h, h, (0, 0, 0), coloring).parts[2]
        assert part.ok
        assert part.detail.startswith(f"{oracle.orbit_count(images)} color orbits vs ")


def seeded_coloring(modulus, colors, side, seed=0):
    """A coloring without a recipe: the given number of colors, each on at
    least one vertex of a side x side x side cell, spread over the cell by a
    seeded shuffle, and the cell repeated over the torus."""
    rng = np.random.default_rng(seed)
    cell = rng.permutation(np.arange(side**3) % colors).reshape((side,) * 3)
    table = tuple(ColorInfo(f"c{i}") for i in range(colors))
    return VertexColoring(modulus, table, np.tile(cell, (modulus // side,) * 3).astype(np.int16))


@pytest.mark.parametrize(
    "modulus, colors, side",
    # at N = 4, two colors on a repeated cell give a color group of order
    # 768 that swaps them, and on the whole torus one of order 1
    [(2, 2, 2), (2, 8, 2), (4, 2, 2), (4, 2, 4), (4, 8, 2), (4, 8, 4), (4, 64, 4)],
)
def test_part_3_on_a_color_group_matches_the_brute_force_color_orbits(modulus, colors, side):
    n = modulus
    coloring = seeded_coloring(n, colors, side)
    cg = color_group(coloring)
    h = cg.subgroup
    assert h.generator_words == ()
    # the oracle finds the color group and each sigma over all 48 N^3 elements
    color = {v: int(coloring.assignment[v]) for v in oracle.vertices(n)}
    classes = oracle.color_classes(color)
    sigmas = [s for g in oracle.full_group(n) if (s := oracle.permutes_classes(g, classes, n))]
    assert len(sigmas) == h.order
    expected = oracle.orbit_count([[s[c] for s in sigmas] for c in range(colors)])
    part = verify_theorem(h, h, (0, 0, 0), coloring).parts[2]
    assert part.ok
    assert part.detail.startswith(f"{expected} color orbits vs ")


def test_part_3_makes_no_pass_over_h(monkeypatch):
    # one color per vertex and no recipe: H, the color group, is the full
    # group, without words; a per-color pass over H would make 512 of them,
    # and neither part 1 nor part 3 maps x under every element of H
    h = quotient.build_group(8)
    plan = adversarial_plan(h)
    built = build_coloring(h, [plan])
    coloring = VertexColoring(8, built.color_table, built.assignment)
    cg = color_group(coloring)
    assert cg.subgroup.order == h.order and cg.subgroup.generator_words == ()
    passes = []
    original = coloring_module.images

    def counted(*args):
        if np.size(args[0]) == h.order:
            passes.append("images")
        return original(*args)

    monkeypatch.setattr(coloring_module, "images", counted)
    assert coloring_module._color_orbit_count(cg.subgroup, cg) == 1
    assert passes == []
    report = verify_theorem(cg.subgroup, plan.subgroup, (0, 0, 0), coloring)
    assert report.ok
    assert report.parts[2].detail == "1 color orbits vs 1 vertex orbits"
    # part 1 checks H's form codes against the cosets, with no pass over H
    assert passes == []


@settings(max_examples=40, deadline=None)
@given(colorings())
def test_classes_match_label_of(coloring):
    vertices = coloring.vertices()
    assert classes(coloring) == {
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
    # numbers are an optional sign and at most 20 ASCII digits, and each
    # refusal names its line (blank lines and CR LF counted as splitlines
    # counts them) and its field
    last = lines[:-1]
    not_an_integer = "is not an integer \\(an optional sign and at most 20 ASCII digits\\)"
    for coordinates, field, shown in [
        ("9" * 5000 + " 1 1", "coordinate x", "'" + "9" * 59 + "…\\(5000 characters\\)"),
        ("1 x 1", "coordinate y", "'x'"),
        ("1 1 1.5", "coordinate z", "'1.5'"),
        ("٣ 1 1", "coordinate x", "'٣'"),
        ("1 1 1_0", "coordinate z", "'1_0'"),
        ("1 1 " + "1" * 21, "coordinate z", "'1{21}'"),
    ]:
        text = "\n".join(last + [f"{coordinates} white"]) + "\n"
        with pytest.raises(ValueError, match=f"^line 11: {field} {shown} {not_an_integer}$"):
            VertexColoring.from_text(text)
        with pytest.raises(ValueError, match=f"^line 13: {field} {shown} "):
            VertexColoring.from_text(text.replace(lines[1], "\r\n" + lines[1] + "\r\n"))
    # the last line again, with signs and leading zeros: read as (1, 1, 1)
    text = "\n".join(last + ["-1 +1 00000000000000000001 white"]) + "\n"
    assert VertexColoring.from_text(text) == rock_salt
    with pytest.raises(ValueError, match="^line 11: vertex \\(0, 0, 0\\) is listed twice$"):
        VertexColoring.from_text("\n".join(last + ["2 -2 +4 light-blue"]) + "\n")
    for modulus in ["٤", "1.5", "x", "+-2"]:
        with pytest.raises(ValueError, match=f"^line 1: modulus '{re.escape(modulus)}' {not_an_integer}$"):
            VertexColoring.from_text(f"modulus {modulus}\ncolor a\n0 0 0 a\n")
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


def classes(coloring):
    """Each label's vertices, in lexicographic order, read off the
    assignment array."""
    return {
        label: tuple(map(tuple, np.argwhere(coloring.assignment == cid).tolist()))
        for cid, label in enumerate(coloring.labels)
    }


def test_classes_partition_the_vertices(perovskite):
    by_label = classes(perovskite)
    seen = [v for vs in by_label.values() for v in vs]
    assert sorted(seen) == sorted(perovskite.vertices())
    for label, vs in by_label.items():
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


def counts_by_comparison(coloring):
    """Vertices per color, one full comparison per color: the oracle for
    `counts`."""
    flat = coloring.assignment.ravel()
    return {info.label: int((flat == cid).sum()) for cid, info in enumerate(coloring.color_table)}


@pytest.mark.parametrize("name", ["rock-salt", "NbO", "ReO3", "perovskite"])
@pytest.mark.parametrize("modulus", [2, 4])
def test_counts_match_one_comparison_per_color(name, modulus):
    coloring = preset(name, modulus).coloring
    counts = coloring.counts()
    assert list(counts.items()) == list(counts_by_comparison(coloring).items())
    assert list(counts) == list(coloring.labels)


def test_counts_of_one_color_per_vertex():
    # 64 colors declared in an order unlike the vertex order, each on one vertex
    n = 4
    vertices = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    labels = [f"c{(37 * i) % n**3}" for i in range(n**3)]
    text = "".join(
        [f"modulus {n}\n", *(f"color {label}\n" for label in labels)]
        + [f"{x} {y} {z} c{i}\n" for i, (x, y, z) in enumerate(vertices)]
    )
    coloring = VertexColoring.from_text(text)
    counts = coloring.counts()
    assert list(counts.items()) == list(counts_by_comparison(coloring).items())
    assert list(counts) == labels
    assert set(counts.values()) == {1}
