import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from honeycomb434 import orbits as orbits_module
from honeycomb434.coloring import OrbitPlan, PlanError, build_coloring, color_group
from honeycomb434.crystal import PRESET_NAMES, preset
from honeycomb434.orbits import decompose, stabilizer_codes
from honeycomb434.quotient import build_group, build_subgroup, certify_translations, coords, decode, flat

from conftest import WORDS, form_groups, vertices_of


def all_vertices(modulus):
    rng = range(modulus)
    return [(x, y, z) for x in rng for y in rng for z in rng]


def test_full_group_is_transitive(subs2, subs4):
    for modulus, subs in ((2, subs2), (4, subs4)):
        dec = decompose(subs["full"])
        assert len(dec.orbits) == 1
        assert dec.orbits[0].size == modulus**3
        assert vertices_of(dec, dec.orbits[0]) == tuple(all_vertices(modulus))


def test_half_subgroup_splits_by_parity(subs2, subs4):
    for subs in (subs2, subs4):
        dec = decompose(subs["half"])
        assert len(dec.orbits) == 2
        sizes = sorted(o.size for o in dec.orbits)
        n3 = subs["half"].parent.modulus ** 3
        assert sizes == [n3 // 2, n3 // 2]
        for orbit in dec.orbits:
            assert len(vertices_of(dec, orbit)) == orbit.size
            parities = {sum(v) % 2 for v in vertices_of(dec, orbit)}
            assert len(parities) == 1


def test_literal_quarter_matches_half(subs2):
    a = decompose(subs2["half"])
    b = decompose(subs2["literal-quarter"])
    assert a.orbits == b.orbits
    assert [vertices_of(a, o) for o in a.orbits] == [vertices_of(b, o) for o in b.orbits]


def test_quarter_orbits(subs2):
    dec = decompose(subs2["quarter"])
    reps = [o.representative for o in dec.orbits]
    sizes = [o.size for o in dec.orbits]
    assert reps == [(0, 0, 0), (0, 0, 1)]
    assert sizes == [2, 6]
    # the small orbit is the even-coordinate pair of body centers
    assert vertices_of(dec, dec.orbits[0]) == ((0, 0, 0), (1, 1, 1))


def test_eighth_orbits(subs2):
    dec = decompose(subs2["eighth"])
    reps = [o.representative for o in dec.orbits]
    sizes = [o.size for o in dec.orbits]
    assert reps == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert sizes == [1, 3, 3, 1]


def test_orbits_are_numbered_by_representative(subs2):
    dec = decompose(subs2["eighth"])
    for i, orbit in enumerate(dec.orbits):
        assert orbit.index == i
        assert orbit.representative == min(vertices_of(dec, orbit))


def test_orbit_partition_is_total(subs2, subs4):
    for subs in (subs2, subs4):
        for name in ("full", "half", "quarter", "eighth"):
            dec = decompose(subs[name])
            modulus = subs[name].parent.modulus
            seen = []
            for orbit in dec.orbits:
                seen.extend(vertices_of(dec, orbit))
            assert sorted(seen) == all_vertices(modulus)
            for v in all_vertices(modulus):
                orbit = dec.orbit_of(v)
                assert v in vertices_of(dec, orbit)
                assert dec.vertex_orbit[flat(np.array(v), modulus)] == orbit.index


def stabilizer(group, v):
    """The elements of the group fixing v, as a frozenset of Isometry."""
    return frozenset(decode(stabilizer_codes(group, v), group.modulus))


def test_base_vertex_stabilizer_order(subs2, subs4):
    for subs in (subs2, subs4):
        full = subs["full"]
        modulus = full.modulus
        # any representative of the vertex mod N has the same stabilizer
        assert np.array_equal(stabilizer_codes(full, (1 + modulus, 1, 1 - modulus)),
                              stabilizer_codes(full, (1, 1, 1)))
        stab = stabilizer(full, (1, 1, 1))
        assert len(stab) == 48
        for el in stab:
            assert tuple(c % modulus for c in el.apply((1, 1, 1))) == (1, 1, 1)


def test_orbit_stabilizer_counting(subs2):
    for name in ("full", "half", "quarter", "eighth"):
        sub = subs2[name]
        dec = decompose(sub)
        for orbit in dec.orbits:
            stab = stabilizer_codes(sub, orbit.representative)
            assert orbit.size * len(stab) == sub.order


def test_point_group_words_for_the_base_vertex(group2, subs2):
    words = build_subgroup(group2, ("Q", "R", "PQRSRQP"))
    assert np.array_equal(words.codes, stabilizer_codes(subs2["full"], (1, 1, 1)))


def test_stabilizer_words_inside_the_quarter_subgroup(group2, subs2):
    words = build_subgroup(group2, ("Q", "S", "(QPQRQPQS)^2"))
    stab = stabilizer_codes(subs2["quarter"], (1, 0, 1))
    assert np.array_equal(words.codes, stab)
    assert len(stab) == 16


def test_stabilizer_containment_checks(group2, subs2):
    # the admissibility of J for the orbit of v: J holds Stab(v)
    quarter = subs2["quarter"]
    stab = stabilizer_codes(quarter, (1, 0, 1))
    j_good = build_subgroup(group2, ("Q", "S", "(QPQRQPQS)^2"))
    assert j_good.includes(stab).all()
    j_small = build_subgroup(group2, ("Q",))
    assert not j_small.includes(stab).all()
    # a J outside the acting group is refused before its cosets are read
    outside = build_subgroup(group2, ("P", "Q"))
    orbit = decompose(quarter).orbit_of((1, 0, 1)).index
    with pytest.raises(PlanError, match="not contained in H"):
        build_coloring(quarter, [OrbitPlan(orbit, outside, ("a",))], background="b")


def test_decompose_is_deterministic(subs2):
    a = decompose(subs2["eighth"])
    b = decompose(subs2["eighth"])
    assert a == b


@pytest.mark.parametrize("modulus", [2, 4])
def test_stabilizers_match_the_oracle_and_brute_force(modulus, subs2, subs4):
    subs = subs2 if modulus == 2 else subs4
    vertices = all_vertices(2) + [(3, 0, 1), (2, 3, 3), (1, 2, 0)] if modulus == 4 else all_vertices(2)
    for name in ("full", "half", "quarter", "eighth"):
        group = subs[name]
        as_oracle = {(el.linear, el.trans) for el in group.elements}
        for v in vertices:
            stab = stabilizer(group, v)
            brute = frozenset(
                g for g in group.elements if tuple(c % modulus for c in g.apply(v)) == v
            )
            assert stab == brute, (name, v)
            assert {(el.linear, el.trans) for el in stab} == oracle.stabilizer(
                as_oracle, v, modulus
            )


def test_decomposition_is_kept_per_group_object(group2, subs2, monkeypatch):
    calls = []
    original = orbits_module._orbit_decomposition

    def counted(acting):
        calls.append(acting)
        return original(acting)

    monkeypatch.setattr(orbits_module, "_orbit_decomposition", counted)
    raw = build_subgroup(group2, ("Q", "R", "S", "PQP"))
    first = decompose(raw)
    assert decompose(raw) is first
    assert calls == [raw]
    # a certified copy is a new object with a decomposition of its own
    done = certify_translations(raw)
    assert decompose(done).group is done
    assert len(calls) == 2
    assert decompose(done).orbits == first.orbits
    assert np.array_equal(decompose(done).vertex_orbit, first.vertex_orbit)


def assert_matches_oracle(dec, elements, modulus):
    """The decomposition is the oracle's orbit partition, with the same
    representatives in the same order, and `vertex_orbit` agrees with it."""
    as_oracle = {(el.linear, el.trans) for el in elements}
    expected = oracle.all_orbits(as_oracle, modulus)
    assert [(o.representative, frozenset(vertices_of(dec, o))) for o in dec.orbits] == expected
    assert [o.size for o in dec.orbits] == [len(vertices) for _, vertices in expected]
    assert not dec.vertex_orbit.flags.writeable


@pytest.mark.parametrize("modulus", [2, 4])
def test_orbits_match_the_oracle(modulus, subs2, subs4):
    subs = subs2 if modulus == 2 else subs4
    for name in WORDS:
        assert_matches_oracle(decompose(subs[name]), subs[name].elements, modulus)


@pytest.mark.parametrize("modulus", [2, 4])
def test_orbits_of_color_groups_match_the_oracle(modulus):
    # a color group is derived element-wise and has no generating words,
    # so its orbits can only come from its elements
    for name in PRESET_NAMES:
        sub = color_group(preset(name, modulus).coloring).subgroup
        assert sub.generator_words == ()
        assert_matches_oracle(decompose(sub), sub.elements, modulus)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.text(alphabet="PQRS", min_size=1, max_size=8), min_size=1, max_size=3),
    st.sampled_from([2, 4]),
)
def test_orbits_of_random_word_sets_match_the_oracle(words, modulus):
    # one or two short words often generate a small group with many small
    # orbits; the oracle closes the words itself
    sub = build_subgroup(build_group(modulus), words)
    closed = oracle.closure([oracle.eval_letters(w) for w in words], modulus)
    assert {(el.linear, el.trans) for el in sub.elements} == closed
    assert_matches_oracle(decompose(sub), sub.elements, modulus)


@pytest.mark.parametrize("modulus", [2, 4, 8])
def test_decompose_matches_the_code_walk(modulus):
    # decompose labels lattice cosets and maps one vertex per coset through
    # one element per linear part; the code walk maps each orbit's first
    # vertex through every element
    for name, group in form_groups(modulus).items():
        dec, walk = decompose(group), oracle.code_walk_decomposition(group)
        assert dec.orbits == walk.orbits, name
        assert np.array_equal(dec.vertex_orbit, walk.vertex_orbit), name


@pytest.mark.parametrize("modulus", [2, 4, 8])
def test_orbit_sizes_and_representatives_match_the_vertex_orbit_ids(modulus):
    # decompose reads sizes and representatives off the lattice cells; the
    # ids per vertex give both again: a count per id, and each id's first
    # flat index
    for name, group in form_groups(modulus).items():
        dec = decompose(group)
        assert [o.size for o in dec.orbits] == np.bincount(dec.vertex_orbit).tolist(), name
        firsts = np.unique(dec.vertex_orbit, return_index=True)[1]
        assert [o.representative for o in dec.orbits] == list(map(tuple, coords(firsts, modulus).tolist())), name


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_the_decomposition_memory_is_sized_by_the_ids_not_per_vertex_objects(name):
    # at N = 16 the int64 orbit id per vertex is 8 * 16^3 bytes; a Python
    # tuple per vertex would be several times that
    h = preset(name, 16).coloring.recipe.group
    orbits_module._orbit_decomposition(h)
    tracemalloc.start()
    try:
        orbits_module._orbit_decomposition(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * 16**3, peak
