import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from honeycomb434.isometry import GENERATORS, IDENTITY, Isometry, eval_word, translation
from honeycomb434.quotient import (
    LINEAR_PARTS,
    MAX_MODULUS,
    MAX_RADIUS,
    CertificationError,
    IntegerLattice,
    SubgroupError,
    TorusGroup,
    build_group,
    build_subgroup,
    certify_translations,
    decode,
    element_key,
    encode,
    flat,
    images,
    index,
    left_cosets,
    member,
    multiply,
)

from conftest import RADIUS, WORDS

ORDERS = {
    2: {"full": 384, "half": 192, "literal-quarter": 192, "quarter": 96, "eighth": 48},
    4: {"full": 3072, "half": 1536, "literal-quarter": 1536, "quarter": 768, "eighth": 384},
}
INDICES = {"full": 1, "half": 2, "literal-quarter": 2, "quarter": 4, "eighth": 8}


def test_group_orders(group2, group4):
    assert group2.order == 384
    assert group4.order == 3072
    assert group2.order == 48 * 2**3
    assert group4.order == 48 * 4**3


@pytest.mark.parametrize("modulus", [0, 1, 3, -2, 5, MAX_MODULUS + 2, 10**6])
def test_modulus_must_be_even_and_positive(modulus):
    # every one is rejected before the 48 N^3 code space is allocated
    with pytest.raises(ValueError):
        build_group(modulus)


def test_subgroup_orders_and_indices(group2, group4, subs2, subs4):
    for modulus, group, subs in ((2, group2, subs2), (4, group4, subs4)):
        for name, sub in subs.items():
            assert sub.order == ORDERS[modulus][name], name
            assert index(group, sub) == INDICES[name], name
            assert group.order == sub.order * INDICES[name], name


def test_index_is_stable_across_moduli(group2, group4, subs2, subs4):
    for name in WORDS:
        assert index(group2, subs2[name]) == index(group4, subs4[name])


def test_adding_a_mirror_conjugate_collapses_to_the_half_subgroup(subs2):
    # the extra generator of "literal-quarter" contributes a translation of
    # even coordinate sum, so the group it generates is the parity subgroup
    assert subs2["literal-quarter"].elements == subs2["half"].elements


def test_quarter_contains_eighth(subs2):
    assert subs2["eighth"].elements < subs2["quarter"].elements
    assert index(subs2["quarter"], subs2["eighth"]) == 2
    # the index-4 subgroup is not nested inside the index-2 one: its extra
    # generator uses P an odd number of times
    assert not subs2["quarter"].elements <= subs2["half"].elements
    assert subs2["eighth"].elements < subs2["half"].elements


def test_certificates_are_sound(subs2, subs4):
    for modulus, subs in ((2, subs2), (4, subs4)):
        for name, sub in subs.items():
            cert = sub.translation_certificate
            assert sub.certified
            assert [w.target for w in cert] == [
                (modulus, 0, 0), (0, modulus, 0), (0, 0, modulus)
            ]
            for witness in cert:
                element = eval_word(witness.word)
                assert element == translation(witness.target)
                assert element == witness.element


def test_certificate_words_stay_inside_the_subgroup(group2, subs2):
    # every witness word, reduced mod N, lands in the subgroup itself
    for name, sub in subs2.items():
        for witness in sub.translation_certificate:
            assert member(sub, eval_word(witness.word))


def test_certificate_search_memory_does_not_grow_with_word_length(group2):
    # three 1,806-letter translation words that never span at radius 12: the
    # search keeps one back-pointer per product, not the product's word
    words = ("(QPQRSR)^301", "(RQPQRS)^301", "(PQRSRQ)^301")
    sub = build_subgroup(build_group(2), words)
    tracemalloc.start()
    try:
        with pytest.raises(CertificationError):
            certify_translations(sub, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_uncertified_until_certified(group2):
    # the full group is its own parent and needs no certificate
    assert group2.parent is group2
    assert group2.certified
    assert group2.translation_certificate is None
    raw = build_subgroup(group2, WORDS["eighth"])
    assert type(raw) is type(group2) is TorusGroup
    assert raw.parent is group2
    assert not raw.certified
    assert raw.translation_certificate is None
    done = certify_translations(raw, RADIUS)
    assert done.certified
    assert done.parent is group2
    assert done.elements is raw.elements
    assert done.generator_words == raw.generator_words


def test_finite_subgroup_fails_definitively(group2):
    with pytest.raises(CertificationError) as info:
        certify_translations(build_subgroup(group2, ("Q",)), 12)
    assert info.value.definitive
    assert "no certificate exists" in str(info.value)


def test_small_radius_fails_inconclusively(group2):
    with pytest.raises(CertificationError) as info:
        certify_translations(build_subgroup(group2, ("SRQPQR",)), 8)
    assert not info.value.definitive
    assert "radius exhausted" in str(info.value)


def test_radius_must_be_positive(group2):
    with pytest.raises(ValueError):
        certify_translations(build_subgroup(group2, ("Q",)), 0)
    with pytest.raises(ValueError, match="above the limit"):
        certify_translations(build_subgroup(group2, ("Q",)), MAX_RADIUS + 1)


def test_index_requires_containment(subs2):
    with pytest.raises(SubgroupError):
        index(subs2["eighth"], subs2["half"])


def test_left_cosets_partition(group2, subs2):
    for name in ("half", "quarter", "eighth"):
        sub = subs2[name]
        table = left_cosets(group2, sub)
        assert len(table.cosets) == INDICES[name]
        union = set()
        for coset in table.cosets:
            assert len(coset) == sub.order
            union |= coset
        assert union == set(group2.elements)
        # ids map every element to the coset that holds it
        for el, cid in table.ids.items():
            assert el in table.cosets[cid]
        # representatives are the canonical minima, in coset order
        for cid, rep in enumerate(table.representatives):
            assert rep == min(table.cosets[cid], key=element_key)


def test_cosets_of_subgroup_in_itself(subs2):
    table = left_cosets(subs2["eighth"], subs2["eighth"])
    assert len(table.cosets) == 1


def test_member(group2, subs2):
    assert member(subs2["half"], IDENTITY)
    assert member(subs2["half"], eval_word("QR"))
    assert not member(subs2["half"], GENERATORS["P"])
    # reduction happens before the membership test
    assert member(subs2["half"], translation((2, 0, 0)))


def test_integer_lattice_solves_with_certificates():
    lattice = IntegerLattice()
    rows = [(1, 1, 0), (1, -1, 0), (0, 0, 2)]
    for row in rows:
        lattice.add(row)
    coeffs = lattice.solve((2, 0, 0))
    assert coeffs is not None
    total = [0, 0, 0]
    for idx, c in coeffs.items():
        for axis in range(3):
            total[axis] += c * rows[idx][axis]
    assert tuple(total) == (2, 0, 0)
    assert lattice.solve((0, 0, 1)) is None
    assert lattice.solve((1, 0, 0)) is None
    assert lattice.solve((0, 0, 0)) == {}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
                min_size=1, max_size=6),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)))
def test_integer_lattice_certificates_always_reproduce_target(rows, target):
    lattice = IntegerLattice()
    for row in rows:
        lattice.add(row)
    coeffs = lattice.solve(target)
    if coeffs is None:
        return
    total = [0, 0, 0]
    for idx, c in coeffs.items():
        for axis in range(3):
            total[axis] += c * rows[idx][axis]
    assert tuple(total) == tuple(target)


def test_subgroup_words_must_parse(group2):
    from honeycomb434.isometry import WordError

    with pytest.raises(WordError):
        build_subgroup(group2, ("Q", "X"))


def test_element_key_orders_deterministically(group2):
    ordered = sorted(group2.elements, key=element_key)
    assert ordered == sorted(reversed(ordered), key=element_key)
    assert len(set(map(element_key, ordered))) == group2.order


def isometry_closure(modulus, words):
    """The subgroup generated by the words, closed element by element over
    Isometry values: the reference for the code closure."""
    seeds = [Isometry(g.perm, g.signs, tuple(t % modulus for t in g.trans))
             for g in map(eval_word, words)]
    seen = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for a in frontier:
            for g in seeds:
                b = a * g
                b = Isometry(b.perm, b.signs, tuple(t % modulus for t in b.trans))
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


@pytest.mark.parametrize("modulus", [2, 4, 8])
def test_code_closure_matches_the_isometry_closure(modulus):
    group = build_group(modulus)
    for name in ("full", "half", "quarter", "eighth"):
        sub = build_subgroup(group, WORDS[name])
        expected = isometry_closure(modulus, WORDS[name])
        assert sub.elements == expected, name
        # codes are sorted, and code order is element_key order
        assert list(sub.codes) == sorted(sub.codes)
        assert decode(sub.codes, modulus) == sorted(expected, key=element_key), name


def test_linear_parts_are_the_48_signed_permutations_in_canonical_order():
    mats = [Isometry(perm, signs, (0, 0, 0)).linear for perm, signs in LINEAR_PARTS]
    assert sorted(mats) == sorted(oracle.signed_permutation_matrices())
    flattened = [m[0] + m[1] + m[2] for m in mats]
    assert flattened == sorted(flattened) and len(set(flattened)) == 48


element_words = st.text(alphabet="PQRS", min_size=0, max_size=12)


@settings(max_examples=60, deadline=None)
@given(
    element_words,
    element_words,
    st.sampled_from([2, 4, 8]),
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
)
def test_code_products_match_isometry_products(u, v, modulus, vertex):
    a, b = eval_word(u) if u else IDENTITY, eval_word(v) if v else IDENTITY
    product = int(multiply(encode(a, modulus), encode(b, modulus), modulus))
    assert product == encode(a * b, modulus)
    (decoded,) = decode(product, modulus)
    assert decoded == Isometry((a * b).perm, (a * b).signs, tuple(t % modulus for t in (a * b).trans))
    moved = np.array([c % modulus for c in (a * b).apply(vertex)])
    assert images(product, vertex, modulus) == flat(moved, modulus)


@pytest.mark.parametrize("modulus", [2, 4])
def test_left_cosets_match_the_oracle(modulus, subs2, subs4):
    subs = subs2 if modulus == 2 else subs4

    def as_oracle(el):
        return (el.linear, el.trans)

    for h_name, j_name in (("full", "half"), ("full", "quarter"), ("full", "eighth"),
                           ("half", "eighth"), ("quarter", "eighth"), ("eighth", "eighth")):
        h, j = subs[h_name], subs[j_name]
        table = left_cosets(h, j)
        h_el = {as_oracle(el) for el in h.elements}
        j_el = {as_oracle(el) for el in j.elements}
        expected = set(oracle.left_cosets(h_el, j_el, modulus))
        assert {frozenset(map(as_oracle, c)) for c in table.cosets} == expected
        # brute force: ids agree with membership, representatives are the
        # canonical minima and come in canonical order
        for el, cid in table.ids.items():
            assert el in table.cosets[cid]
        assert list(table.representatives) == sorted(
            (min(c, key=element_key) for c in table.cosets), key=element_key
        )
        for cid, rep in enumerate(table.representatives):
            assert rep == min(table.cosets[cid], key=element_key)
