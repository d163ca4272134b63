import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import identity_digest
import oracle
from honeycomb434.isometry import (
    GENERATORS,
    IDENTITY,
    LINEAR_PARTS,
    MAX_WORD_LETTERS,
    Isometry,
    WordError,
    eval_word,
    parse_word,
    translation,
)
from honeycomb434 import cli, isometry, quotient
from honeycomb434.coloring import color_group, stoichiometry, verify_theorem
from honeycomb434.crystal import (
    PRESET_NAMES,
    export_off,
    export_report,
    export_xyz,
    load_config,
    preset,
)
from honeycomb434.orbits import decompose, stabilizer_codes
from honeycomb434.quotient import (
    MAX_MODULUS,
    _MUL,
    CertificationError,
    SubgroupError,
    TorusGroup,
    apply_linear,
    build_group,
    build_subgroup,
    certify_translations,
    coords,
    decode,
    encode,
    flat,
    identity_code,
    images,
    index,
    left_cosets,
    multiply,
    split,
)

from conftest import WORDS, form_groups, oversized_witness_words

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
            assert sub.includes(encode(eval_word(witness.word), sub.modulus))


def test_certificate_search_memory_does_not_grow_with_word_length(group2):
    # a certifiable set with one 1,803-letter word: the search keeps one
    # back-pointer per product, not the product's word
    sub = build_subgroup(group2, ("Q", "R", "S", "(QQ)^900PQP"))
    tracemalloc.start()
    try:
        done = certify_translations(sub)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert done.certified
    assert max(len(w.word) for w in done.translation_certificate) > 1803
    assert peak < 4 * 2**20


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
    done = certify_translations(raw)
    assert done.certified
    assert done.parent is group2
    # the copy carries no element array, and enumerates its own codes
    assert "codes" not in raw.__dict__
    assert np.array_equal(done.codes, build_subgroup(group2, WORDS["eighth"]).codes)
    assert done.generator_words == raw.generator_words


@pytest.mark.parametrize("modulus", [2, 4, 8])
def test_codes_on_first_use_are_the_eager_enumeration(modulus):
    for name, group in form_groups(modulus).items():
        codes = group.codes
        assert np.array_equal(codes, oracle.eager_codes(group)), name
        assert not codes.flags.writeable, name
        assert group.codes is codes, name


@pytest.mark.parametrize("modulus", [2, 4, 8])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_only_the_coloring_group_enumerates_its_codes(name, modulus):
    # the benchmark's library steps: cosets, painting and the theorem read
    # the groups' forms, so not even the coloring's H enumerates its codes
    model = preset(name, modulus)
    coloring = model.coloring
    h, plans = coloring.recipe.group, coloring.recipe.plans
    decomp = decompose(h)
    for plan in plans:
        rep = decomp.orbits[plan.orbit].representative
        assert verify_theorem(h, plan.subgroup, rep, coloring).ok
    cg = color_group(coloring)
    stoichiometry(coloring)
    export_xyz(model, (1, 1, 1))
    export_off(model, (2, 2, 2))
    export_report(model)
    groups = [h, h.parent, *(plan.subgroup for plan in plans), cg.subgroup]
    assert [("codes" in g.__dict__) for g in groups] == [False] * len(groups)


@pytest.mark.parametrize("modulus", [2, 4, 8])
def test_the_subgroup_and_orbits_commands_enumerate_no_codes(modulus):
    for name, words in WORDS.items():
        sub = cli._certified_subgroup(modulus, words)
        index(sub.parent, sub)
        doubled = build_subgroup(build_group(2 * modulus), words)
        index(doubled.parent, doubled)
        for orbit in decompose(sub).orbits:
            stabilizer_codes(sub, orbit.representative)
        for group in (sub, sub.parent, doubled, doubled.parent):
            assert "codes" not in group.__dict__, name


def test_a_word_that_leaves_the_group_is_refused(subs2):
    half = subs2["half"]
    with pytest.raises(SubgroupError, match="word P leaves the group"):
        build_subgroup(half, ["P"])
    with pytest.raises(SubgroupError, match="word P·Q leaves the group"):
        build_subgroup(half, ["Q", "PQ", "P"])
    inner = build_subgroup(half, ["Q", "PQP"])
    assert inner.within(half)
    assert inner.parent is half.parent


@pytest.mark.parametrize("modulus", [4.0, "4", True, None, 4 + 0j])
def test_a_modulus_is_an_integer(modulus):
    with pytest.raises(ValueError, match="modulus must be an integer"):
        build_group(modulus)
    with pytest.raises(ValueError, match="modulus must be an integer"):
        preset("nbo", modulus)


def test_a_numpy_integer_modulus_is_accepted():
    assert build_group(np.int64(4)).order == 48 * 4**3
    assert preset("nbo", np.int16(4)).modulus == 4


def test_finite_subgroup_fails_definitively(group2):
    with pytest.raises(CertificationError) as info:
        certify_translations(build_subgroup(group2, ("Q",)))
    assert "no certificate exists" in str(info.value)


def test_small_radius_fails_inconclusively(group2):
    # the translations of <SRQPQR> have rank 1, so no search radius could
    # certify it: the answer is an exact "no"
    with pytest.raises(CertificationError) as info:
        certify_translations(build_subgroup(group2, ("SRQPQR",)))
    assert "no certificate exists" in str(info.value)


def test_certification_errors_spell_out_at_most_40_letters_per_word(group2):
    # words of up to 40 letters are spelled out whole
    with pytest.raises(CertificationError) as info:
        certify_translations(build_subgroup(group2, ("SRQPQR",)))
    assert str(info.value) == (
        "translations (2, 0, 0) not reachable from ['S·R·Q·P·Q·R'] (no certificate exists)"
    )
    forty = "·".join("QPQRSR" * 6 + "QPQR")
    with pytest.raises(CertificationError) as info:
        certify_translations(build_subgroup(group2, ("(QPQRSR)^6QPQR",)))
    assert f"['{forty}']" in str(info.value)
    # a longer word keeps its first 40 letters and states its length
    with pytest.raises(CertificationError) as info:
        certify_translations(build_subgroup(group2, ("(QPQRSR)^7",)))
    assert f"['{forty}…(42 letters)']" in str(info.value)


UNCERTIFIABLE = {
    "Q": ("Q",),
    "Q,R": ("Q", "R"),
    "SRQPQR": ("SRQPQR",),
    "P,QRSRQ,QPQ,RSR": ("P", "QRSRQ", "QPQ", "RSR"),
    "1806-letter words": ("(QPQRSR)^301", "(RQPQRS)^301", "(PQRSRQ)^301"),
}


@pytest.mark.parametrize("modulus", [2, 8])
@pytest.mark.parametrize("name", sorted(UNCERTIFIABLE))
def test_exact_no_never_enters_the_search(monkeypatch, modulus, name):
    def search(*args):
        raise AssertionError("the witness search ran")

    monkeypatch.setattr(quotient, "_certificate_search", search)
    sub = build_subgroup(build_group(modulus), UNCERTIFIABLE[name])
    with pytest.raises(CertificationError, match=r"\(no certificate exists\)$"):
        certify_translations(sub)


def test_a_group_without_words_has_no_certificate():
    colors = color_group(preset("nbo").coloring).subgroup
    assert colors.generator_words == () and colors.translation_lattice == ()
    with pytest.raises(CertificationError, match="no certificate exists"):
        certify_translations(colors)


def test_a_missed_witness_is_a_certification_error(monkeypatch, group2):
    # the lattice holds the targets, but a search cut at one factor cannot
    # reach them; the error says so
    monkeypatch.setattr(quotient, "_SEARCH_DEPTH", 1)
    with pytest.raises(CertificationError) as info:
        certify_translations(build_subgroup(group2, WORDS["quarter"]))
    assert str(info.value).endswith(
        "lie in the lattice of ['Q', 'R', 'S', 'Q·P·Q·R·Q·P·Q·R·P'], "
        "but no witness was found within 1 generator factors"
    )


def test_an_oversized_witness_is_refused_before_it_is_built():
    sub = build_subgroup(build_group(16), oversized_witness_words())
    with pytest.raises(CertificationError) as info:
        certify_translations(sub)
    assert str(info.value) == (
        "the witness for (16, 0, 0) would spell 33382178989097837440000 letters, "
        "above the limit 1000000"
    )


def hermite_membership(rows):
    """Membership in the lattice the integer rows span, by sympy's Hermite
    normal form: no code shared with the package.  The form's columns are
    a basis, so a target is held iff its one rational combination of them
    is integral."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    basis = hermite_normal_form(sympy.Matrix(list(rows) or [[0, 0, 0]]).T)
    if basis.cols == 0:
        return lambda target: not any(target)
    left_inverse = (basis.T * basis).inv() * basis.T

    def holds(target):
        target = sympy.Matrix(target)
        x = left_inverse * target
        return all(entry.is_integer for entry in x) and basis * x == target

    return holds


def oracle_lattice_holds(words, modulus):
    """Does the translation lattice of <words> hold N e_1, N e_2 and N e_3?

    Schreier generators from the oracle's unreduced matrices, then
    `hermite_membership`."""
    gens = [oracle.eval_letters(w) for w in words]
    picked = {oracle.IDENT[0]: oracle.IDENT}
    walk = [oracle.IDENT]
    rows = set()
    for u in walk:
        for g in gens:
            x = oracle.compose(u, g)
            if x[0] in picked:
                rows.add(oracle.compose(x, oracle.inverse(picked[x[0]]))[1])
            else:
                picked[x[0]] = x
                walk.append(x)
    holds = hermite_membership(sorted(rows))
    return all(holds(t) for t in ((modulus, 0, 0), (0, modulus, 0), (0, 0, modulus)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(alphabet="PQRS", min_size=1, max_size=10), min_size=1, max_size=4),
    st.sampled_from([2, 4, 8]),
)
def test_certification_succeeds_exactly_when_the_lattice_holds_the_targets(words, modulus):
    sub = build_subgroup(build_group(modulus), words)
    try:
        done = certify_translations(sub)
    except CertificationError as exc:
        assert str(exc).endswith("(no certificate exists)")
        assert not oracle_lattice_holds(words, modulus)
    else:
        assert oracle_lattice_holds(words, modulus)
        for witness in done.translation_certificate:
            assert eval_word(witness.word) == translation(witness.target)


@pytest.mark.parametrize("modulus", [2, 4, 8, 16])
@pytest.mark.parametrize("name", sorted(INDICES))
def test_point_group_and_lattice_give_the_index(modulus, name):
    # [G : H] = [48 : |pi(H)|] [Z^3 : Lambda_H], read off the walk's
    # linear parts and lattice, with no coset or orbit computed; the
    # indices are those sympy's Todd-Coxeter enumeration gives in
    # tests/test_todd_coxeter.py
    sub = build_subgroup(build_group(modulus), WORDS[name])
    point_group = len(np.unique(sub.codes // modulus**3))
    (a, _, _), (_, b, _), (_, _, c) = sub.translation_lattice
    assert 48 // point_group * a * b * c == INDICES[name]


def test_index_requires_containment(subs2):
    with pytest.raises(SubgroupError):
        index(subs2["eighth"], subs2["half"])


def as_oracle(el):
    """An Isometry in the oracle's (matrix rows, translation) form."""
    return (el.linear, el.trans)


def canonical_min(elements):
    return min(elements, key=lambda el: oracle.canonical_key(as_oracle(el)))


def coset_elements(table):
    """Each coset of the table as a frozenset of Isometry, by coset id."""
    h = table.group
    return [
        frozenset(decode(h.codes[table.coset_ids == cid], h.modulus))
        for cid in range(len(table.representative_codes))
    ]


def test_left_cosets_partition(group2, subs2):
    n = group2.modulus
    for name in ("half", "quarter", "eighth"):
        sub = subs2[name]
        table = left_cosets(group2, sub)
        cosets = coset_elements(table)
        assert len(cosets) == INDICES[name]
        union = set()
        for coset in cosets:
            assert len(coset) == sub.order
            union |= coset
        assert union == set(group2.elements)
        # ids map every element to the coset that holds it: all of g J
        for pos, g in enumerate(group2.codes):
            g_j = np.searchsorted(group2.codes, multiply(g, sub.codes, n))
            assert (table.coset_ids[g_j] == table.coset_ids[pos]).all()
        # representatives are the canonical minima, in coset order
        for cid, rep in enumerate(decode(table.representative_codes, n)):
            assert rep == canonical_min(cosets[cid])


def test_cosets_of_subgroup_in_itself(subs2):
    table = left_cosets(subs2["eighth"], subs2["eighth"])
    assert len(table.representative_codes) == 1


def test_member(group2, subs2):
    half = subs2["half"]

    def member(g):
        return bool(half.includes(encode(g, half.modulus)))

    assert member(IDENTITY)
    assert member(eval_word("QR"))
    assert not member(GENERATORS["P"])
    # reduction happens before the membership test
    assert member(translation((2, 0, 0)))


def numbered(rows):
    """The rows as `_reduce` input, each its own combination {i: 1}."""
    return [(*row, {i: 1}) for i, row in enumerate(rows)]


def combination(rows, coefficients):
    """The sum of c * rows[i] over the coefficients {i: c}."""
    return tuple(sum(c * rows[i][axis] for i, c in coefficients.items()) for axis in range(3))


def test_integer_lattice_solves_with_certificates():
    rows = [(1, 1, 0), (1, -1, 0), (0, 0, 2)]
    basis = quotient._reduce(numbered(rows))
    coeffs = quotient._solve(basis, (2, 0, 0))
    assert coeffs is not None
    assert combination(rows, coeffs) == (2, 0, 0)
    assert quotient._solve(basis, (0, 0, 1)) is None
    assert quotient._solve(basis, (1, 0, 0)) is None
    assert quotient._solve(basis, (0, 0, 0)) == {}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
                min_size=1, max_size=6),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)))
def test_integer_lattice_certificates_always_reproduce_target(rows, target):
    coeffs = quotient._solve(quotient._reduce(numbered(rows)), target)
    if coeffs is None:
        return
    assert combination(rows, coeffs) == tuple(target)


def test_subgroup_words_must_parse(group2):
    from honeycomb434.isometry import WordError

    with pytest.raises(WordError):
        build_subgroup(group2, ("Q", "X"))


def test_element_key_orders_deterministically(group2):
    # the canonical element order is a total order, and it is code order
    key = oracle.canonical_key
    ordered = sorted(map(as_oracle, group2.elements), key=key)
    assert ordered == sorted(reversed(ordered), key=key)
    assert len(set(map(key, ordered))) == group2.order
    assert [as_oracle(el) for el in decode(group2.codes, group2.modulus)] == ordered


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


def code_closure(modulus, words):
    """The subgroup generated by the words, closed breadth-first over codes.
    The reference for the space-group enumeration of `build_subgroup`."""
    return closure(modulus, [encode(eval_word(w), modulus) for w in words])


def closure(modulus, seeds):
    """The subgroup generated by the codes, closed breadth-first: one array
    pass per generator and level, a boolean mask over the 48 N^3 codes
    keeping each element once."""
    n = modulus
    seen = np.zeros(48 * n**3, dtype=bool)
    seen[identity_code(n)] = True
    frontier = np.array([identity_code(n)], dtype=np.int64)
    while frontier.size:
        fresh = np.zeros_like(seen)
        for g in seeds:
            fresh[multiply(frontier, g, n)] = True
        fresh &= ~seen
        seen |= fresh
        frontier = np.flatnonzero(fresh)
    return np.flatnonzero(seen)


@pytest.mark.parametrize("modulus", [2, 4])
def test_the_generator_codes_generate_the_group(modulus):
    # part 1, part 3 and `within` read only these codes: the translations
    # by the lattice rows, then (L, t_L) for a generating set of the point
    # group
    full = build_group(modulus)
    sweep = {name: build_subgroup(full, w) for name, w in identity_digest.SWEEP_WORDS.items()}
    for name, group in {**sweep, **form_groups(modulus)}.items():
        generators = group._generator_codes
        assert len(generators) <= 8, name
        assert np.array_equal(closure(modulus, generators), group.codes), name


@pytest.mark.parametrize("modulus", [2, 4, 8, 16])
def test_full_group_is_every_code(modulus):
    group = build_group(modulus)
    every = np.arange(48 * modulus**3)
    assert np.array_equal(group.codes, every)
    # P, Q, R and S really generate all of them
    closed = build_subgroup(group, ("P", "Q", "R", "S"))
    assert np.array_equal(closed.codes, every)
    assert np.array_equal(code_closure(modulus, WORDS["full"]), every)
    assert group.certified
    assert group.parent is group


@pytest.mark.parametrize("modulus", [2, 4, 8])
def test_code_closure_matches_the_isometry_closure(modulus):
    group = build_group(modulus)
    for name in ("full", "half", "quarter", "eighth"):
        sub = build_subgroup(group, WORDS[name])
        expected = isometry_closure(modulus, WORDS[name])
        assert sub.elements == expected, name
        # codes are sorted, and code order is the canonical order
        assert list(sub.codes) == sorted(sub.codes)
        canonical = sorted(expected, key=lambda el: oracle.canonical_key(as_oracle(el)))
        assert decode(sub.codes, modulus) == canonical, name
        # any shape decodes in C order
        assert decode(sub.codes.reshape(2, -1), modulus) == canonical, name


def test_linear_parts_are_the_48_signed_permutations_in_canonical_order():
    mats = [Isometry(perm, signs, (0, 0, 0)).linear for perm, signs in LINEAR_PARTS]
    assert sorted(mats) == sorted(oracle.signed_permutation_matrices())
    flattened = [m[0] + m[1] + m[2] for m in mats]
    assert flattened == sorted(flattened) and len(set(flattened)) == 48


@pytest.mark.parametrize("modulus", [2, 4])
def test_apply_linear_matches_isometry_apply_with_either_factor_fixed(modulus):
    n = modulus
    vertices = coords(np.arange(n**3), n)
    linear_parts = [Isometry(perm, signs, (0, 0, 0)) for perm, signs in LINEAR_PARTS]
    expected = np.array([[[c % n for c in el.apply(v)] for v in vertices.tolist()] for el in linear_parts])
    for l in range(48):
        # one linear index, every vertex
        assert np.array_equal(apply_linear(l, vertices, n), expected[l])
    for i, v in enumerate(vertices):
        # every linear index, one vertex
        assert np.array_equal(apply_linear(np.arange(48), v, n), expected[:, i])
    # every linear index and every vertex: the outer product, vertices first
    both = apply_linear(np.arange(48), vertices, n)
    assert both.shape == (n**3, 48, 3)
    assert np.array_equal(both, expected.transpose(1, 0, 2))
    # any shapes on either side
    grid = vertices.reshape(-1, 2, 3)
    parts = np.arange(48).reshape(6, 8)
    assert np.array_equal(
        apply_linear(parts, grid, n), expected[parts].transpose(2, 0, 1, 3).reshape(-1, 2, 6, 8, 3)
    )


@pytest.mark.parametrize("modulus", [2, 4])
def test_multiply_is_the_outer_product_of_isometry_products(modulus):
    # every product a * b, of shape b.shape + a.shape, whether each side is
    # an array of codes or a single code
    rng = np.random.default_rng(modulus)
    codes = build_group(modulus).codes
    a, b = rng.choice(codes, (3, 2)), rng.choice(codes, 5)
    expected = np.array(
        [[encode(x * y, modulus) for x in decode(a, modulus)] for y in decode(b, modulus)]
    ).reshape(5, 3, 2)
    assert np.array_equal(multiply(a, b, modulus), expected)
    assert np.array_equal(multiply(a, b[1], modulus), expected[1])
    assert np.array_equal(multiply(a[2, 0], b, modulus), expected[:, 2, 0])


def test_composition_table_matches_isometry_products():
    linear_parts = [Isometry(perm, signs, (0, 0, 0)) for perm, signs in LINEAR_PARTS]
    position = {el: l for l, el in enumerate(linear_parts)}
    expected = [[position[a * b] for b in linear_parts] for a in linear_parts]
    assert _MUL.tolist() == expected


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
    for h_name, j_name in (("full", "half"), ("full", "quarter"), ("full", "eighth"),
                           ("half", "eighth"), ("quarter", "eighth"), ("eighth", "eighth")):
        h, j = subs[h_name], subs[j_name]
        table = left_cosets(h, j)
        h_el = {as_oracle(el) for el in h.elements}
        j_el = {as_oracle(el) for el in j.elements}
        expected = oracle.left_cosets(h_el, j_el, modulus)
        cosets = coset_elements(table)
        assert {frozenset(map(as_oracle, c)) for c in cosets} == set(expected)
        # brute force: ids agree with membership of the oracle's cosets,
        # representatives are the canonical minima and come in canonical order
        coset_of = dict(zip(map(as_oracle, decode(h.codes, modulus)), table.coset_ids.tolist()))
        for coset in expected:
            assert len({coset_of[el] for el in coset}) == 1
        representatives = decode(table.representative_codes, modulus)
        assert representatives == sorted(
            map(canonical_min, cosets), key=lambda el: oracle.canonical_key(as_oracle(el))
        )
        for cid, rep in enumerate(representatives):
            assert rep == canonical_min(cosets[cid])


@pytest.fixture(scope="module", params=[2, 4, 8])
def walked_pairs(request):
    """The form groups and the large-index J, by name, and for every pair
    (H, J) of them with J within H, the code walk's cosets of J in H."""
    groups = dict(form_groups(request.param))
    full = groups["the full group"]
    n = request.param
    # [H:J] = N^3 in the full group
    groups["large-index J"] = certify_translations(
        build_subgroup(full, ("Q", "R", "S", f"(QPQRSR)^{n}", f"(RQPQRS)^{n}", f"(PQRSRQ)^{n}"))
    )
    walks = {
        (h_name, j_name): oracle.code_walk_cosets(h, j)
        for h_name, h in groups.items()
        for j_name, j in groups.items()
        if j.within(h)
    }
    return groups, walks


def test_left_cosets_match_the_code_walk(walked_pairs):
    # left_cosets keys each coset by its smallest linear part and a lattice
    # cell; the code walk labels each coset whole from its smallest element
    groups, walks = walked_pairs
    pairs = 0
    for (h_name, j_name), (ids, representatives) in walks.items():
        table = left_cosets(groups[h_name], groups[j_name])
        assert np.array_equal(table.coset_ids, ids), (h_name, j_name)
        assert np.array_equal(table.representative_codes, representatives), (h_name, j_name)
        pairs += 1
    # every group lies within itself and within the full group
    assert pairs >= 2 * len(groups) - 1


def test_left_cosets_enumerate_no_codes(walked_pairs):
    # copies of the groups start without codes; left_cosets reads the
    # representatives off the forms, and only coset_ids reads H's codes
    groups, walks = walked_pairs
    fresh = {name: replace(group) for name, group in groups.items()}
    for h_name, j_name in walks:
        h, j = fresh[h_name], fresh[j_name]
        table = left_cosets(h, j)
        assert np.array_equal(table.representative_codes, walks[h_name, j_name][1]), (h_name, j_name)
        assert "codes" not in h.__dict__ and "codes" not in j.__dict__, (h_name, j_name)
        assert "coset_ids" not in table.__dict__


def test_coset_keys_of_products_match_the_code_walk(walked_pairs):
    # a key names the coset of any element of H, not only of H's codes in
    # left_cosets' blocks: random products g h get the key of the smallest
    # element of the coset that the code walk puts them in
    groups, walks = walked_pairs
    n = groups["the full group"].modulus
    rng = np.random.default_rng(n)
    for (h_name, j_name), (ids, representatives) in walks.items():
        h, j = groups[h_name], groups[j_name]
        representative_keys = quotient._coset_keys(j, *split(representatives, n))
        # keys ascend with the cosets' smallest elements
        assert (np.diff(representative_keys) > 0).all(), (h_name, j_name)
        for g in rng.choice(h.codes, 3):
            products = multiply(g, rng.choice(h.codes, 32), n)
            positions = np.searchsorted(h.codes, products)
            assert np.array_equal(h.codes[positions], products)
            keys = quotient._coset_keys(j, *split(products, n))
            assert np.array_equal(keys, representative_keys[ids[positions]]), (h_name, j_name)
        # one element alone, as J's own coset is found
        assert quotient._coset_keys(j, *split(h.codes[-1], n)) == representative_keys[ids[-1]]


# point group, and the rank of the translation lattice, in the comments
FIXED_WORD_SETS = {
    "Q": ("Q",),  # order 2, rank 0
    "Q,R": ("Q", "R"),  # order 6, rank 0
    "P": ("P",),  # a mirror with a translated plane, rank 0
    "SRQPQR": ("SRQPQR",),  # one screw-like element, rank 1
    "P,QRSRQ,QPQ,RSR": ("P", "QRSRQ", "QPQ", "RSR"),  # rank 2
    "eighth": WORDS["eighth"],  # all 48 linear parts, rank 3
    "none": (),
    "PP": ("PP",),
}


@pytest.mark.parametrize("modulus", [2, 4, 8])
@pytest.mark.parametrize("name", sorted(FIXED_WORD_SETS))
def test_enumeration_matches_the_closure_oracle(modulus, name):
    words = FIXED_WORD_SETS[name]
    sub = build_subgroup(build_group(modulus), words)
    assert np.array_equal(sub.codes, code_closure(modulus, sub.generator_words))
    assert sub.codes.dtype == np.int64


@pytest.mark.parametrize(
    "name, rank",
    [("Q", 0), ("Q,R", 0), ("P", 0), ("SRQPQR", 1), ("P,QRSRQ,QPQ,RSR", 2), ("eighth", 3),
     ("none", 0), ("PP", 0)],
)
def test_translation_lattice_has_the_stated_rank(name, rank):
    sub = build_subgroup(build_group(2), FIXED_WORD_SETS[name])
    assert len(sub.translation_lattice) == rank


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(alphabet="PQRS", min_size=1, max_size=12), min_size=1, max_size=3),
    st.sampled_from([2, 4, 8]),
)
def test_enumeration_matches_the_closure_oracle_on_random_words(words, modulus):
    sub = build_subgroup(build_group(modulus), words)
    assert np.array_equal(sub.codes, code_closure(modulus, words))


@pytest.mark.parametrize("name", sorted(WORDS))
def test_preset_orders_at_modulus_16(name):
    sub = build_subgroup(build_group(16), WORDS[name])
    assert sub.order == 48 * 16**3 // INDICES[name]
    assert list(sub.codes) == sorted(set(sub.codes.tolist()))


def test_tuple_words_get_the_string_word_checks(group2):
    # one letter over the cap is refused, as for a string word
    with pytest.raises(WordError, match="flattens to more than 10000 letters"):
        build_subgroup(group2, [tuple("P" * (MAX_WORD_LETTERS + 1))])
    with pytest.raises(WordError, match="flattens to more than 10000 letters"):
        build_subgroup(group2, ["P" * (MAX_WORD_LETTERS + 1)])
    # a multi-letter "letter" is refused, and quoted in part
    with pytest.raises(WordError, match="unknown generator") as info:
        build_subgroup(group2, [("P" * 20_000,)])
    assert len(str(info.value)) < 200
    with pytest.raises(WordError, match="unknown generator 'X'"):
        build_subgroup(group2, [("Q",), ("P", "X")])
    # a word at the cap is accepted: P^10000 is the identity, P^9999 is P
    assert build_subgroup(group2, [("P",) * MAX_WORD_LETTERS]).order == 1
    assert build_subgroup(group2, [("P",) * (MAX_WORD_LETTERS - 1)]).order == 2
    assert build_subgroup(group2, [("Q",), "R"]).generator_words == (("Q",), ("R",))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
                max_size=8))
def test_integer_lattice_basis_is_triangular_and_spans_the_rows(rows):
    reduced = quotient._reduce(numbered(rows))
    basis = [row[:3] for row in reduced]
    pivots = [next(k for k in range(3) if row[k]) for row in basis]
    # one row per pivot column, in column order, zero left of its pivot
    # and positive on it
    assert pivots == sorted(set(pivots))
    for row, col in zip(basis, pivots):
        assert all(row[k] == 0 for k in range(col)) and row[col] > 0
    for row in list(rows) + list(basis):
        assert quotient._solve(reduced, row) is not None
    # the basis spans no more than the rows: it has as many rows as their rank
    assert len(basis) == np.linalg.matrix_rank(np.array(rows, dtype=float).reshape(-1, 3))


def test_integer_lattice_basis_of_a_full_rank_lattice():
    rows = ((4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 0), (0, 2, 2))
    basis = [row[:3] for row in quotient._reduce(numbered(rows))]
    assert len(basis) == 3
    # the diagonal divides 4, and its product is the determinant: 16, that
    # of twice the fcc lattice
    assert [basis[k][k] for k in range(3)] == [2, 2, 4]


def repeated(rows):
    """The rows followed by up to three of them again."""
    if not rows:
        return st.just(rows)
    return st.lists(st.sampled_from(rows), max_size=3).map(lambda again: rows + again)


small_vectors = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
axis_multiples = st.builds(
    lambda n, axis, sign: tuple(sign * n if k == axis else 0 for k in range(3)),
    st.sampled_from([2, 4, 8, 16]), st.integers(0, 2), st.sampled_from([1, -1]),
)
# rows for the reduction: small entries, zero rows, negatives, N e_i and
# repeats of earlier rows among them
lattice_rows = st.lists(
    st.one_of(small_vectors, st.just((0, 0, 0)), axis_multiples), max_size=10
).flatmap(repeated)


@settings(max_examples=200, deadline=None)
@given(lattice_rows, st.lists(small_vectors, max_size=6))
def test_the_reduced_basis_carries_its_coefficients(rows, probes):
    basis = quotient._reduce(numbered(rows))
    # each basis row is the combination of input rows its coefficients name
    for *row, coefficients in basis:
        assert combination(rows, coefficients) == tuple(row)
    # every input row is solved back exactly
    for row in rows:
        assert combination(rows, quotient._solve(basis, row)) == row
    # with no coefficients asked for, the same eliminations give the same rows
    assert quotient._reduce(rows) == tuple(row[:3] for row in basis)
    # _solve's yes or no is the Hermite normal form's, for the rows, their
    # sums and differences, multiples of the axes and others
    holds = hermite_membership(rows)
    pairs = [(a, b) for a in rows[:4] for b in rows[:4]]
    targets = [*rows, *probes, *[tuple(x + y for x, y in zip(a, b)) for a, b in pairs],
               *[tuple(x - y for x, y in zip(a, b)) for a, b in pairs],
               (1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 0, 0), (0, 0, 0)]
    for t in targets:
        solved = quotient._solve(basis, t)
        assert (solved is not None) == holds(t), t
        assert solved is None or combination(rows, solved) == t, t


def test_step_rows_are_built_once_per_longer_word(monkeypatch):
    # building and certifying a WORDS set builds rows only for its
    # multi-letter words and their reversals, each at most once, and each
    # multi-letter word exactly once; P, Q, R and S read isometry._STEPS
    built = []
    step_rows = quotient._step_rows

    def counted(g):
        built.append(g)
        return step_rows(g)

    monkeypatch.setattr(quotient, "_step_rows", counted)
    for modulus in (2, 4):
        group = build_group(modulus)
        for name, words in WORDS.items():
            built.clear()
            sub = certify_translations(build_subgroup(group, words))
            assert sub.certified
            longer = [w for w in sub.generator_words if len(w) > 1]
            allowed = {eval_word(ww) for w in longer for ww in (w, w[::-1])}
            assert len(built) == len(set(built)), name
            assert set(built) <= allowed, name
            assert {eval_word(w) for w in longer} <= set(built), name
            assert not set(built) & set(GENERATORS.values()), name
    for letter, rows in isometry._STEPS.items():
        assert quotient._word_steps((letter,), {}) is rows


def isometry_certificate_search(words, targets):
    """The witness search over `Isometry` products, each frontier product
    kept with its factor list: the reference for `_certificate_search`,
    which walks integer states on a step table with back-pointers.  Same
    generators, breadth-first order and first-spanning-depth stop.
    Each depth that finds translations reduces every row found so far
    afresh.  Returns (found, basis, the word of each row)."""
    gens, gen_words = [], []
    for w in words:
        for ww in (w, tuple(reversed(w))):
            el = eval_word(ww)
            if not el.is_identity and el not in gens:
                gens.append(el)
                gen_words.append(ww)
    basis, rows, row_factors = (), [], []
    seen = {IDENTITY}
    frontier = [(IDENTITY, ())]
    found = False
    for _ in range(quotient._SEARCH_DEPTH):
        next_frontier = []
        fresh = False
        for el, factors in frontier:
            for g, gel in enumerate(gens):
                ne = el * gel
                if ne in seen:
                    continue
                seen.add(ne)
                next_frontier.append((ne, factors + (g,)))
                if ne.is_translation and ne.trans != (0, 0, 0):
                    row_factors.append(factors + (g,))
                    rows.append(ne.trans)
                    fresh = True
        if fresh:
            basis = quotient._reduce(numbered(rows))
            if all(quotient._solve(basis, t) is not None for t in targets):
                found = True
                break
        frontier = next_frontier
    row_words = [tuple(letter for g in f for letter in gen_words[g]) for f in row_factors]
    return found, basis, row_words


def assert_searches_agree(words, modulus):
    words = tuple(map(parse_word, words))
    n = modulus
    targets = ((n, 0, 0), (0, n, 0), (0, 0, n))
    basis, row_word = quotient._certificate_search(words, targets)
    found, expected, row_words = isometry_certificate_search(words, targets)
    # the same rows, words, basis and coefficients: row_word spells each
    # row found, and there is no row past them
    assert [row_word(i) for i in range(len(row_words))] == row_words
    with pytest.raises(IndexError):
        row_word(len(row_words))
    assert basis == expected
    solved = [quotient._solve(basis, t) for t in targets]
    assert solved == [quotient._solve(expected, t) for t in targets]
    assert found == all(coefficients is not None for coefficients in solved)
    return found


SEARCH_WORD_SETS = {**WORDS, "(QQ)^900PQP": ("Q", "R", "S", "(QQ)^900PQP")}


@pytest.mark.parametrize("modulus", [2, 4, 8, 16])
@pytest.mark.parametrize("name", sorted(SEARCH_WORD_SETS))
def test_certificate_search_matches_the_isometry_search(modulus, name):
    assert assert_searches_agree(SEARCH_WORD_SETS[name], modulus)


@pytest.mark.parametrize("name", ["Q", "Q,R", "SRQPQR", "P,QRSRQ,QPQ,RSR"])
def test_a_search_without_witnesses_matches_the_isometry_search(name):
    # the lattice misses the targets, so both searches run every level
    assert not assert_searches_agree(UNCERTIFIABLE[name], 2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(alphabet="PQRS", min_size=1, max_size=12), min_size=1, max_size=4),
    st.sampled_from([2, 4, 8, 16]),
)
def test_certificate_search_matches_the_isometry_search_on_random_words(words, modulus):
    # the search runs once the lattice holds the targets, as in
    # certify_translations; elsewhere it would walk all 24 levels of a
    # group with infinitely many elements
    lattice = build_subgroup(build_group(modulus), words).translation_lattice
    targets = ((modulus, 0, 0), (0, modulus, 0), (0, 0, modulus))
    if all(quotient._solve(lattice, t) is not None for t in targets):
        assert assert_searches_agree(words, modulus)


# the witness words the cli-n2 `subgroup` commands print at N = 2
PINNED_WITNESSES = {
    "full": (
        "QPQRSRQPQRSR",
        "RQPQRSRQPQRS",
        "PQRSRQPQRSRQ",
    ),
    "half": (
        "QRSRPQPRSRSRQSRPQPRQQRSQRPQPRSPQPRQSRQSRPQPRQSRQSR",
        "RSRPQPRSRQQRPQPRSQRSQRPQPRSQRSQRPQPRSQRSSRPQPRQSRQRSQRSQRPQPRSQRSQRPQP",
        "RSRPQPRSRQQRPQPRSQRSSRPQPRQSRQ",
    ),
    "quarter": (
        (
            "RSPRQPQRQPQSPRQPQRQPQRSPRQPQRQPQSRSPRQPQRQPQSRSQPQRQPQRPSRSQPQRQPQRPSRPRQPQR"
            "QPQSPRQPQRQPQSPRQPQRQPQSPRQPQRQPQS"
        ),
        (
            "RQPQRQPQRPSQPQRQPQRPSRRSQPQRQPQRPSRSQPQRQPQRPSRSPRQPQRQPQSRSPRQPQRQPQSSQPQRQ"
            "PQRPSQPQRQPQRPSQPQRQPQRPSQPQRQPQRPQPQRQPQRPSRSQPQRQPQRPSRS"
        ),
        "QRQPQRQPQRPSQPQRQPQRPSRQ",
    ),
    "eighth": (
        (
            "SRQPQRSRQPQRRSRQPQRSRQPQRRSRQPQRSRQPQRRSRQPQRSRQPQRRRQPQRSRQPQRSRQPQRSRQPQRS"
            "RRQPQRSRQPQRSRRQPQRSRQPQRSRQPQRSRQPQRSRRQPQRSRQPQRSRSRQPQRSRQPQRSRQPQRSRQPQR"
            "RRQPQRSRQPQRSRSRQPQRSRQPQRSRQPQRSRQPQRRRQPQRSRQPQRSRRSRQPQRSRQPQRSRQPQRSRQPQ"
            "RRSRQPQRSRQPQRRSRQPQRSRQPQRSRQPQRSRQPQRRSRQPQRSRQPQRSRQPQRSRQPQRRRQPQRSRQPQR"
            "SRQPQRSRQPQRSRSRQPQRSRQPQRRRQPQRSRQPQRSRQPQRSRQPQRSRRQPQRSRQPQRSRQPQRSRQPQRS"
            "RSRQPQRSRQPQRRRQPQRSRQPQRSRQPQRSRQPQRSRSRQPQRSRQPQRRRRQPQRSRQPQRSRRQPQRSRQPQ"
            "RSRQPQRSRQPQRS"
        ),
        (
            "RRQPQRSRQPQRSRRQPQRSRQPQRSRSRQPQRSRQPQRRSRQPQRSRQPQRSRQPQRSRQPQRRSRQPQRSRQPQ"
            "RRRQPQRSRQPQRSRQPQRSRQPQRSRQPQRSRQPQRSRRQPQRSRQPQRSRQPQRSRQPQRSRRSRQPQRSRQPQ"
            "RSRQPQRSRQPQRRRQPQRSRQPQRSRRQPQRSRQPQRSRSRQPQRSRQPQRSRQPQRSRQPQR"
        ),
        "QRRQPQRSRQPQRSRQ",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_WITNESSES))
def test_witness_words_of_the_benchmark_word_sets_are_pinned(group2, name):
    sub = certify_translations(build_subgroup(group2, WORDS[name]))
    assert ["".join(w.word) for w in sub.translation_certificate] == list(PINNED_WITNESSES[name])


@pytest.mark.parametrize("modulus", [2, 4, 16])
def test_subgroup_walks_form_no_isometry_product(monkeypatch, modulus):
    def product(*args):
        raise AssertionError("an Isometry product was formed")

    monkeypatch.setattr(Isometry, "__mul__", product)
    group = build_group(modulus)
    for words in SEARCH_WORD_SETS.values():
        assert certify_translations(build_subgroup(group, words)).certified
    with pytest.raises(AssertionError, match="Isometry product"):
        IDENTITY * IDENTITY


def point_group_order(words):
    """|pi(H)|: the linear parts of the word evaluations, closed under
    products of the oracle's plain matrices."""
    seen = {oracle.IDENT[0]}
    frontier = list(seen)
    gens = [oracle.eval_letters(parse_word(w))[0] for w in words]
    while frontier:
        fresh = {oracle.mat_mul(m, g) for m in frontier for g in gens} - seen
        seen |= fresh
        frontier = list(fresh)
    return len(seen)


def assert_order_without_enumeration(words, modulus):
    # |H mod N| = |pi(H)| N^3 / det(Lambda_H + N Z^3): one coset of the
    # lattice mod N per linear part, with no element listed
    n = modulus
    sub = build_subgroup(build_group(n), words)
    basis = quotient._torus_basis(sub.translation_lattice, n)
    det = basis[0][0] * basis[1][1] * basis[2][2]
    order = point_group_order(words) * n**3 // det
    assert order == sub.order == len(code_closure(n, sub.generator_words))


PRESET_WORD_SETS = {
    f"{family}:{name}": tuple(words)
    for family in PRESET_NAMES
    for name, words in load_config(family)["subgroups"].items()
}


@pytest.mark.parametrize("modulus", [2, 4, 8])
@pytest.mark.parametrize("name", sorted({**PRESET_WORD_SETS, **FIXED_WORD_SETS}))
def test_order_from_point_group_and_lattice(modulus, name):
    assert_order_without_enumeration({**PRESET_WORD_SETS, **FIXED_WORD_SETS}[name], modulus)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(alphabet="PQRS", min_size=1, max_size=12), min_size=1, max_size=4),
    st.sampled_from([2, 4, 8]),
)
def test_order_from_point_group_and_lattice_on_random_words(words, modulus):
    assert_order_without_enumeration(words, modulus)


@pytest.mark.parametrize("modulus", [2, 4])
def test_the_space_group_form_answers_as_the_codes_do(modulus):
    # order, includes, within and index read the form (point group, shifts
    # and lattice basis); np.isin on the code arrays is the reference
    groups = form_groups(modulus)
    every = np.arange(48 * modulus**3)
    for name, a in groups.items():
        assert a.order == len(a.codes), name
        assert np.array_equal(a.includes(every), np.isin(every, a.codes)), name
        assert bool(a.includes(int(a.codes[-1]))), name
        for other, b in groups.items():
            held = np.isin(b.codes, a.codes)
            assert np.array_equal(a.includes(b.codes), held), (name, other)
            assert b.within(a) == held.all(), (other, name)
            if held.all():
                assert index(a, b) == len(a.codes) // len(b.codes), (name, other)
            else:
                with pytest.raises(SubgroupError):
                    index(a, b)
                with pytest.raises(SubgroupError, match="J is not contained in H"):
                    left_cosets(a, b)


@pytest.mark.parametrize("name", ["the full group", "eighth", "<P>"])
def test_an_integer_outside_the_codes_is_no_element(name):
    group = form_groups(2)[name]
    outside = np.array([-1, -384, -385, 384, 385, 10**6])
    assert not group.includes(outside).any()
    assert not any(group.includes(int(code)) for code in outside)


def test_groups_of_different_moduli_are_not_within_each_other(group2, group4, subs2):
    assert not subs2["eighth"].within(group4)
    assert not group4.within(group2)
    with pytest.raises(SubgroupError, match="mismatched moduli"):
        left_cosets(group4, subs2["eighth"])
