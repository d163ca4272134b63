import tracemalloc
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from honeycomb434 import isometry
from honeycomb434.isometry import (
    EXPECTED_ANGLES,
    GENERATORS,
    IDENTITY,
    MAX_WORD_DEPTH,
    MAX_WORD_LETTERS,
    MIRROR_NORMALS,
    RELATORS,
    Isometry,
    WordError,
    check_letters,
    check_presentation,
    dihedral_angle,
    dihedral_angle_check,
    eval_word,
    parse_word,
    perturbed_generators,
    translation,
)


def as_oracle(g):
    """An Isometry in the oracle's (matrix rows, translation) form."""
    return (g.linear, g.trans)


def test_generator_actions():
    assert GENERATORS["P"].apply((3, 5, 2)) == (3, 5, -1)
    assert GENERATORS["Q"].apply((3, 5, 2)) == (2, 5, 3)
    assert GENERATORS["R"].apply((3, 5, 2)) == (5, 3, 2)
    assert GENERATORS["S"].apply((3, 5, 2)) == (3, -5, 2)


def test_generators_are_involutions():
    for name, g in GENERATORS.items():
        assert g * g == IDENTITY, name
        assert oracle.order(as_oracle(g)) == 2, name


def test_mirror_fixed_points():
    # each generator fixes a point of its mirror plane (doubled coordinates
    # for the half-integer plane of P)
    assert GENERATORS["Q"].apply((4, 7, 4)) == (4, 7, 4)
    assert GENERATORS["R"].apply((6, 6, 1)) == (6, 6, 1)
    assert GENERATORS["S"].apply((2, 0, 9)) == (2, 0, 9)
    doubled = Isometry(GENERATORS["P"].perm, GENERATORS["P"].signs, (0, 0, 2))
    assert doubled.apply((5, 3, 1)) == (5, 3, 1)


def test_base_vertex_stabilized():
    # the vertex of the fundamental tetrahedron on the mirrors of Q and R
    base = (1, 1, 1)
    assert GENERATORS["Q"].apply(base) == base
    assert GENERATORS["R"].apply(base) == base
    assert eval_word("PQRSRQP").apply(base) == base


def test_all_relators_hold():
    checks = check_presentation()
    assert len(checks) == 10
    assert all(c.ok for c in checks)
    assert all(c.residual == IDENTITY for c in checks)


def test_relator_labels():
    labels = [label for label, _ in RELATORS]
    assert labels == [
        "P^2", "Q^2", "R^2", "S^2",
        "(PQ)^4", "(QR)^3", "(RS)^4", "(PR)^2", "(PS)^2", "(QS)^2",
    ]


def test_dihedral_angles_in_order():
    checks, ok = dihedral_angle_check()
    assert ok
    assert tuple(c.angle for c in checks) == EXPECTED_ANGLES
    assert EXPECTED_ANGLES == ("pi/4", "pi/3", "pi/4", "pi/2", "pi/2", "pi/2")


def test_dihedral_angle_exactness():
    assert dihedral_angle((0, 0, 1), (0, 1, 0)) == "pi/2"
    assert dihedral_angle((1, 0, -1), (1, -1, 0)) == "pi/3"
    assert dihedral_angle((0, 0, 1), (1, 0, -1)) == "pi/4"
    with pytest.raises(ValueError):
        dihedral_angle((0, 0, 1), (0, 0, 1))  # parallel planes


def test_mirror_normals():
    assert MIRROR_NORMALS == {
        "P": (0, 0, 1),
        "Q": (1, 0, -1),
        "R": (1, -1, 0),
        "S": (0, 1, 0),
    }


def test_parse_word_basics():
    assert parse_word("PQP") == ("P", "Q", "P")
    assert parse_word("(SRQPQR)^2") == tuple("SRQPQR") * 2
    assert parse_word(" P (QR)^2 S ") == ("P", "Q", "R", "Q", "R", "S")
    assert parse_word("((PQ)^2)^3") == tuple("PQ") * 6


def test_parse_word_negative_power_reverses():
    # letters are involutions, so the inverse of a word is its reversal
    assert parse_word("(PQRS)^-1") == ("S", "R", "Q", "P")
    assert parse_word("(PQ)^-2") == ("Q", "P", "Q", "P")
    assert parse_word("(PQ)^0") == ()


def test_parse_word_accepts_a_word_at_the_cap():
    assert MAX_WORD_LETTERS == 10_000
    assert parse_word("((P)^100)^100") == ("P",) * MAX_WORD_LETTERS
    assert parse_word("P" * 9_999 + "(Q)^1") == ("P",) * 9_999 + ("Q",)
    # leading zeros do not count toward the exponent's size
    assert parse_word("(P)^" + "0" * 5000 + "1") == ("P",)


def test_parse_word_refuses_a_run_of_letters_at_the_first_over_the_cap():
    # the letter after the cap is refused before the syntax error behind it
    with pytest.raises(WordError, match="flattens to more than 10000 letters"):
        parse_word("P" * (MAX_WORD_LETTERS + 1) + "!")
    text = "P" * 10**6
    tracemalloc.start()
    try:
        with pytest.raises(WordError, match=r"\(1000000 characters\) flattens to more than"):
            parse_word(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # not a list of a million letters (8 MB)
    assert peak < 2 * 2**20


def test_errors_on_a_long_word_quote_it_without_copying_it():
    text = "P" * 10**7
    tracemalloc.start()
    try:
        with pytest.raises(WordError) as info:
            parse_word(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        "'" + "P" * 59 + "…(10000000 characters) flattens to more than 10000 letters"
    )
    # a whole-text repr would take 10 MB
    assert peak < 2**20


@pytest.mark.parametrize(
    "bad",
    [
        "", "X", "P!", "(PQ)", "(PQ)^", "()^2", "PQ)", "(PQ", "(PQ)^x", "P^2",
        # one letter over MAX_WORD_LETTERS, flat, as a power and as a nested power
        "P" * 10_001, "(P)^10001", "(P)^-10001", "((P)^100)^101",
        # an exponent too long for int() is still over the cap
        pytest.param("(P)^" + "1" * 5000, id="(P)^<5000 ones>"),
    ],
)
def test_parse_word_rejects(bad):
    with pytest.raises(WordError):
        parse_word(bad)


def test_parse_word_caps_the_nesting_depth():
    assert MAX_WORD_DEPTH == 100
    assert parse_word("(" * 100 + "P" + ")^1" * 100) == ("P",)
    # a deeper word is a WordError, never a RecursionError
    for bad in ["(" * 101 + "P" + ")^1" * 101, "(" * 50_000]:
        with pytest.raises(WordError, match="nests groups more than 100 deep") as info:
            parse_word(bad)
        assert len(str(info.value)) < 200


# each syntax error on a short word, with its message as it has always read
SHORT_SYNTAX_ERRORS = {
    "": "empty word ''",
    "  ": "empty word '  '",
    "P!": "unexpected character '!' at position 1 in 'P!'",
    "(PQ)": "expected '^' after ')' at position 4 in '(PQ)'",
    "(PQ)^x": "missing exponent at position 5 in '(PQ)^x'",
    "()^2": "empty group at position 1 in '()^2'",
    "PQ)": "unbalanced ')' at position 2 in 'PQ)'",
    "(PQ": "missing ')' in '(PQ'",
}


def test_syntax_errors_quote_long_words_in_part():
    for text, message in SHORT_SYNTAX_ERRORS.items():
        with pytest.raises(WordError) as info:
            parse_word(text)
        assert str(info.value) == message
    # the same errors on a word of as many letters as a word may hold
    # quote the word in part
    body = "P" * MAX_WORD_LETTERS
    for text in [
        " " * 100_000, body + "!", "(" + body + ")", "(" + body + ")^x", "()^2" + body,
        body + ")", "(" + body,
    ]:
        with pytest.raises(WordError) as info:
            parse_word(text)
        assert len(str(info.value)) < 200, str(info.value)[:100]
        assert "characters)" in str(info.value)


def test_eval_word_rightmost_first():
    v = (2, 0, 5)
    pq = eval_word("PQ")
    assert pq.apply(v) == GENERATORS["P"].apply(GENERATORS["Q"].apply(v))
    assert eval_word(()) == IDENTITY
    assert eval_word(("P", "Q")) == pq


def test_eval_word_custom_generators():
    perturbed = perturbed_generators()
    assert eval_word("Q", perturbed) != GENERATORS["Q"]
    assert eval_word("P", perturbed) == GENERATORS["P"]


def test_generator_lookup():
    assert eval_word(("P",)) == GENERATORS["P"] == Isometry((0, 1, 2), (1, 1, -1), (0, 0, 1))
    with pytest.raises(WordError) as info:
        eval_word(("Z",))
    assert str(info.value) == "unknown generator 'Z'"


def test_perturbed_presentation_breaks_exactly_two_relators():
    checks = check_presentation(perturbed_generators())
    broken = {c.relator: c.residual for c in checks if not c.ok}
    assert set(broken) == {"(PQ)^4", "(QR)^3"}
    assert broken["(PQ)^4"] == translation((0, 0, 8))


def test_an_override_table_is_built_once_per_presentation_check(monkeypatch):
    # ten relators, one step table for the override and none for GENERATORS
    built = []
    step_table = isometry._step_table

    def counted(generators):
        built.append(generators)
        return step_table(generators)

    monkeypatch.setattr(isometry, "_step_table", counted)
    perturbed = perturbed_generators()
    assert sum(not c.ok for c in check_presentation(perturbed)) == 2
    assert built == [perturbed]
    assert all(c.ok for c in check_presentation())
    assert built == [perturbed]
    # a single evaluation against an override still builds its own table
    eval_word("PQ", perturbed)
    assert built == [perturbed, perturbed]


def test_translation_and_inverse():
    t = translation((3, -1, 4))
    assert t.is_translation
    assert t.apply((0, 0, 0)) == (3, -1, 4)
    assert oracle.inverse(as_oracle(t)) == as_oracle(translation((-3, 1, -4)))
    assert oracle.order(as_oracle(t)) is None


def test_from_matrix_roundtrip_and_validation():
    g = eval_word("PQRS")
    again = Isometry.from_matrix(g.linear, g.translation)
    assert again == g
    with pytest.raises(ValueError):
        Isometry.from_matrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))
    with pytest.raises(ValueError):
        Isometry.from_matrix(((2, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))
    with pytest.raises(ValueError, match="expected a 3x3 matrix"):
        Isometry.from_matrix(((1, 0), (0, 1)), (0, 0, 0))
    with pytest.raises(ValueError, match="columns are not a permutation"):
        Isometry.from_matrix(((1, 0, 0), (1, 0, 0), (0, 0, 1)), (0, 0, 0))


letters = st.lists(st.sampled_from("PQRS"), max_size=12).map(tuple)
vectors = st.tuples(
    st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)
)


@settings(max_examples=60, deadline=None)
@given(letters, vectors)
def test_word_evaluation_matches_letterwise_application(word, v):
    g = eval_word(word)
    out = v
    for letter in reversed(word):
        out = GENERATORS[letter].apply(out)
    assert g.apply(v) == out


@settings(max_examples=60, deadline=None)
@given(letters)
def test_reversed_word_is_inverse(word):
    g = eval_word(word)
    reversed_word = eval_word(tuple(reversed(word)))
    assert as_oracle(reversed_word) == oracle.inverse(as_oracle(g))
    assert g * reversed_word == IDENTITY


@settings(max_examples=60, deadline=None)
@given(letters, letters, vectors)
def test_composition_is_application_order(w1, w2, v):
    a, b = eval_word(w1), eval_word(w2)
    assert (a * b).apply(v) == a.apply(b.apply(v))


@settings(max_examples=60, deadline=None)
@given(letters)
def test_linear_part_is_signed_permutation(word):
    g = eval_word(word)
    rows = g.linear
    for row in rows:
        assert sorted(abs(x) for x in row) == [0, 0, 1]
    cols = list(zip(*rows))
    for col in cols:
        assert sorted(abs(x) for x in col) == [0, 0, 1]


long_letters = st.lists(st.sampled_from("PQRS"), max_size=300).map(tuple)


@settings(max_examples=60, deadline=None)
@given(long_letters)
def test_step_table_matches_a_fold_of_generator_products(word):
    # the step table agrees with Isometry.__mul__, letter by letter, for
    # the real mirrors and for the perturbed ones
    for table in (GENERATORS, perturbed_generators()):
        expected = reduce(mul, (table[letter] for letter in word), IDENTITY)
        assert eval_word(word, table) == expected
        assert eval_word("".join(word) or "(P)^0", table) == expected
    assert eval_word(word) == reduce(mul, (GENERATORS[c] for c in word), IDENTITY)


def test_unknown_letters_keep_their_message():
    with pytest.raises(WordError) as info:
        eval_word(("P", "X"))
    assert str(info.value) == "unknown generator 'X'"


def test_check_letters_holds_tuple_words_to_the_word_rules():
    assert check_letters(("P", "Q")) == ("P", "Q")
    assert check_letters(iter("PQRS")) == ("P", "Q", "R", "S")
    assert check_letters(()) == ()
    assert check_letters(("P",) * MAX_WORD_LETTERS) == ("P",) * MAX_WORD_LETTERS
    with pytest.raises(WordError, match="flattens to more than 10000 letters") as info:
        check_letters(("P",) * (MAX_WORD_LETTERS + 1))
    assert len(str(info.value)) < 200
    # an over-cap word is spelled in part, with its letter count
    with pytest.raises(WordError) as info:
        check_letters(("P",) * 20_001)
    assert str(info.value) == (
        "·".join("P" * 40) + "…(20001 letters) flattens to more than 10000 letters"
    )
    with pytest.raises(WordError, match="unknown generator 'X'"):
        check_letters(("P", "X"))
    for bad in ("PQ", "p", "", 1, None):
        with pytest.raises(WordError, match="unknown generator"):
            check_letters(("P", bad))
    # a long bogus letter is quoted in part, with its length
    with pytest.raises(WordError) as info:
        check_letters(("P" * 20_000,))
    assert str(info.value).startswith("unknown generator 'PPPP")
    assert str(info.value).endswith("(20000 characters)")
    assert len(str(info.value)) < 200
