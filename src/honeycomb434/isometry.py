"""Exact symmetries of the cubic honeycomb as integer affine maps.

The honeycomb's vertices are the integer lattice points of 3-space.  Every
symmetry is an affine map ``w = M v + t`` where ``M`` is one of the 48 signed
permutation matrices and ``t`` is an integer vector.  Four mirror reflections
generate the whole group:

    P: (x, y, z) -> (x, y, 1 - z)    mirror plane z = 1/2
    Q: (x, y, z) -> (z, y, x)        mirror plane z = x
    R: (x, y, z) -> (y, x, z)        mirror plane x = y
    S: (x, y, z) -> (x, -y, z)       mirror plane y = 0

They satisfy the Coxeter relations

    P^2 = Q^2 = R^2 = S^2 = (PQ)^4 = (QR)^3 = (RS)^4
        = (PR)^2 = (PS)^2 = (QS)^2 = 1,

and the four mirror planes bound a fundamental tetrahedron with dihedral
angles pi/4, pi/3, pi/4, pi/2, pi/2, pi/2.

Words over the letters P, Q, R, S follow the function-composition
convention: the rightmost letter acts first, so ``eval_word("PQ")`` applied
to v is P(Q(v)).  Since every letter is an involution, the inverse of a
letter sequence is the reversed sequence.

Elements are stored as ``(perm, signs, trans)``: output coordinate i is
``signs[i] * v[perm[i]] + trans[i]``.  All arithmetic is exact integer
arithmetic; nothing in this module touches floating point.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterable, Mapping, NamedTuple

Vec = tuple[int, int, int]

_AXES = (0, 1, 2)


class Isometry(NamedTuple):
    """A grid symmetry in ``(perm, signs, trans)`` form.

    The triple encodes ``w = M v + t`` where ``M`` is the signed permutation
    matrix with ``M[i][perm[i]] = signs[i]`` and all other entries zero.
    Instances are immutable and hashable; composition uses ``*`` with the
    convention that ``a * b`` acts as "b first, then a".
    """

    perm: Vec
    signs: Vec
    trans: Vec

    def apply(self, v: Iterable[int]) -> Vec:
        """Image of the vertex v under this isometry."""
        u = tuple(v)
        return (
            self.signs[0] * u[self.perm[0]] + self.trans[0],
            self.signs[1] * u[self.perm[1]] + self.trans[1],
            self.signs[2] * u[self.perm[2]] + self.trans[2],
        )

    def __mul__(self, other: "Isometry") -> "Isometry":
        if not isinstance(other, Isometry):
            return NotImplemented
        perm = tuple(other.perm[self.perm[i]] for i in _AXES)
        signs = tuple(self.signs[i] * other.signs[self.perm[i]] for i in _AXES)
        trans = tuple(
            self.signs[i] * other.trans[self.perm[i]] + self.trans[i] for i in _AXES
        )
        return Isometry(perm, signs, trans)

    def inverse(self) -> "Isometry":
        perm = [0, 0, 0]
        signs = [0, 0, 0]
        trans = [0, 0, 0]
        for i in _AXES:
            j = self.perm[i]
            perm[j] = i
            signs[j] = self.signs[i]
            trans[j] = -self.signs[i] * self.trans[i]
        return Isometry(tuple(perm), tuple(signs), tuple(trans))

    @property
    def linear(self) -> tuple[Vec, Vec, Vec]:
        """The linear part as a tuple-of-rows 3x3 integer matrix."""
        rows = []
        for i in _AXES:
            row = [0, 0, 0]
            row[self.perm[i]] = self.signs[i]
            rows.append(tuple(row))
        return tuple(rows)

    @property
    def translation(self) -> Vec:
        return self.trans

    @property
    def is_identity(self) -> bool:
        return self == IDENTITY

    @property
    def is_translation(self) -> bool:
        """True when the linear part is the identity matrix."""
        return self.perm == (0, 1, 2) and self.signs == (1, 1, 1)

    def order(self) -> int | None:
        """Order of the element in the group, or None for infinite order.

        The linear part has order at most 6 among signed permutation
        matrices, so the first power with identity linear part decides the
        question: it is a pure translation, and the element has finite
        order exactly when that translation is zero.
        """
        g = self
        for k in range(1, 49):
            if g.is_translation:
                return k if g.trans == (0, 0, 0) else None
            g = g * self
        raise AssertionError("linear part of order > 48 is impossible")

    @staticmethod
    def from_matrix(linear: Iterable[Iterable[int]], translation: Iterable[int]) -> "Isometry":
        """Build from an explicit signed permutation matrix and translation.

        Raises ValueError unless the matrix has exactly one entry of +-1 in
        every row and every column and zeros elsewhere.
        """
        rows = [tuple(r) for r in linear]
        trans = tuple(translation)
        if len(rows) != 3 or any(len(r) != 3 for r in rows) or len(trans) != 3:
            raise ValueError("expected a 3x3 matrix and a 3-vector")
        perm = []
        signs = []
        for r in rows:
            nonzero = [j for j in _AXES if r[j] != 0]
            if len(nonzero) != 1 or r[nonzero[0]] not in (1, -1):
                raise ValueError(f"row {r} is not a signed unit row")
            perm.append(nonzero[0])
            signs.append(r[nonzero[0]])
        if sorted(perm) != [0, 1, 2]:
            raise ValueError("matrix columns are not a permutation")
        return Isometry(tuple(perm), tuple(signs), trans)


IDENTITY = Isometry((0, 1, 2), (1, 1, 1), (0, 0, 0))


def translation(t: Iterable[int]) -> Isometry:
    """The pure translation by t."""
    return Isometry((0, 1, 2), (1, 1, 1), tuple(t))


# The fixed geometric realization of the four mirrors.
GENERATORS: dict[str, Isometry] = {
    "P": Isometry((0, 1, 2), (1, 1, -1), (0, 0, 1)),  # z -> 1 - z
    "Q": Isometry((2, 1, 0), (1, 1, 1), (0, 0, 0)),   # swap x, z
    "R": Isometry((1, 0, 2), (1, 1, 1), (0, 0, 0)),   # swap x, y
    "S": Isometry((0, 1, 2), (1, -1, 1), (0, 0, 0)),  # y -> -y
}

# Normal vectors of the four mirror planes, for exact angle computations.
MIRROR_NORMALS: dict[str, Vec] = {
    "P": (0, 0, 1),
    "Q": (1, 0, -1),
    "R": (1, -1, 0),
    "S": (0, 1, 0),
}

# Vertex of the fundamental tetrahedron lying on the mirrors of Q and R;
# its stabilizer in the full group has order 48.
BASE_VERTEX: Vec = (1, 1, 1)


def generator(symbol: str) -> Isometry:
    """The reflection for one of the letters P, Q, R, S."""
    try:
        return GENERATORS[symbol]
    except KeyError:
        raise _unknown_letter(symbol) from None


def perturbed_generators() -> dict[str, Isometry]:
    """Deliberately broken generator table for fault-injection checks.

    Q's mirror is replaced by the plane z = -1/2, parallel to P's mirror.
    P and the fake Q then generate a translation instead of a 4-fold
    rotation, so (PQ)^4 evaluates to a nonzero translation and the
    presentation check must report the failure.
    """
    table = dict(GENERATORS)
    table["Q"] = Isometry((0, 1, 2), (1, 1, -1), (0, 0, -1))
    return table


class WordError(ValueError):
    """Malformed generator word."""


# the longest word parse_word flattens; powers are checked before they expand
MAX_WORD_LETTERS = 10_000
# the deepest nesting of "(...)^k" groups parse_word reads; each level is one
# recursion and one copy of the letters inside it
MAX_WORD_DEPTH = 100
# the mirror letters a flattened word may hold
_LETTERS = frozenset(GENERATORS)
# the most characters of a word's text or of one letter an error message
# quotes, and the most letters of a flattened word it spells out
_QUOTED_CHARS = 60
_SPELLED_LETTERS = 40


def _quoted(value) -> str:
    """repr of a word's text or of one letter, cut after _QUOTED_CHARS
    characters with its length noted.  A long text is quoted from its first
    _QUOTED_CHARS characters, never copied whole, and its length is the
    text's own."""
    whole = not isinstance(value, str) or len(value) <= _QUOTED_CHARS
    text = repr(value if whole else value[:_QUOTED_CHARS])
    if whole and len(text) <= _QUOTED_CHARS:
        return text
    length = len(value) if isinstance(value, str) else len(text)
    return f"{text[:_QUOTED_CHARS]}…({length} characters)"


def _spelled(word: tuple[str, ...]) -> str:
    """A flattened word's letters joined by '·', cut after _SPELLED_LETTERS
    letters with its length noted."""
    text = "·".join(word[:_SPELLED_LETTERS])
    return text if len(word) <= _SPELLED_LETTERS else f"{text}…({len(word)} letters)"


def _too_long(shown: str) -> WordError:
    return WordError(f"{shown} flattens to more than {MAX_WORD_LETTERS} letters")


def _unknown_letter(letter) -> WordError:
    return WordError(f"unknown generator {_quoted(letter)}")


def check_letters(word: Iterable[str]) -> tuple[str, ...]:
    """An already flattened word as a letter tuple, held to parse_word's
    rules: each letter one of P, Q, R, S, and at most MAX_WORD_LETTERS
    letters."""
    letters = tuple(word)
    for letter in letters:
        if not isinstance(letter, str) or letter not in _LETTERS:
            raise _unknown_letter(letter)
    if len(letters) > MAX_WORD_LETTERS:
        raise _too_long(_spelled(letters))
    return letters


def parse_word(text: str) -> tuple[str, ...]:
    """Flatten a word over the mirror letters into a plain letter tuple.

    Grammar: ``word := term+ ; term := letter | "(" word ")" "^" integer``.
    Whitespace between terms is ignored; at least one term is required, at
    every nesting level.  Negative exponents are permitted: the generators
    are involutions, so the inverse of a subword is its reversal and every
    power flattens back to plain letters, e.g. ``(SRQPQR)^2`` or
    ``(QPQRQPQS)^-1``.  A word that would flatten to more than
    MAX_WORD_LETTERS letters is rejected before it is expanded: a power
    before it is repeated, plain letters at the first one over the cap.  So
    is a word that nests groups more than MAX_WORD_DEPTH deep.
    """
    pos = 0
    end = len(text)

    def check_length(count: int) -> None:
        if count > MAX_WORD_LETTERS:
            raise _too_long(_quoted(text))

    def sequence(depth: int) -> list[str]:
        nonlocal pos
        letters: list[str] = []
        terms = 0
        while pos < end:
            ch = text[pos]
            if ch.isspace():
                pos += 1
            elif ch in _LETTERS:
                check_length(len(letters) + 1)
                letters.append(ch)
                terms += 1
                pos += 1
            elif ch == "(":
                if depth == MAX_WORD_DEPTH:
                    raise WordError(
                        f"{_quoted(text)} nests groups more than {MAX_WORD_DEPTH} deep"
                    )
                terms += 1
                pos += 1
                inner = sequence(depth + 1)
                # the inner sequence returns only at its closing ')'
                pos += 1
                if pos >= end or text[pos] != "^":
                    raise WordError(f"expected '^' after ')' at position {pos} in {_quoted(text)}")
                pos += 1
                start = pos
                if pos < end and text[pos] in "+-":
                    pos += 1
                while pos < end and text[pos].isdigit():
                    pos += 1
                digits = text[start:pos]
                if not digits.lstrip("+-"):
                    raise WordError(f"missing exponent at position {start} in {_quoted(text)}")
                # int() refuses more than 4300 digits, leading zeros included;
                # a magnitude with more digits than the cap exceeds it anyway
                magnitude = digits.lstrip("+-").lstrip("0")
                too_long = len(magnitude) > len(str(MAX_WORD_LETTERS))
                k = MAX_WORD_LETTERS + 1 if too_long else int(magnitude or "0")
                check_length(len(letters) + len(inner) * k)
                if digits.startswith("-"):
                    inner.reverse()
                letters.extend(inner * k)
            elif ch == ")":
                if depth == 0:
                    raise WordError(f"unbalanced ')' at position {pos} in {_quoted(text)}")
                if terms == 0:
                    raise WordError(f"empty group at position {pos} in {_quoted(text)}")
                return letters
            else:
                raise WordError(f"unexpected character {ch!r} at position {pos} in {_quoted(text)}")
        if depth != 0:
            raise WordError(f"missing ')' in {_quoted(text)}")
        if terms == 0:
            raise WordError(f"empty word {_quoted(text)}")
        return letters

    letters = sequence(0)
    check_length(len(letters))
    return tuple(letters)


# the 48 linear parts as (perm, signs), in canonical (flattened matrix)
# order: the order of element codes in `quotient` and of the step tables
LINEAR_PARTS: tuple[tuple[Vec, Vec], ...] = tuple(
    sorted(
        ((perm, signs) for perm in permutations(_AXES) for signs in product((1, -1), repeat=3)),
        key=lambda part: sum(Isometry(*part, IDENTITY.trans).linear, ()),
    )
)
_LINEAR_INDEX = {part: l for l, part in enumerate(LINEAR_PARTS)}
_IDENTITY_LINEAR = _LINEAR_INDEX[IDENTITY.perm, IDENTITY.signs]


def _step_table(generators: Mapping[str, Isometry]) -> dict[str, tuple[tuple[int, ...], ...]]:
    """For each letter g and each linear part L (by index): the index of
    L g's linear part and the translation L t_g, so that appending g to a
    word with linear part L adds L t_g to its translation (the rule of
    `Isometry.__mul__`)."""
    table = {}
    for letter, (gp, gs, gt) in generators.items():
        steps = []
        for p, s in LINEAR_PARTS:
            perm = (gp[p[0]], gp[p[1]], gp[p[2]])
            signs = (s[0] * gs[p[0]], s[1] * gs[p[1]], s[2] * gs[p[2]])
            trans = (s[0] * gt[p[0]], s[1] * gt[p[1]], s[2] * gt[p[2]])
            steps.append((_LINEAR_INDEX[perm, signs], *trans))
        table[letter] = tuple(steps)
    return table


_STEPS = _step_table(GENERATORS)


def eval_word(word: str | Iterable[str], generators: Mapping[str, Isometry] | None = None) -> Isometry:
    """Evaluate a word to an exact Isometry.

    ``word`` is either a string in the grammar of parse_word or an already
    flattened iterable of letters.  ``generators`` overrides the default
    letter table (used by the perturbation check).  Each letter is one step
    table lookup and three integer additions; the table for GENERATORS is
    built once, that of an override on each call.
    """
    steps = _STEPS if generators is None else _step_table(generators)
    letters = parse_word(word) if isinstance(word, str) else word
    l, x, y, z = _IDENTITY_LINEAR, 0, 0, 0
    for letter in letters:
        try:
            l, dx, dy, dz = steps[letter][l]
        except KeyError:
            raise _unknown_letter(letter) from None
        x += dx
        y += dy
        z += dz
    return Isometry(*LINEAR_PARTS[l], (x, y, z))


# The ten defining relators, as (label, word) pairs.
RELATORS: tuple[tuple[str, str], ...] = (
    ("P^2", "PP"),
    ("Q^2", "QQ"),
    ("R^2", "RR"),
    ("S^2", "SS"),
    ("(PQ)^4", "(PQ)^4"),
    ("(QR)^3", "(QR)^3"),
    ("(RS)^4", "(RS)^4"),
    ("(PR)^2", "(PR)^2"),
    ("(PS)^2", "(PS)^2"),
    ("(QS)^2", "(QS)^2"),
)


class RelatorCheck(NamedTuple):
    relator: str
    ok: bool
    residual: Isometry  # identity when ok; the evaluated element otherwise


def check_presentation(generators: Mapping[str, Isometry] | None = None) -> tuple[RelatorCheck, ...]:
    """Evaluate all ten relators; each must come out as the identity.

    A failing entry signals wrong generator coordinates.  The evaluated
    residual element is included so failures are diagnosable.
    """
    out = []
    for label, word in RELATORS:
        el = eval_word(word, generators)
        out.append(RelatorCheck(label, el.is_identity, el))
    return tuple(out)


def presentation_holds(generators: Mapping[str, Isometry] | None = None) -> bool:
    return all(c.ok for c in check_presentation(generators))


class AngleCheck(NamedTuple):
    pair: tuple[str, str]
    angle: str  # "pi/2", "pi/3" or "pi/4"


EXPECTED_ANGLES: tuple[str, ...] = ("pi/4", "pi/3", "pi/4", "pi/2", "pi/2", "pi/2")


def dihedral_angle(u: Vec, v: Vec) -> str:
    """Exact dihedral angle between mirror planes with integer normals.

    With c = (u.v)^2 / ((u.u)(v.v)) = cos^2(angle), the three angles that
    occur between honeycomb mirrors correspond to c = 0, 1/4, 1/2; the
    comparison is integer-exact.
    """
    dot = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    norm = (u[0] ** 2 + u[1] ** 2 + u[2] ** 2) * (v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    if dot == 0:
        return "pi/2"
    if 4 * dot * dot == norm:
        return "pi/3"
    if 2 * dot * dot == norm:
        return "pi/4"
    raise ValueError(f"normals {u} and {v} do not meet at a honeycomb angle")


def dihedral_angle_check() -> tuple[tuple[AngleCheck, ...], bool]:
    """Angles of all six mirror pairs plus a multiset comparison flag."""
    pairs = (("P", "Q"), ("Q", "R"), ("R", "S"), ("P", "R"), ("P", "S"), ("Q", "S"))
    checks = tuple(
        AngleCheck(pair, dihedral_angle(MIRROR_NORMALS[pair[0]], MIRROR_NORMALS[pair[1]]))
        for pair in pairs
    )
    ok = sorted(c.angle for c in checks) == sorted(EXPECTED_ANGLES)
    return checks, ok
