"""Finite quotients of the honeycomb symmetry group on the N-periodic torus.

Reducing translations modulo an even N >= 2 turns the infinite symmetry
group into a finite group of order 48 N^3 acting on the N^3 torus vertices.
Index, coset and orbit computations in the quotient are exact for the
original infinite subgroup whenever the subgroup provably contains the
translations by (N,0,0), (0,N,0) and (0,0,N).  `build_subgroup` keeps the
subgroup's exact translation lattice, so `certify_translations` decides
that containment exactly, and on success spells the proof out as explicit
witness words, checked in the exact (unreduced) group.

One class, `TorusGroup`, holds the full group and each of its subgroups;
a subgroup's `parent` is the full group, which is its own parent.

Inside a group, an element (L, t) with t in [0, N)^3 is the integer code
``l * N^3 + (x * N + y) * N + z``, where l indexes the 48 signed
permutation matrices ordered by flattened matrix.  Every group is a space
group, held as that form by one constructor (`_space_group`): its linear
parts, one shift t_L per part, and the triangular basis of its translation
lattice mod N.  Order, membership, containment, index, cosets and orbits
are read off the form, by array passes with Python loops over at most the
48 linear parts, so no group is closed.  Code order is the canonical
element order used for deterministic coset ids: lexicographic on
(flattened linear matrix, translation), the linear parts taken in the
order of `isometry.LINEAR_PARTS`.  `TorusGroup.codes`, the sorted,
read-only int64 array of a group's codes (for the full group, every code
from 0 to 48 N^3 - 1), is enumerated from the form on first use: only the
passes that walk a group (vertex images, coset labels) read it.
`elements` decodes it to a frozenset of `Isometry` on first use, and two
groups compare by identity, not by element set.  The walks in the
infinite group step integer states (linear index, x, y, z) through step
rows (`isometry._step_rows`), with no `Isometry` product: a letter's rows
are `isometry._STEPS`, built at import, and a longer word's are built once
per `build_subgroup` and kept on the subgroup's `_memo` for
`certify_translations`.  Lattice bases are reduced without coefficients
(`_reduce`, `_holds`); only the witness search keeps them, in an
`IntegerLattice`.  Words, witnesses and reports keep `Isometry` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from .isometry import (
    LINEAR_PARTS,
    _IDENTITY_LINEAR,
    _LINEAR_INDEX,
    _STEPS,
    Isometry,
    _spelled,
    _step_rows,
    check_letters,
    eval_word,
    parse_word,
    translation,
)

Vec = tuple[int, int, int]

# the largest modulus accepted; the full group has 48 N^3 elements.  At
# N = 16 each bundled config builds, colors and writes its exports in
# 0.06-0.12 s, and the CLI's color and export commands, which also check
# the theorem and the color group, take 0.11-0.22 s together (2-vCPU Xeon,
# Python 3.11, package already imported, three runs per config, each in a
# fresh interpreter)
MAX_MODULUS = 16


class SubgroupError(ValueError):
    """Containment or construction constraint violated."""


class CertificationError(Exception):
    """No translation certificate: the subgroup does not contain the
    translations by the modulus, or the witness search missed them."""


class Witness(NamedTuple):
    """A generator word proving one scaled basis translation is reachable."""

    target: Vec
    word: tuple[str, ...]
    element: Isometry


def check_modulus(modulus: int) -> None:
    """Reject a modulus that is not an integer (numpy integers pass, bools
    do not), or that is odd, below 2 or above MAX_MODULUS."""
    if isinstance(modulus, bool) or not isinstance(modulus, (int, np.integer)):
        raise ValueError(f"modulus must be an integer, got {modulus!r}")
    if modulus < 2 or modulus % 2 != 0:
        raise ValueError(f"modulus must be an even integer >= 2, got {modulus}")
    if modulus > MAX_MODULUS:
        raise ValueError(f"modulus {modulus} is above the limit {MAX_MODULUS}")


def check_vertex(v, n: int) -> Vec:
    """A vertex given as three integers (numpy integers pass, bools do
    not), reduced mod n; anything else raises ValueError."""
    try:
        x, y, z = v
    except (TypeError, ValueError):
        raise ValueError(f"a vertex is three integers, got {v!r}") from None
    if any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) for c in (x, y, z)):
        raise ValueError(f"a vertex is three integers, got {v!r}")
    return int(x) % n, int(y) % n, int(z) % n


# -- the code layer ----------------------------------------------------------

_PERM = np.array([perm for perm, _ in LINEAR_PARTS], dtype=np.int64)
_SIGN = np.array([signs for _, signs in LINEAR_PARTS], dtype=np.int64)


def flat(xyz: np.ndarray, n: int) -> np.ndarray:
    """Vertex (or translation) coordinates in [0, n), shape (..., 3), to
    indices (x * n + y) * n + z, the C order of an (n, n, n) array."""
    return (xyz[..., 0] * n + xyz[..., 1]) * n + xyz[..., 2]


def coords(index, n: int) -> np.ndarray:
    """Inverse of `flat`: shape (..., 3)."""
    index = np.asarray(index)
    return np.stack((index // (n * n), index // n % n, index % n), axis=-1)


def split(codes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(linear indices, translation coordinates) of element codes."""
    linear, t = np.divmod(np.asarray(codes, dtype=np.int64), n**3)
    return linear, coords(t, n)


def join(linear, xyz: np.ndarray, n: int) -> np.ndarray:
    """Element codes of linear indices and translation coordinates."""
    return linear * n**3 + flat(xyz, n)


def apply_linear(linear, xyz, n: int) -> np.ndarray:
    """L v mod n for every pair of linear indices (any shape) and vertex
    coordinates (shape (..., 3)): the outer product, of shape
    xyz.shape[:-1] + linear.shape + (3,).  One vertex's 48 images are
    computed once and gathered.  The package's one rule for how a linear
    part acts: coordinate i of L v is signs[i] * v[perm[i]]."""
    xyz = np.asarray(xyz)
    if xyz.ndim == 1:
        return (_SIGN * xyz[_PERM] % n)[linear]
    return _SIGN[linear] * xyz[..., _PERM[linear]] % n


def _composition_table() -> np.ndarray:
    """table[a, b] is the linear index of L_a L_b: the part that sends a
    probe vector, on which the 48 parts differ, where L_a sends L_b's image
    of it."""
    n, probe = 8, (1, 2, 3)
    lookup = np.full(n**3, -1, dtype=np.int64)
    moved = apply_linear(np.arange(48), probe, n)
    lookup[flat(moved, n)] = np.arange(48)
    return np.stack([lookup[flat(apply_linear(a, moved, n), n)] for a in range(48)])


_MUL = _composition_table()


def multiply(a, b, n: int) -> np.ndarray:
    """Codes of the products a * b ("b first, then a"); one of a and b is a
    single code, the other any array of codes; two arrays raise ValueError."""
    if np.ndim(a) and np.ndim(b):
        raise ValueError("multiply takes a single code on one side")
    la, ta = split(a, n)
    lb, tb = split(b, n)
    return join(_MUL[la, lb], (apply_linear(la, tb, n) + ta) % n, n)


def images(codes, v, n: int) -> np.ndarray:
    """Vertex indices (see `flat`) of the images of vertices given as
    coordinates of shape (..., 3) under coded elements: every vertex under
    every code, of shape v.shape[:-1] + codes.shape."""
    linear, t = split(codes, n)
    return flat((apply_linear(linear, v, n) + t) % n, n)


def encode(g: Isometry, n: int) -> int:
    """Code of an isometry, its translation reduced mod n."""
    x, y, z = (c % n for c in g.trans)
    return _LINEAR_INDEX[(g.perm, g.signs)] * n**3 + (x * n + y) * n + z


def decode(codes, n: int) -> list[Isometry]:
    """The isometries of the given codes, in the given order."""
    linear, xyz = split(codes, n)
    return [
        Isometry(*LINEAR_PARTS[l], tuple(t))
        for l, t in zip(np.atleast_1d(linear).tolist(), xyz.reshape(-1, 3).tolist())
    ]


def identity_code(n: int) -> int:
    return _IDENTITY_LINEAR * n**3


@dataclass(frozen=True, eq=False)
class TorusGroup:
    """A group of torus symmetries: the full group with translations reduced
    modulo N, or a subgroup of it generated by words in P, Q, R, S.

    Every such group is a space group, and keeps that form: its point group
    `linear` (sorted linear indices), one shift t_L per linear part
    (`shifts`, aligned with `linear`, in [0, N)^3), and `torus_lattice`,
    the triangular basis of its translations mod N (the lattice they span
    with N Z^3, in Hermite normal form; three rows, each diagonal entry
    dividing N).  The group is every (L, t_L + lambda), so `order`,
    `includes`, `within` and `index` are computed from the form with no
    pass over the codes, and `left_cosets` with no walk.
    `codes`, the sorted, read-only int64 array of the element codes, is
    enumerated from the form on first use, and `elements` decodes it to a
    frozenset of `Isometry` on first use.
    Groups compare by identity; `within` compares element sets.
    `parent` is the full group; the full group is its own parent.
    `translation_lattice` is the triangular basis (at most three rows) of
    the translations the underlying infinite group contains; a group built
    without words, such as a color group, has none.
    `translation_certificate` is None until `certify_translations` has
    proven that the underlying infinite subgroup contains all translations
    by the modulus along each axis; with the certificate present, indices,
    cosets, orbits and stabilizers computed in the quotient are exact for
    the infinite subgroup as well.  The full group needs no certificate.
    `_cells` is the lattice coset of each translation, by flat index (see
    `_vertex_cells`), which membership and orbits look up.
    `_memo` keeps results derived from this group object, such as its orbit
    decomposition; a `dataclasses.replace` copy starts it, and `codes`, anew.
    """

    modulus: int
    generator_words: tuple[tuple[str, ...], ...]
    linear: np.ndarray = field(repr=False)
    shifts: np.ndarray = field(repr=False)
    torus_lattice: tuple[Vec, Vec, Vec] = field(repr=False)
    _cells: np.ndarray = field(repr=False)
    translation_certificate: tuple[Witness, Witness, Witness] | None = None
    translation_lattice: tuple[Vec, ...] = field(default=(), repr=False)
    _parent: TorusGroup | None = field(default=None, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def parent(self) -> TorusGroup:
        return self if self._parent is None else self._parent

    @property
    def certified(self) -> bool:
        return self._parent is None or self.translation_certificate is not None

    @cached_property
    def elements(self) -> frozenset[Isometry]:
        return frozenset(decode(self.codes, self.modulus))

    @cached_property
    def codes(self) -> np.ndarray:
        """Part L's translations are the lattice coset of t_L, whose
        members, grouped by one stable sort of the cells, are in flat
        order; the parts ascend, so each fills a range of its own."""
        n = self.modulus
        members = np.argsort(self._cells, kind="stable").reshape(-1, self.order // len(self.linear))
        codes = (self.linear[:, None] * n**3 + members[self._cells[flat(self.shifts, n)]]).reshape(-1)
        codes.setflags(write=False)
        return codes

    @property
    def order(self) -> int:
        """|point group| times the lattice's points: N^3 over the product
        of the basis diagonal."""
        (a, _, _), (_, b, _), (_, _, c) = self.torus_lattice
        return len(self.linear) * self.modulus**3 // (a * b * c)

    @cached_property
    def _part_cells(self) -> np.ndarray:
        """For each of the 48 linear indices L, the lattice coset of t_L,
        or -1 for the parts this group lacks: (L, t) is an element exactly
        when t lies in that coset."""
        part_cells = np.full(48, -1, dtype=np.int64)
        part_cells[self.linear] = self._cells[flat(self.shifts, self.modulus)]
        return part_cells

    @cached_property
    def _form_codes(self) -> np.ndarray:
        """The codes of each (L, t_L) and of each basis row's translation,
        which generate the group."""
        n = self.modulus
        rows = np.array(self.torus_lattice) % n
        return np.concatenate((join(self.linear, self.shifts, n), identity_code(n) + flat(rows, n)))

    def includes(self, codes) -> np.ndarray:
        """Which of the given integers are codes of elements of this group:
        (L, t) is one iff L is one of its linear parts and t - t_L lies in
        its lattice, that is t lies in the coset of t_L.  An integer outside
        0 .. 48 N^3 - 1 codes no element."""
        n3 = self.modulus**3
        codes = np.asarray(codes)
        linear = codes // n3
        coded = (linear >= 0) & (linear < 48)
        return coded & (self._part_cells[linear * coded] == self._cells[codes % n3])

    def within(self, other: TorusGroup) -> bool:
        """Is every element of this group an element of `other`?  Exactly
        when other includes each (L, t_L) of this group and the translation
        by each row of its lattice basis: at most 51 lookups, and none when
        other is the full group, the one group of order 48 N^3."""
        if self.modulus != other.modulus:
            return False
        return other.order == 48 * other.modulus**3 or bool(other.includes(self._form_codes).all())


def _vertex_cells(basis: tuple[Vec, Vec, Vec], n: int) -> np.ndarray:
    """The coset of the lattice with the given triangular basis (one that
    holds N Z^3) that each vertex, or translation, lies in, by flat index:
    the position of the coset's smallest member in the box [0, b_11) x
    [0, b_22) x [0, b_33), in C order, so 0 exactly on the lattice.
    Subtracting multiples of b_1, then b_2, then b_3 brings x, then y, then
    z to its least value mod N, and the cells are in the order of their
    smallest members."""
    (a, b, c), (_, d, e), (_, _, f) = basis
    t = np.arange(n**3)
    x, y, z = t // (n * n), t // n % n, t % n
    i = x // a
    y = (y - i * b) % n
    j = y // d
    z = (z - i * c - j * e) % n % f
    return (x % a * d + y % d) * f + z


def _cell_minima(basis: tuple[Vec, Vec, Vec]) -> np.ndarray:
    """The smallest member of each cell of `_vertex_cells`, in cell order:
    the box [0, b_11) x [0, b_22) x [0, b_33) in C order, shape (cells, 3)."""
    return np.indices([row[i] for i, row in enumerate(basis)]).reshape(3, -1).T


def _normalize_words(gens: Iterable) -> tuple[tuple[str, ...], ...]:
    return tuple(parse_word(g) if isinstance(g, str) else check_letters(g) for g in gens)


def _eliminate(pivot: Vec, v: Vec, col: int) -> tuple[int, int, int, int]:
    """The gcd step that merges v into the pivot row of column col:
    (x, y, qb, qv) with g = x pivot[col] + y v[col] their positive gcd, and
    qb, qv the two entries divided by g.  The new pivot is x pivot + y v,
    and qv pivot - qb v, zero in column col, goes on to the next column."""
    old_r, r = pivot[col], v[col]
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_s, old_t, pivot[col] // old_r, v[col] // old_r


def _reduce(rows: Iterable[Vec]) -> tuple[Vec, ...]:
    """The triangular basis of the lattice the rows span, with no
    coefficients: the same eliminations, in the same order, as
    `IntegerLattice.add`, so the same basis as `IntegerLattice.basis()`."""
    pivots: dict[int, Vec] = {}
    for v in rows:
        for col in range(3):
            if v[col] == 0:
                continue
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = tuple(v) if v[col] > 0 else (-v[0], -v[1], -v[2])
                break
            x, y, qb, qv = _eliminate(pivot, v, col)
            pivots[col] = (x * pivot[0] + y * v[0], x * pivot[1] + y * v[1], x * pivot[2] + y * v[2])
            v = (qv * pivot[0] - qb * v[0], qv * pivot[1] - qb * v[1], qv * pivot[2] - qb * v[2])
    return tuple(pivots[col] for col in sorted(pivots))


def _holds(basis: tuple[Vec, ...], target: Vec) -> bool:
    """Does the lattice with this triangular basis hold the target?  Each
    row, in turn, takes as many of itself off the target as its pivot entry
    fits, which leaves the remainder mod that entry in the pivot column.
    Rows are zero left of their pivots, so later rows keep every column
    already handled, and the target is held iff nothing is left."""
    x, y, z = target
    for a, b, c in basis:
        q = x // a if a else y // b if b else z // c
        x, y, z = x - q * a, y - q * b, z - q * c
    return not (x or y or z)


def _word_steps(word: tuple[str, ...], memo: dict) -> tuple[tuple[int, int, int, int], ...]:
    """The step rows of a word's evaluation: a letter's from
    `isometry._STEPS`, a longer word's built on first use and kept in memo."""
    if len(word) == 1:
        return _STEPS[word[0]]
    rows = memo.get(word)
    if rows is None:
        rows = memo[word] = _step_rows(eval_word(word))
    return rows


def _enumerate(
    words: Iterable[tuple[str, ...]], memo: dict
) -> tuple[np.ndarray, np.ndarray, tuple[Vec, ...]]:
    """The space-group form of the subgroup H the words generate: its
    linear parts (as linear indices), one shift t_L per linear part, and
    the triangular basis of H's translation lattice Lambda_H.

    A breadth-first walk over linear parts, right-multiplying by the word
    evaluations, picks one element u_L of H per linear part L, kept as its
    shift t_L.  Each step x = u g (one lookup in g's step rows, see
    `_word_steps`, and three integer additions) that lands on a linear
    part already picked gives the Schreier generator x u_L^-1, the pure
    translation t_x - t_L; these span Lambda_H exactly (Schreier's lemma),
    kept unreduced.  H mod N is every (L, t_L + lambda) with lambda in
    Lambda_H + N Z^3 (see `_space_group`).  Exact for any words: reduction
    mod N only sees Lambda_H + N Z^3, whatever the rank of Lambda_H.
    """
    steps = [_word_steps(w, memo) for w in words]
    schreier: dict[Vec, None] = {}  # the distinct Schreier generators, in walk order
    picked = {_IDENTITY_LINEAR: (0, 0, 0)}  # linear index -> the shift of u_L
    walk = [_IDENTITY_LINEAR]
    for l in walk:
        x, y, z = picked[l]
        for step in steps:
            m, dx, dy, dz = step[l]
            shift = picked.get(m)
            if shift is None:
                picked[m] = (x + dx, y + dy, z + dz)
                walk.append(m)
            else:
                schreier[x + dx - shift[0], y + dy - shift[1], z + dz - shift[2]] = None
    linear = np.array(walk, dtype=np.int64)
    shifts = np.array(list(picked.values()), dtype=np.int64)
    return linear, shifts, _reduce(schreier)


def _torus_basis(rows: Iterable[Vec], n: int) -> tuple[Vec, Vec, Vec]:
    """The triangular basis b_1, b_2, b_3 of the lattice the rows span with
    N e_1, N e_2 and N e_3, each entry right of the diagonal reduced modulo
    the diagonal entry of its column (the Hermite normal form), so equal
    lattices have equal bases.  The diagonal entries divide N, so the
    lattice has N^3 / (b_11 b_22 b_33) points mod N."""
    (a, b, c), (_, d, e), (_, _, f) = _reduce((*rows, (n, 0, 0), (0, n, 0), (0, 0, n)))
    q, e = b // d, e % f
    return (a, b - q * d, (c - q * e) % f), (0, d, e), (0, 0, f)


def _space_group(
    modulus: int, words: tuple[tuple[str, ...], ...], linear, shifts, rows: Iterable[Vec], **fields
) -> TorusGroup:
    """The group of every (L, t_L + lambda): one shift t_L per linear index
    L, and every lambda in the lattice the rows span with N Z^3.  The one
    constructor of `TorusGroup`: it sorts the parts, reduces the shifts mod
    N, takes the lattice's Hermite normal form and the cell of every
    translation, and enumerates nothing."""
    n = modulus
    basis = _torus_basis(rows, n)
    order = np.argsort(linear)
    linear, shifts = np.asarray(linear)[order], np.asarray(shifts)[order] % n
    cells = _vertex_cells(basis, n)
    for array in (linear, shifts, cells):
        array.setflags(write=False)
    return TorusGroup(n, words, linear, shifts, basis, cells, **fields)


def build_group(modulus: int) -> TorusGroup:
    """The full torus group for an even modulus from 2 to MAX_MODULUS.

    Odd moduli are rejected: the colorings this engine exists for have
    period 2, and an odd quotient would fold distinct color classes onto
    each other.
    """
    check_modulus(modulus)
    # P, Q, R and S generate every (L, t) mod N, and the infinite group
    # holds every integer translation
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    words = (("P",), ("Q",), ("R",), ("S",))
    shifts = np.zeros((48, 3), dtype=np.int64)
    return _space_group(modulus, words, np.arange(48), shifts, units, translation_lattice=units)


def build_subgroup(group: TorusGroup, gens: Iterable) -> TorusGroup:
    """Subgroup of `group` generated by the given words (strings or letter
    tuples), with the full group as its parent and its exact translation
    lattice.  The result carries no translation certificate yet; its
    `_memo` keeps the step rows of its longer words for the witness search.
    A word whose element `group` lacks raises SubgroupError."""
    words = _normalize_words(gens)
    memo: dict = {}
    linear, shifts, basis = _enumerate(words, memo)
    n = group.modulus
    sub = _space_group(n, words, linear, shifts, basis, translation_lattice=basis, _parent=group.parent)
    if not sub.within(group):
        word = next(w for w in words if not group.includes(encode(eval_word(w), n)))
        raise SubgroupError(f"word {_spelled(word)} leaves the group")
    sub._memo["step rows"] = memo
    return sub


class IntegerLattice:
    """Integer span of a growing list of 3-vectors, with membership
    certificates expressed over the originally added rows.

    Maintains a triangular basis by gcd elimination; `solve` returns
    integer coefficients c with sum(c[i] * row[i]) == target, or None when
    the target is outside the lattice.  Exact and deterministic.
    """

    def __init__(self):
        self._pivots: dict[int, tuple[tuple[int, int, int], dict[int, int]]] = {}
        self._count = 0

    @staticmethod
    def _combine(x: int, a: dict[int, int], y: int, b: dict[int, int]) -> dict[int, int]:
        out = {}
        for k, v in a.items():
            out[k] = x * v
        for k, v in b.items():
            out[k] = out.get(k, 0) + y * v
        return {k: v for k, v in out.items() if v}

    def add(self, vec: Vec) -> int:
        """Insert a vector; returns its row index for certificates."""
        index = self._count
        self._count += 1
        v = list(vec)
        co = {index: 1}
        for col in range(3):
            if v[col] == 0:
                continue
            if col not in self._pivots:
                if v[col] < 0:
                    v = [-x for x in v]
                    co = {k: -c for k, c in co.items()}
                self._pivots[col] = (tuple(v), co)
                return index
            bvec, bco = self._pivots[col]
            x, y, qb, qv = _eliminate(bvec, v, col)
            new_pivot = tuple(x * bvec[k] + y * v[k] for k in range(3))
            new_pco = self._combine(x, bco, y, co)
            v = [qv * bvec[k] - qb * v[k] for k in range(3)]
            co = self._combine(qv, bco, -qb, co)
            self._pivots[col] = (new_pivot, new_pco)
        return index

    def basis(self) -> tuple[Vec, ...]:
        """The triangular basis, one row per pivot column in column order:
        each row is zero left of its pivot column and positive there."""
        return tuple(self._pivots[col][0] for col in sorted(self._pivots))

    def solve(self, target: Vec) -> dict[int, int] | None:
        t = list(target)
        acc: dict[int, int] = {}
        for col in range(3):
            if t[col] == 0:
                continue
            if col not in self._pivots:
                return None
            bvec, bco = self._pivots[col]
            if t[col] % bvec[col]:
                return None
            q = t[col] // bvec[col]
            for k in range(3):
                t[k] -= q * bvec[k]
            for idx, c in bco.items():
                acc[idx] = acc.get(idx, 0) + q * c
        if any(t):
            return None
        return {k: v for k, v in acc.items() if v}


# the most generator factors the witness search multiplies; it runs only
# once the lattice holds the targets, and stops at the first depth whose
# translations span them, so the bound never changes a witness
_SEARCH_DEPTH = 24
# the most letters a witness word may spell; lattice coefficients can ask
# for astronomically many, and the bundled subgroups need a few thousand
_WITNESS_LETTERS = 10**6


def _certificate_search(
    words: tuple[tuple[str, ...], ...], targets: tuple[Vec, ...], memo: dict | None = None
):
    """Breadth-first search over products of the generator evaluations
    (and their inverses) in the exact infinite group, collecting pure
    translations until they span every target.  The depth counts factors,
    i.e. length as a word in the subgroup's own generators.  A product is
    the state (linear index, x, y, z), and a factor one lookup in its step
    rows, which come from memo (see `_word_steps`) or are built into it.

    Returns (found, lattice, row_word): the lattice holds the pure
    translations (rows) in discovery order, and row_word(i) spells out the
    word that reached row i.  Each product keeps only a back-pointer (its
    parent product and last generator), so words are built only for the
    rows asked for.  `found` is True when the targets became solvable
    within _SEARCH_DEPTH factors.
    """
    memo = {} if memo is None else memo
    gens: list[Isometry] = []
    gen_words: list[tuple[str, ...]] = []
    for w in words:
        for ww in (w, w[::-1]):
            el = eval_word(ww)
            if el.is_identity or el in gens:
                continue
            gens.append(el)
            gen_words.append(ww)

    steps = [_word_steps(w, memo) for w in gen_words]
    lattice = IntegerLattice()
    # product 0 is the identity; product i > 0 is product parents[i] times
    # generator factors[i]
    parents, factors = [-1], [-1]
    row_products: list[int] = []

    def row_word(row: int) -> tuple[str, ...]:
        last, i = [], row_products[row]
        while i:
            last.append(factors[i])
            i = parents[i]
        return tuple(chain.from_iterable(gen_words[g] for g in reversed(last)))

    def spanned() -> bool:
        return all(lattice.solve(t) is not None for t in targets)

    identity = (_IDENTITY_LINEAR, 0, 0, 0)
    seen = {identity}
    frontier = [(identity, 0)]
    for _ in range(_SEARCH_DEPTH):
        next_frontier = []
        fresh = False
        for (l, x, y, z), i in frontier:
            for g, step in enumerate(steps):
                m, dx, dy, dz = step[l]
                state = (m, x + dx, y + dy, z + dz)
                if state in seen:
                    continue
                seen.add(state)
                next_frontier.append((state, len(parents)))
                # the identity is seen, so this translation is not zero
                if m == _IDENTITY_LINEAR:
                    row_products.append(len(parents))
                    lattice.add(state[1:])
                    fresh = True
                parents.append(i)
                factors.append(g)
        if fresh and spanned():
            return True, lattice, row_word
        frontier = next_frontier
    return False, lattice, row_word


def certify_translations(sub: TorusGroup) -> TorusGroup:
    """Prove the subgroup contains the three axis translations by N.

    The decision is exact: the subgroup contains (N,0,0), (0,N,0) and
    (0,0,N) iff they lie in its translation lattice, which `build_subgroup`
    keeps.  Only then does a breadth-first search over products of the
    generator evaluations collect pure translations until they span the
    three; their combinations are the witness words, re-evaluated exactly
    and stored on the returned subgroup.  The search reuses the step rows
    `build_subgroup` kept on the subgroup's `_memo`.

    Raises CertificationError when the translations lie outside the
    lattice (no certificate exists), when the search finds no witness
    within _SEARCH_DEPTH generator factors, or when a witness would spell
    more than _WITNESS_LETTERS letters.
    """
    n = sub.modulus
    targets = ((n, 0, 0), (0, n, 0), (0, 0, n))
    words = [_spelled(w) for w in sub.generator_words]
    missing = [t for t in targets if not _holds(sub.translation_lattice, t)]
    if missing:
        raise CertificationError(
            f"translations {missing[0]} not reachable from {words} (no certificate exists)"
        )
    memo = sub._memo.setdefault("step rows", {})
    found, lattice, row_word = _certificate_search(sub.generator_words, targets, memo)
    if not found:
        missing = [t for t in targets if lattice.solve(t) is None]
        raise CertificationError(
            f"translations {missing[0]} lie in the lattice of {words}, but no witness "
            f"was found within {_SEARCH_DEPTH} generator factors"
        )
    # each witness is counted before any is built
    terms = {t: [(row_word(i), c) for i, c in sorted(lattice.solve(t).items())] for t in targets}
    for target, row_terms in terms.items():
        letters = sum(len(w) * abs(c) for w, c in row_terms)
        if letters > _WITNESS_LETTERS:
            raise CertificationError(
                f"the witness for {target} would spell {letters} letters, above the limit "
                f"{_WITNESS_LETTERS}"
            )
    witnesses = []
    for target, row_terms in terms.items():
        word = tuple(chain.from_iterable(w * c if c > 0 else w[::-1] * -c for w, c in row_terms))
        el = eval_word(word)
        if el != translation(target):
            raise AssertionError(f"unsound witness for {target}: {word} -> {el}")
        witnesses.append(Witness(target, word, el))
    return replace(sub, translation_certificate=tuple(witnesses))


def index(ambient: TorusGroup, sub: TorusGroup) -> int:
    """[ambient : sub] by Lagrange on the torus; exact in the infinite
    group for certified subgroups."""
    if not sub.within(ambient):
        raise SubgroupError("subgroup is not contained in the ambient group")
    return ambient.order // sub.order


@dataclass(frozen=True, eq=False)
class CosetTable:
    """Left cosets gJ of J in H.

    `coset_ids[i]` is the coset id of H's i-th element code and
    `representative_codes[c]` the code of coset c's smallest element.
    `left_cosets` numbers cosets by the canonical order of their smallest
    element, so ids are stable across runs.  `decode` turns the
    representatives into `Isometry` values, and `np.bincount(coset_ids)`
    gives the coset sizes.
    """

    group: TorusGroup
    coset_ids: np.ndarray
    representative_codes: np.ndarray


def _coset_keys(j: TorusGroup, linear, t) -> np.ndarray:
    """The key of each coset g J, for g = (B, b) given as linear indices B
    and translation coordinates b (shape (..., 3)), broadcast together.

    The coset g J has the linear parts B pi(J); let B0 be the smallest of
    them, and M0 = B^-1 B0, a part of J with shift s_M0.  Then g J holds
    (B0, b + B s_M0 + B0 Lambda_J), and B0 Lambda_J = B Lambda_J because
    pi(J) keeps Lambda_J.  So the key of g J is B0 N^3 plus the cell of
    b + B s_M0 modulo B0 Lambda_J (see `_vertex_cells`).  Keys in order are
    the cosets in the canonical order of their smallest elements.  B0 and
    B s_M0 of each of the 48 parts B, and one cell map per distinct basis
    of B0 Lambda_J, J's own reused, are built once and kept on J's `_memo`.
    """
    n, memo = j.modulus, j._memo
    if "coset keys" not in memo:
        every = np.arange(48)
        parts = _MUL[:, j.linear]  # B pi(J), one row per linear part B
        pick = parts.argmin(axis=1)
        smallest = parts[every, pick]  # B0 of each part B
        offsets = apply_linear(every, j.shifts, n)[pick, every]  # B s_M0 of each part B
        bases = {j.torus_lattice: 0}
        lattice_of = np.zeros(48, dtype=np.int64)
        for part in set(smallest.tolist()):
            basis = _torus_basis(apply_linear(part, np.array(j.torus_lattice), n).tolist(), n)
            lattice_of[part] = bases.setdefault(basis, len(bases))
        cell_maps = np.array([j._cells] + [_vertex_cells(basis, n) for basis in list(bases)[1:]])
        memo["coset keys"] = smallest * n**3, offsets, lattice_of[smallest], cell_maps
    base, offsets, map_of, cell_maps = memo["coset keys"]
    return base[linear] + cell_maps[map_of[linear], flat((t + offsets[linear]) % n, n)]


def left_cosets(h: TorusGroup, j: TorusGroup) -> CosetTable:
    """Label H's codes by their left cosets g J, by their keys (see
    `_coset_keys`): ranking the keys that occur numbers the cosets in the
    canonical order of their smallest elements, and each coset's smallest
    element is the first code carrying its id.
    """
    if h.modulus != j.modulus:
        raise SubgroupError("mismatched moduli")
    if not j.within(h):
        raise SubgroupError("J is not contained in H")
    n = h.modulus
    # H's codes are one block of translations per linear part, in part order
    t = coords(h.codes.reshape(len(h.linear), -1) % n**3, n)
    keys = _coset_keys(j, h.linear[:, None], t).reshape(-1)
    present = np.zeros(48 * n**3, dtype=bool)
    present[keys] = True
    ids = (np.cumsum(present) - 1)[keys]
    # a coset's first code is where the running maximum of the ids steps up
    top = np.maximum.accumulate(ids)
    return CosetTable(h, ids, h.codes[np.concatenate(([True], top[1:] > top[:-1]))])
