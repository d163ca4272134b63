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
permutation matrices ordered by flattened matrix.  `flat` gives the
flat index (x * N + y) * N + z of a translation or vertex, and `coords`
reads its coordinates back from the one per-modulus table the code layer
keeps: a read-only (N^3, 3) grid, built on first use and kept for the
life of the process.  Every group is a space group, held as that form
by one constructor (`_space_group`): its linear parts, one shift t_L per
part, and the triangular basis of its translation lattice mod N.  Order,
membership, containment, index, cosets and orbits are read off the form,
by array passes with Python loops over at most the 48 linear parts, so
no group is closed.  Code order is the canonical
element order used for deterministic coset ids: lexicographic on
(flattened linear matrix, translation), the linear parts taken in the
order of `isometry.LINEAR_PARTS`.  One rule names the coset gJ of any
element g, its key (`_coset_keys`); `left_cosets`, the colorings and the
theorem check all find cosets by it.  `TorusGroup.codes`, the sorted,
read-only int64 array of a group's codes (for the full group, every code
from 0 to 48 N^3 - 1), is enumerated from the form on first use: only
`CosetTable.coset_ids`, `elements` and a failing theorem check read it.
`elements` decodes it to a frozenset of `Isometry` on first use, and two
groups compare by identity, not by element set.  The walks in the
infinite group step integer states (linear index, x, y, z) through step
rows (`isometry._step_rows`), with no `Isometry` product: a letter's rows
are `isometry._STEPS`, built at import, and a longer word's are built once
per `build_subgroup` and kept on the subgroup's `_memo` for
`certify_translations`, whose witness search reads the rows of each
word's inverse off them (`_inverse_steps`).  That search collects the
translations of each depth before it expands the depth, and stops
without expanding the depth whose translations span its targets.  One
elimination, `_reduce`, reduces every lattice basis; only the witness
search asks it for the coefficients that `_solve` reads its witnesses
from.  Words, witnesses and reports keep `Isometry` values.
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

# the largest modulus accepted; the full group has 48 N^3 elements, and
# the cap bounds what a command costs, a coloring without a recipe (whose
# color group is found by whole-assignment tests) included
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


# one read-only coordinate grid per modulus, built on first use by `_grid`
# and kept for the life of the process: at most MAX_MODULUS // 2 of them
_GRIDS: dict[int, np.ndarray] = {}


def _build_grid(n: int) -> np.ndarray:
    """The (n^3, 3) int64 array whose row i holds the coordinates of flat
    index i, made read-only."""
    t = np.arange(n**3)
    grid = np.empty((n**3, 3), dtype=np.int64)
    grid[:, 0] = t // (n * n)
    grid[:, 1] = t // n % n
    grid[:, 2] = t % n
    grid.flags.writeable = False
    return grid


def _grid(n: int) -> np.ndarray:
    """The coordinates of every flat index mod n, as rows (see `_build_grid`)."""
    grid = _GRIDS.get(n)
    if grid is None:
        grid = _GRIDS[n] = _build_grid(n)
    return grid


def coords(index, n: int) -> np.ndarray:
    """Inverse of `flat` for flat indices in [0, n^3), given as an integer
    or an array-like of any shape: the rows of the modulus's read-only
    coordinate grid, gathered into a fresh array of shape index.shape +
    (3,).  An index of n^3 or more raises IndexError; a negative one is
    outside the contract."""
    return _grid(n)[np.asarray(index)]


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
    n, probe, parts = 8, (1, 2, 3), np.arange(48)
    lookup = np.full(n**3, -1, dtype=np.int64)
    moved = apply_linear(parts, probe, n)
    lookup[flat(moved, n)] = parts
    # entry [b, a] is the part that sends the probe where L_a L_b does
    return lookup[flat(apply_linear(parts, moved, n), n)].T


_MUL = _composition_table()
_MUL_ROWS = _MUL.tolist()  # the same table as lists of ints, for lookups one at a time


def multiply(a, b, n: int) -> np.ndarray:
    """Codes of the products a * b ("b first, then a") for every pair of
    codes in a and b (any shapes): the outer product, of shape
    b.shape + a.shape, like `images` and `apply_linear`."""
    la, ta = split(a, n)
    lb, tb = split(b, n)
    return join(_MUL[la, lb.reshape(lb.shape + (1,) * la.ndim)], (apply_linear(la, tb, n) + ta) % n, n)


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
    """The isometries of the given codes, of any shape, in C order."""
    linear, xyz = split(np.ravel(codes), n)
    return [Isometry(*LINEAR_PARTS[l], tuple(t)) for l, t in zip(linear.tolist(), xyz.tolist())]


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
    `includes`, `within`, `index` and `left_cosets` are computed from the
    form with no pass over the codes.
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

    @cached_property
    def _generator_codes(self) -> np.ndarray:
        """A few codes that generate the group: the translation by each
        basis row of its lattice, then (L, t_L) for each linear part, in
        order, that the parts picked before it do not generate.  Their
        products give each (L, t_L + lambda).  Each pick at least doubles
        the point group the picks generate, so there are at most 8 codes."""
        n = self.modulus
        rows = np.array(self.torus_lattice) % n
        parts = self.linear.tolist()
        generated, picks = {_IDENTITY_LINEAR}, []
        for i, part in enumerate(parts):
            if part in generated:
                continue
            picks.append(i)
            # the picks generate the union of the cosets G r of G, the group
            # the earlier picks generate, over r = 1 and each product r s of
            # a coset's r and a pick s that falls outside the union so far
            old, reps = list(generated), [_IDENTITY_LINEAR]
            for r in reps:
                for p in picks:
                    g = _MUL_ROWS[r][parts[p]]
                    if g not in generated:
                        reps.append(g)
                        generated.update(_MUL_ROWS[o][g] for o in old)
        return np.concatenate((identity_code(n) + flat(rows, n), join(self.linear[picks], self.shifts[picks], n)))

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
        when other includes each of this group's generator codes: at most 8
        lookups, and none when other is the full group, the one group of
        order 48 N^3."""
        if self.modulus != other.modulus:
            return False
        return other.order == 48 * other.modulus**3 or bool(other.includes(self._generator_codes).all())


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


# a lattice vector (x, y, z), followed, where the caller asks for them, by
# its coefficients: the input rows of `_reduce` it combines, as a sparse
# dict {row number: multiplier}
Row = tuple


def _combine(x: int, a: dict[int, int], y: int, b: dict[int, int]) -> dict[int, int]:
    """x a + y b for two coefficient dicts, with no zero entries."""
    out = {k: x * c for k, c in a.items()}
    for k, c in b.items():
        out[k] = out.get(k, 0) + y * c
    return {k: c for k, c in out.items() if c}


def _reduce(rows: Iterable[Row]) -> tuple[Row, ...]:
    """The triangular basis of the lattice the rows span: one row per pivot
    column, in column order, zero left of its pivot and positive on it.

    The rows are vectors, or all carry their coefficients after the
    vector.  A row v merges into the pivot row p of its first nonzero
    column by a gcd step: with g = x p[col] + y v[col] their positive gcd,
    the pivot becomes x p + y v, and (v[col]/g) p - (p[col]/g) v, zero in
    that column, goes on to the next column.  Coefficients are combined
    along with the vectors, so each basis row carries the combination of
    input rows it equals; a merged row equal to p or to v keeps that row's
    dict.  A basis fed back in ahead of more rows is
    rebuilt as it was, so the eliminations go on exactly as if the
    earlier rows had been fed with the new ones."""
    pivots: dict[int, Row] = {}
    for v in rows:
        for col in range(3):
            if v[col] == 0:
                continue
            p = pivots.get(col)
            if p is None:
                if v[col] < 0:
                    v = (-v[0], -v[1], -v[2], *({k: -c for k, c in co.items()} for co in v[3:]))
                pivots[col] = tuple(v)
                break
            g, r = p[col], v[col]
            x, s, y, t = 1, 0, 0, 1
            while r:
                q = g // r
                g, r = r, g - q * r
                x, s = s, x - q * s
                y, t = t, y - q * t
            if g < 0:
                g, x, y = -g, -x, -y
            qp, qv = p[col] // g, v[col] // g
            merged = (x * p[0] + y * v[0], x * p[1] + y * v[1], x * p[2] + y * v[2])
            rest = (qv * p[0] - qp * v[0], qv * p[1] - qp * v[1], qv * p[2] - qp * v[2])
            if len(v) > 3:
                # a merged row that is p or v as is shares its dict: no
                # dict is ever changed once made
                a, b = p[3], v[3]
                merged += (a if (x, y) == (1, 0) else b if (x, y) == (0, 1) else _combine(x, a, y, b),)
                rest += (_combine(qv, a, -qp, b),)
            pivots[col], v = merged, rest
    return tuple(pivots[col] for col in sorted(pivots))


def _solve(basis: tuple[Row, ...], target: Vec) -> dict[int, int] | None:
    """The coefficients that spell the target over the input rows of a
    `_reduce` basis (empty if its rows carry none), or None if its lattice
    misses the target.  Each row, in turn, takes as many of itself off the
    target as its pivot entry fits, which leaves the remainder mod that
    entry in the pivot column.  Rows are zero left of their pivots, so
    later rows keep every column already handled, and the target is held
    iff nothing is left."""
    x, y, z = target
    solved: dict[int, int] = {}
    for row in basis:
        a, b, c = row[0], row[1], row[2]
        q = x // a if a else y // b if b else z // c
        x, y, z = x - q * a, y - q * b, z - q * c
        if q and len(row) > 3:
            solved = _combine(1, solved, q, row[3])
    return None if x or y or z else solved


def _word_steps(word: tuple[str, ...], memo: dict) -> tuple[tuple[int, int, int, int], ...]:
    """The step rows of a word's evaluation: a letter's from
    `isometry._STEPS`, a longer word's built on first use and kept in memo."""
    if len(word) == 1:
        return _STEPS[word[0]]
    rows = memo.get(word)
    if rows is None:
        rows = memo[word] = _step_rows(eval_word(word))
    return rows


def _inverse_steps(rows: tuple[tuple[int, int, int, int], ...]) -> tuple[tuple[int, int, int, int], ...]:
    """The step rows of g^-1 read off those of g: where g steps linear
    part l to m, adding d, g^-1 steps m to l, adding -d (L_m = L_l L_g, so
    L_m g^-1 has the linear part L_l and the translation -L_l t_g)."""
    inverse: list = [None] * len(rows)
    for l, (m, dx, dy, dz) in enumerate(rows):
        inverse[m] = (l, -dx, -dy, -dz)
    return tuple(inverse)


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
    rows = chain(rows, ((n, 0, 0), (0, n, 0), (0, 0, n)))
    (a, b, c), (_, d, e), (_, _, f) = _reduce(rows)
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
    rows.  A word's rows come from memo (see `_word_steps`) or are built
    into it; its reversal is its inverse (each letter is a reflection),
    whose rows are read off the word's (`_inverse_steps`), and a word's
    element is where its rows send the identity part.

    Each depth first collects only the translations it reaches: the steps
    onto the identity linear part, which a table built once per search
    lists for each linear part.  They are numbered in discovery order.
    The basis so far goes back to `_reduce` ahead of them, each tagged
    {row number: 1}, so the basis carries every row's coefficients, and
    the search stops at the first depth whose basis vectors hold every
    target, or after _SEARCH_DEPTH factors.  Only a depth that leaves a
    target unspanned, and is not the last, is expanded in full, so the
    stopping depth never is.
    A product never steps along the inverse of the generator that reached
    it, which leads back to its parent.

    Returns (basis, row_word): the last basis, and row_word(i), which
    spells out the word that reached row i.  Each product keeps only a
    back-pointer (its parent product and last generator), so words are
    built only for the rows asked for.
    """
    memo = {} if memo is None else memo
    identity = (_IDENTITY_LINEAR, 0, 0, 0)
    gen_words: list[tuple[str, ...]] = []
    steps: list[tuple[tuple[int, int, int, int], ...]] = []
    index_of: dict[tuple[int, int, int, int], int] = {}  # generator element -> its index
    inverse: list[int] = []  # the index of each generator's inverse
    for w in words:
        rows = _word_steps(w, memo)
        if rows[_IDENTITY_LINEAR] == identity:
            continue
        pair = []
        for ww, ww_rows in ((w, rows), (w[::-1], rows if len(w) == 1 else _inverse_steps(rows))):
            g = index_of.setdefault(ww_rows[_IDENTITY_LINEAR], len(steps))
            if g == len(steps):
                gen_words.append(ww)
                steps.append(ww_rows)
                inverse.append(g)
            pair.append(g)
        inverse[pair[0]], inverse[pair[1]] = pair[1], pair[0]
    # the step a product reached by generator h must not take, and the
    # steps it takes; the identity product, reached by none, is h = -1
    back = [*inverse, -1]
    moves = [[(g, rows) for g, rows in enumerate(steps) if g != b] for b in back]
    # the steps onto the identity part from each linear part
    arrivals: list[list[tuple[int, int, int, int]]] = [[] for _ in LINEAR_PARTS]
    for g, rows in enumerate(steps):
        for l, (m, dx, dy, dz) in enumerate(rows):
            if m == _IDENTITY_LINEAR:
                arrivals[l].append((g, dx, dy, dz))

    basis: tuple[Row, ...] = ()
    # product i is (state, parent product, generator), product 0 the
    # identity; the products of each depth follow those of the last, in
    # breadth-first order
    products = [(identity, -1, -1)]
    row_steps: list[tuple[int, int]] = []  # (parent product, generator) of each row

    def row_word(row: int) -> tuple[str, ...]:
        i, g = row_steps[row]
        last = [g]
        while i:
            _, i, g = products[i]
            last.append(g)
        return tuple(chain.from_iterable(gen_words[g] for g in reversed(last)))

    seen = {identity}
    start = 0
    for depth in range(_SEARCH_DEPTH):
        stop = len(products)
        reached = set()
        fresh: list[Row] = []
        for i in range(start, stop):
            (l, x, y, z), _, h = products[i]
            for g, dx, dy, dz in arrivals[l]:
                state = (_IDENTITY_LINEAR, x + dx, y + dy, z + dz)
                # the identity is seen, so this translation is not zero
                if g != back[h] and state not in seen and state not in reached:
                    reached.add(state)
                    fresh.append((x + dx, y + dy, z + dz, {len(row_steps): 1}))
                    row_steps.append((i, g))
        if fresh:
            basis = _reduce(chain(basis, fresh))
            vectors = [row[:3] for row in basis]
            if all(_solve(vectors, t) is not None for t in targets):
                break
        if depth == _SEARCH_DEPTH - 1:
            break
        for i in range(start, stop):
            (l, x, y, z), _, h = products[i]
            for g, rows in moves[h]:
                m, dx, dy, dz = rows[l]
                state = (m, x + dx, y + dy, z + dz)
                if state not in seen:
                    seen.add(state)
                    products.append((state, i, g))
        start = stop
    return basis, row_word


def certify_translations(sub: TorusGroup) -> TorusGroup:
    """Prove the subgroup contains the three axis translations by N.

    The decision is exact: the subgroup contains (N,0,0), (0,N,0) and
    (0,0,N) iff they lie in its translation lattice, which `build_subgroup`
    keeps.  Only then does a breadth-first search over products of the
    generator evaluations collect pure translations until they span the
    three (see `_certificate_search`); it never expands the depth whose
    translations span them.  `_solve` spells each target over the
    search's basis as a combination of the translations found, and the
    words that reached them, so combined, are the witness words,
    re-evaluated exactly and stored on the returned subgroup; they are the
    only words evaluated here.  The search reads the generator elements
    and their inverses off the step rows `build_subgroup` kept on the
    subgroup's `_memo`.

    Raises CertificationError when the translations lie outside the
    lattice (no certificate exists), when the search finds no witness
    within _SEARCH_DEPTH generator factors, or when a witness would spell
    more than _WITNESS_LETTERS letters.
    """
    n = sub.modulus
    targets = ((n, 0, 0), (0, n, 0), (0, 0, n))
    words = [_spelled(w) for w in sub.generator_words]
    missing = [t for t in targets if _solve(sub.translation_lattice, t) is None]
    if missing:
        raise CertificationError(
            f"translations {missing[0]} not reachable from {words} (no certificate exists)"
        )
    memo = sub._memo.setdefault("step rows", {})
    basis, row_word = _certificate_search(sub.generator_words, targets, memo)
    solved = {t: _solve(basis, t) for t in targets}
    missing = [t for t, coefficients in solved.items() if coefficients is None]
    if missing:
        raise CertificationError(
            f"translations {missing[0]} lie in the lattice of {words}, but no witness "
            f"was found within {_SEARCH_DEPTH} generator factors"
        )
    # each witness is counted before any is built
    terms = {t: [(row_word(i), c) for i, c in sorted(co.items())] for t, co in solved.items()}
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
    """Left cosets gJ of J in H (`group` and `subgroup`), numbered by the
    canonical order of their smallest elements, so ids are stable across
    runs.  `representative_codes[c]` is the code of coset c's smallest
    element; `decode` turns them into `Isometry` values.  `coset_ids[i]`,
    the id of H's i-th element code, is computed on first access;
    `np.bincount(coset_ids)` gives the coset sizes."""

    group: TorusGroup
    subgroup: TorusGroup
    representative_codes: np.ndarray

    @cached_property
    def coset_ids(self) -> np.ndarray:
        """Each of H's codes keyed, and its key found among the
        representatives' keys, which ascend (see `_coset_keys`)."""
        n, j = self.group.modulus, self.subgroup
        keys = _coset_keys(j, *split(self.representative_codes, n))
        return np.searchsorted(keys, _coset_keys(j, *split(self.group.codes, n)))


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
    """The left cosets g J of J in H, read off the two forms by their keys
    (see `_coset_keys`), with no pass over H's codes.

    A coset whose smallest linear part is B0 meets B0 in one cell of
    B0 Lambda_J, and those cells tile H's translations t_B0 + Lambda_H of
    that part, since B0 Lambda_J lies in Lambda_H.  So each part of H that
    is its own B0 has its translations keyed in flat order, and the first
    translation with each key is its coset's smallest element.  Sorting
    the keys numbers the cosets in canonical order.
    """
    if h.modulus != j.modulus:
        raise SubgroupError("mismatched moduli")
    if not j.within(h):
        raise SubgroupError("J is not contained in H")
    n = h.modulus
    # a key is B0 N^3 plus a cell: the parts of H that are their own B0
    own = h.linear[_coset_keys(j, h.linear, np.zeros(3, dtype=np.int64)) // n**3 == h.linear]
    part, t = np.nonzero(h._cells == h._part_cells[own, None])
    keys = _coset_keys(j, own[part], coords(t, n))
    order = np.argsort(keys, kind="stable")
    first = order[np.concatenate(([True], np.diff(keys[order]) > 0))]
    return CosetTable(h, j, own[part[first]] * n**3 + t[first])
