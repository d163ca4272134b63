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
permutation matrices ordered by flattened matrix.  A group holds its
elements as a sorted int64 array of codes, and containment, cosets and
vertex images are numpy passes over such arrays.  The full group is every
code from 0 to 48 N^3 - 1, and a subgroup is enumerated from its space-group
form (see `_enumerate`), so no group is closed.  Code order is
the canonical element order used for deterministic coset ids:
lexicographic on (flattened linear matrix, translation), as `element_key`
states it for `Isometry` values.  The array is the group:
`TorusGroup.codes` holds it read-only, `elements` decodes it to a frozenset
of `Isometry` on first use, and two groups compare by identity, not by
element set.  The walks in the infinite group step integer states (linear
index, x, y, z) through `isometry._step_table`, with no `Isometry` product;
words, witnesses and reports keep `Isometry` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .isometry import (
    LINEAR_PARTS,
    _IDENTITY_LINEAR,
    _LINEAR_INDEX,
    Isometry,
    _spelled,
    _step_table,
    check_letters,
    eval_word,
    parse_word,
    translation,
)

Vec = tuple[int, int, int]

# the largest modulus accepted; the full group has 48 N^3 elements.  At
# N = 16 each bundled config builds, colors and writes its exports in
# 0.12-0.22 s, and the CLI's color and export commands, which also check
# the theorem and the color group, take 0.20-0.50 s together (2-vCPU Xeon,
# Python 3.11, package already imported)
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


def element_key(el: Isometry) -> tuple:
    """Canonical sort key: flattened linear matrix, then translation."""
    m = el.linear
    return (m[0] + m[1] + m[2], el.trans)


def check_modulus(modulus: int) -> None:
    """Reject a modulus that is odd, below 2 or above MAX_MODULUS."""
    if modulus < 2 or modulus % 2 != 0:
        raise ValueError(f"modulus must be an even integer >= 2, got {modulus}")
    if modulus > MAX_MODULUS:
        raise ValueError(f"modulus {modulus} is above the limit {MAX_MODULUS}")


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
    """L v mod n, with one factor fixed: one linear index and coordinates
    of shape (..., 3), or linear indices of any shape and one vertex, whose
    48 images are computed once and gathered.  The package's one rule for
    how a linear part acts: coordinate i of L v is signs[i] * v[perm[i]].
    Raises ValueError when both factors vary."""
    xyz = np.asarray(xyz)
    if xyz.ndim == 1:
        return (_SIGN * xyz[_PERM] % n)[linear]
    if np.ndim(linear):
        raise ValueError("apply_linear takes one linear index or one vertex")
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
    single code, the other any array of codes."""
    la, ta = split(a, n)
    lb, tb = split(b, n)
    return join(_MUL[la, lb], (apply_linear(la, tb, n) + ta) % n, n)


def images(codes, v, n: int) -> np.ndarray:
    """Vertex indices (see `flat`) of the images of one vertex v under
    coded elements, or of vertices given as coordinates of shape (..., 3)
    under one coded element."""
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

    `codes` is the sorted, read-only int64 array of the element codes, and
    `elements` decodes it to a frozenset of `Isometry` on first use.  Groups
    compare by identity; `within` compares element sets.
    `parent` is the full group; the full group is its own parent.
    `translation_lattice` is the triangular basis (at most three rows) of
    the translations the underlying infinite group contains; a group built
    without words, such as a color group, has none.
    `translation_certificate` is None until `certify_translations` has
    proven that the underlying infinite subgroup contains all translations
    by the modulus along each axis; with the certificate present, indices,
    cosets, orbits and stabilizers computed in the quotient are exact for
    the infinite subgroup as well.  The full group needs no certificate.
    `_memo` keeps results derived from this group object, such as its orbit
    decomposition; `dataclasses.replace` starts the copy with an empty one.
    """

    modulus: int
    generator_words: tuple[tuple[str, ...], ...]
    codes: np.ndarray = field(repr=False)
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

    @property
    def order(self) -> int:
        return len(self.codes)

    def locate(self, codes) -> np.ndarray:
        """Positions of the given element codes in `codes`; meaningful
        only where `includes` is true."""
        return np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)

    def includes(self, codes) -> np.ndarray:
        """Which of the given element codes are elements of this group."""
        return self.codes[self.locate(codes)] == codes

    def within(self, other: TorusGroup) -> bool:
        """Is every element of this group an element of `other`?"""
        return self.modulus == other.modulus and bool(other.includes(self.codes).all())


def _normalize_words(gens: Iterable) -> tuple[tuple[str, ...], ...]:
    return tuple(parse_word(g) if isinstance(g, str) else check_letters(g) for g in gens)


def _span(rows: Iterable[Vec]) -> IntegerLattice:
    """The lattice the rows span."""
    lattice = IntegerLattice()
    for row in rows:
        lattice.add(row)
    return lattice


def _enumerate(modulus: int, words: Iterable[tuple[str, ...]]) -> tuple[np.ndarray, tuple[Vec, ...]]:
    """The image mod N of the subgroup H the words generate, and the
    triangular basis of H's translation lattice Lambda_H, from H's
    space-group form: a point group of linear parts and Lambda_H.

    A breadth-first walk over linear parts, right-multiplying by the word
    evaluations, picks one element u_L of H per linear part L, kept as its
    shift t_L.  Each step x = u g (one step-table lookup and three integer
    additions) that lands on a linear part already picked gives the
    Schreier generator x u_L^-1, the pure translation t_x - t_L; these
    span Lambda_H exactly (Schreier's lemma), kept unreduced.  With N e_1,
    N e_2 and N e_3 they span Lambda_H + N Z^3 (see `_lattice_mod_n`), and
    H mod N is every (L, t_L + lambda).  Exact for any words: reduction mod
    N only sees Lambda_H + N Z^3, whatever the rank of Lambda_H.
    """
    n = modulus
    steps = _step_table(dict(enumerate(map(eval_word, words)))).values()
    schreier: dict[Vec, None] = {}  # the distinct Schreier generators, in walk order
    picked = {_IDENTITY_LINEAR: (0, 0, 0)}  # linear index -> the shift of u_L
    walk = [_IDENTITY_LINEAR]
    for l in walk:
        x, y, z = picked[l]
        for step in steps:
            m, dx, dy, dz = step[l]
            t = (x + dx, y + dy, z + dz)
            if m not in picked:
                picked[m] = t
                walk.append(m)
            else:
                schreier[tuple(a - b for a, b in zip(t, picked[m]))] = None
    basis = _span(schreier).basis()
    _, points = _lattice_mod_n(basis, n)
    linear = np.array(walk, dtype=np.int64)
    shifts = np.array(list(picked.values()), dtype=np.int64)
    return _space_group_codes(linear, shifts, points, n), basis


def _lattice_mod_n(rows: Iterable[Vec], n: int) -> tuple[tuple[Vec, ...], np.ndarray]:
    """The triangular basis b_1, b_2, b_3 of the lattice the rows span with
    N e_1, N e_2 and N e_3, and that lattice's points mod N, shape (m, 3):
    the diagonal entries divide N, so they are every i b_1 + j b_2 + k b_3
    mod N with i < N / b_11, j < N / b_22 and k < N / b_33."""
    basis = _span((*rows, (n, 0, 0), (0, n, 0), (0, 0, n))).basis()
    # the multiples of each basis row that stay distinct mod N, then their sums
    multiples = [np.arange(n // row[k])[:, None] * [c % n for c in row] for k, row in enumerate(basis)]
    points = multiples[0][:, None, None] + multiples[1][None, :, None] + multiples[2][None, None, :]
    return basis, points.reshape(-1, 3) % n


def _space_group_codes(linear: np.ndarray, shifts: np.ndarray, lattice_mod_n: np.ndarray, n: int) -> np.ndarray:
    """The sorted, read-only codes of every (L, t_L + lambda): one shift
    t_L per linear index L, and every lambda of a translation group given by
    its points mod N."""
    codes = np.sort(join(linear[:, None], (shifts[:, None, :] + lattice_mod_n) % n, n), axis=None)
    codes.setflags(write=False)
    return codes


def build_group(modulus: int) -> TorusGroup:
    """The full torus group for an even modulus from 2 to MAX_MODULUS.

    Odd moduli are rejected: the colorings this engine exists for have
    period 2, and an odd quotient would fold distinct color classes onto
    each other.
    """
    check_modulus(modulus)
    # P, Q, R and S generate every (L, t) mod N, so the group is every code;
    # the infinite group holds every integer translation
    words = (("P",), ("Q",), ("R",), ("S",))
    codes = np.arange(48 * modulus**3, dtype=np.int64)
    codes.setflags(write=False)
    return TorusGroup(modulus, words, codes, translation_lattice=((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def build_subgroup(group: TorusGroup, gens: Iterable) -> TorusGroup:
    """Subgroup of `group` generated by the given words (strings or letter
    tuples), with the full group as its parent and its exact translation
    lattice.  The result carries no translation certificate yet."""
    words = _normalize_words(gens)
    codes, basis = _enumerate(group.modulus, words)
    return TorusGroup(group.modulus, words, codes, translation_lattice=basis, _parent=group.parent)


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
    def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        if old_r < 0:
            old_r, old_s, old_t = -old_r, -old_s, -old_t
        return old_r, old_s, old_t

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
            g, x, y = self._ext_gcd(bvec[col], v[col])
            new_pivot = tuple(x * bvec[k] + y * v[k] for k in range(3))
            new_pco = self._combine(x, bco, y, co)
            qb, qv = bvec[col] // g, v[col] // g
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


def _certificate_search(words: tuple[tuple[str, ...], ...], targets: tuple[Vec, ...]):
    """Breadth-first search over products of the generator evaluations
    (and their inverses) in the exact infinite group, collecting pure
    translations until they span every target.  The depth counts factors,
    i.e. length as a word in the subgroup's own generators.  A product is
    the state (linear index, x, y, z), and a factor one step-table lookup.

    Returns (found, lattice, row_word): the lattice holds the pure
    translations (rows) in discovery order, and row_word(i) spells out the
    word that reached row i.  Each product keeps only a back-pointer (its
    parent product and last generator), so words are built only for the
    rows asked for.  `found` is True when the targets became solvable
    within _SEARCH_DEPTH factors.
    """
    gens: list[Isometry] = []
    gen_words: list[tuple[str, ...]] = []
    for w in words:
        for ww in (w, tuple(reversed(w))):
            el = eval_word(ww)
            if el.is_identity or el in gens:
                continue
            gens.append(el)
            gen_words.append(ww)

    steps = _step_table(dict(enumerate(gens)))
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
        return tuple(letter for g in reversed(last) for letter in gen_words[g])

    def spanned() -> bool:
        return all(lattice.solve(t) is not None for t in targets)

    identity = (_IDENTITY_LINEAR, 0, 0, 0)
    seen = {identity}
    frontier = [(identity, 0)]
    for _ in range(_SEARCH_DEPTH):
        next_frontier = []
        fresh = False
        for (l, x, y, z), i in frontier:
            for g, step in steps.items():
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
    and stored on the returned subgroup.

    Raises CertificationError when the translations lie outside the
    lattice (no certificate exists), when the search finds no witness
    within _SEARCH_DEPTH generator factors, or when a witness would spell
    more than _WITNESS_LETTERS letters.
    """
    n = sub.modulus
    targets = ((n, 0, 0), (0, n, 0), (0, 0, n))
    words = [_spelled(w) for w in sub.generator_words]
    held = _span(sub.translation_lattice)
    missing = [t for t in targets if held.solve(t) is None]
    if missing:
        raise CertificationError(
            f"translations {missing[0]} not reachable from {words} (no certificate exists)"
        )
    found, lattice, row_word = _certificate_search(sub.generator_words, targets)
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
        word: tuple[str, ...] = ()
        for w, c in row_terms:
            word += w * c if c > 0 else tuple(reversed(w)) * (-c)
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
    element, so ids are stable across runs.  `ids`, `cosets` and
    `representatives` give the same table in `Isometry` form, decoded on
    first use.
    """

    group: TorusGroup
    coset_ids: np.ndarray
    representative_codes: np.ndarray

    @cached_property
    def representatives(self) -> tuple[Isometry, ...]:
        return tuple(decode(self.representative_codes, self.group.modulus))

    @cached_property
    def ids(self) -> dict[Isometry, int]:
        return dict(zip(decode(self.group.codes, self.group.modulus), self.coset_ids.tolist()))

    @cached_property
    def cosets(self) -> tuple[frozenset[Isometry], ...]:
        members: list[set[Isometry]] = [set() for _ in self.representative_codes]
        for el, cid in self.ids.items():
            members[cid].add(el)
        return tuple(frozenset(m) for m in members)


def left_cosets(h: TorusGroup, j: TorusGroup) -> CosetTable:
    """Walk H's codes in order; each element not yet covered is the smallest
    of its coset g J, which one array product labels whole."""
    if h.modulus != j.modulus:
        raise SubgroupError("mismatched moduli")
    if not j.within(h):
        raise SubgroupError("J is not contained in H")
    n = h.modulus
    ids, firsts = _partition(h.order, lambda pos: h.locate(multiply(h.codes[pos], j.codes, n)))
    return CosetTable(h, ids, h.codes[firsts])


def _partition(size: int, block_of) -> tuple[np.ndarray, np.ndarray]:
    """Label positions 0 .. size - 1 by blocks, walking in order: each
    position not yet labelled starts the next block, and block_of(pos)
    gives all its positions.  Returns the labels and each block's first
    position.  Free positions are sought in windows that double from 64,
    so the scan costs array work in proportion to the distance covered."""
    ids = np.full(size, -1, dtype=np.int64)
    firsts: list[int] = []
    pos, width = 0, 64
    while pos < size:
        free = np.flatnonzero(ids[pos:pos + width] < 0)
        if not free.size:
            pos += width
            width *= 2
            continue
        pos += int(free[0])
        ids[block_of(pos)] = len(firsts)
        firsts.append(pos)
        pos, width = pos + 1, 64
    return ids, np.array(firsts, dtype=np.int64)


def member(sub: TorusGroup, g: Isometry) -> bool:
    """Is the exact isometry g in the subgroup, judged in the quotient?

    Exact for certified subgroups: with all modulus translations inside,
    image membership and true membership coincide."""
    return bool(sub.includes(encode(g, sub.modulus)))
