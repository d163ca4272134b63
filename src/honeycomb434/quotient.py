"""Finite quotients of the honeycomb symmetry group on the N-periodic torus.

Reducing translations modulo an even N >= 2 turns the infinite symmetry
group into a finite group of order 48 N^3 acting on the N^3 torus vertices.
Index, coset and orbit computations in the quotient are exact for the
original infinite subgroup whenever the subgroup provably contains the
translations by (N,0,0), (0,N,0) and (0,0,N); `certify_translations`
produces that proof as explicit witness words, found by a bounded search in
the exact (unreduced) group.

One class, `TorusGroup`, holds the full group and each of its subgroups;
a subgroup's `parent` is the full group, which is its own parent.

Inside a group, an element (L, t) with t in [0, N)^3 is the integer code
``l * N^3 + (x * N + y) * N + z``, where l indexes the 48 signed
permutation matrices ordered by flattened matrix.  A group holds its
elements as a sorted int64 array of codes, and closure, containment,
cosets and vertex images are numpy passes over such arrays.  Code order is
the canonical element order used for deterministic coset ids:
lexicographic on (flattened linear matrix, translation), as `element_key`
states it for `Isometry` values.  `elements` decodes the codes to a
frozenset of `Isometry` on first use; words, certificates and reports
keep using `Isometry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import permutations, product
from typing import Iterable, NamedTuple

import numpy as np

from .isometry import IDENTITY, Isometry, eval_word, parse_word, translation

Vec = tuple[int, int, int]

DEFAULT_RADIUS = 12
# the largest certificate radius accepted: the search keeps every product
# within the radius, and their number grows with its cube
MAX_RADIUS = 24
# the largest modulus accepted: every bundled config builds, colors and
# exports at N = 16 in a few seconds; the full group has 48 N^3 elements
MAX_MODULUS = 16


class SubgroupError(ValueError):
    """Containment or construction constraint violated."""


class CertificationError(Exception):
    """Translation certificate not found.

    `definitive` is True when the search saturated (the subgroup ever
    reaches only finitely many elements and all were seen), so no larger
    radius can succeed.  Otherwise the radius was exhausted and retrying
    with a larger one may still find a certificate.
    """

    def __init__(self, message: str, definitive: bool):
        super().__init__(message)
        self.definitive = definitive


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


def check_radius(radius: int) -> None:
    """Reject a certificate radius below 1 or above MAX_RADIUS."""
    if radius < 1:
        raise ValueError("radius must be positive")
    if radius > MAX_RADIUS:
        raise ValueError(f"radius {radius} is above the limit {MAX_RADIUS}")


# -- the code layer ----------------------------------------------------------

# the 48 linear parts as (perm, signs), in canonical (flattened matrix) order
LINEAR_PARTS: tuple[tuple[Vec, Vec], ...] = tuple(
    sorted(
        ((perm, signs) for perm in permutations(range(3)) for signs in product((1, -1), repeat=3)),
        key=lambda part: element_key(Isometry(*part, (0, 0, 0))),
    )
)
_LINEAR_INDEX = {part: l for l, part in enumerate(LINEAR_PARTS)}
_PERM = np.array([perm for perm, _ in LINEAR_PARTS], dtype=np.int64)
_SIGN = np.array([signs for _, signs in LINEAR_PARTS], dtype=np.int64)
_IDENTITY_LINEAR = _LINEAR_INDEX[(IDENTITY.perm, IDENTITY.signs)]


def _composition_table() -> np.ndarray:
    """table[a, b] is the linear index of L_a L_b, from the perm and sign
    arrays (the rule of `Isometry.__mul__`)."""
    shape = (48, 48, 3)
    inner = np.broadcast_to(_PERM[:, None, :], shape)
    perm = np.take_along_axis(np.broadcast_to(_PERM[None], shape), inner, axis=2)
    signs = _SIGN[:, None, :] * np.take_along_axis(np.broadcast_to(_SIGN[None], shape), inner, axis=2)

    def key(perm, signs):
        return ((perm[..., 0] * 3 + perm[..., 1]) * 8 + (signs[..., 0] + 1) * 2
                + (signs[..., 1] + 1) + (signs[..., 2] + 1) // 2)

    lookup = np.full(72, -1, dtype=np.int64)
    lookup[key(_PERM, _SIGN)] = np.arange(48)
    return lookup[key(perm, signs)]


_MUL = _composition_table()


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


def apply_linear(linear, xyz: np.ndarray, n: int) -> np.ndarray:
    """L v mod n for linear indices and coordinates, broadcast together."""
    perm, signs = _PERM[linear], _SIGN[linear]
    shape = np.broadcast_shapes(perm.shape, np.shape(xyz))
    picked = np.take_along_axis(np.broadcast_to(xyz, shape), np.broadcast_to(perm, shape), axis=-1)
    return signs * picked % n


def multiply(a, b, n: int) -> np.ndarray:
    """Codes of the products a * b ("b first, then a"), broadcast together."""
    la, ta = split(a, n)
    lb, tb = split(b, n)
    return join(_MUL[la, lb], (apply_linear(la, tb, n) + ta) % n, n)


def images(codes, v, n: int) -> np.ndarray:
    """Vertex indices (see `flat`) of the images of the vertex v, or of
    vertices given as coordinates of shape (..., 3), under coded elements."""
    linear, t = split(codes, n)
    return flat((apply_linear(linear, np.asarray(v), n) + t) % n, n)


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


class ElementCodes:
    """The elements of one group as a sorted, read-only int64 code array.

    Equal and hashed by modulus and codes, so by element set.  The decoded
    frozenset is built on first use and kept here, so every group that
    shares this object (a subgroup and its certified copy) shares it.
    """

    def __init__(self, modulus: int, codes: np.ndarray):
        codes = np.asarray(codes, dtype=np.int64)
        codes.setflags(write=False)
        self.modulus = modulus
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElementCodes):
            return NotImplemented
        return self.modulus == other.modulus and np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        return hash((self.modulus, self.codes.tobytes()))

    def __repr__(self) -> str:
        return f"ElementCodes(modulus={self.modulus}, order={len(self.codes)})"

    @cached_property
    def elements(self) -> frozenset[Isometry]:
        return frozenset(decode(self.codes, self.modulus))


@dataclass(frozen=True)
class TorusGroup:
    """A group of torus symmetries: the full group with translations reduced
    modulo N, or a subgroup of it generated by words in P, Q, R, S.

    `parent` is the full group; the full group is its own parent.
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
    element_codes: ElementCodes
    translation_certificate: tuple[Witness, Witness, Witness] | None = None
    _parent: TorusGroup | None = field(default=None, compare=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def parent(self) -> TorusGroup:
        return self if self._parent is None else self._parent

    @property
    def certified(self) -> bool:
        return self._parent is None or self.translation_certificate is not None

    @property
    def codes(self) -> np.ndarray:
        """The sorted element codes."""
        return self.element_codes.codes

    @property
    def elements(self) -> frozenset[Isometry]:
        return self.element_codes.elements

    @property
    def order(self) -> int:
        return len(self.element_codes)

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
    out = []
    for g in gens:
        out.append(parse_word(g) if isinstance(g, str) else tuple(g))
    return tuple(out)


def _closure(modulus: int, words: Iterable[tuple[str, ...]]) -> ElementCodes:
    """Smallest set of codes containing the identity and closed under right
    multiplication by the word evaluations: in a finite group, the generated
    subgroup.  Breadth-first, one array pass per generator and level; a
    boolean mask over the 48 N^3 codes keeps each element once."""
    n = modulus
    seeds = [encode(eval_word(w), n) for w in words]
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
    return ElementCodes(n, np.flatnonzero(seen))


def build_group(modulus: int) -> TorusGroup:
    """The full torus group for an even modulus from 2 to MAX_MODULUS.

    Odd moduli are rejected: the colorings this engine exists for have
    period 2, and an odd quotient would fold distinct color classes onto
    each other.
    """
    check_modulus(modulus)
    words = (("P",), ("Q",), ("R",), ("S",))
    return TorusGroup(modulus, words, _closure(modulus, words))


def build_subgroup(group: TorusGroup, gens: Iterable) -> TorusGroup:
    """Subgroup of `group` generated by the given words (strings or letter
    tuples), with the full group as its parent.  The result carries no
    translation certificate yet."""
    words = _normalize_words(gens)
    return TorusGroup(group.modulus, words, _closure(group.modulus, words), _parent=group.parent)


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


def _certificate_search(
    words: tuple[tuple[str, ...], ...], radius: int, targets: tuple[Vec, ...]
):
    """Breadth-first search over products of the generator evaluations
    (and their inverses) in the exact infinite group, collecting pure
    translations until they span every target.  The depth bound counts
    factors, i.e. length as a word in the subgroup's own generators, so
    the search stops early on success and the radius cap only matters
    for failures.

    Returns (outcome, lattice, row_word): the lattice holds the pure
    translations (rows) in discovery order, and row_word(i) spells out the
    word that reached row i.  Each product keeps only a back-pointer (its
    parent product and last generator), so words are built only for the
    rows asked for.  The outcome is "spanned" when the targets became
    solvable, "saturated" when the whole subgroup was enumerated without
    success (no radius can ever succeed), or "truncated" when the radius
    ran out first.
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

    seen = {IDENTITY}
    frontier: list[tuple[Isometry, int]] = [(IDENTITY, 0)]
    for _ in range(radius):
        if not frontier:
            return "saturated", lattice, row_word
        next_frontier: list[tuple[Isometry, int]] = []
        fresh = False
        for el, i in frontier:
            for g, gel in enumerate(gens):
                ne = el * gel
                if ne in seen:
                    continue
                seen.add(ne)
                next_frontier.append((ne, len(parents)))
                if ne.is_translation and ne.trans != (0, 0, 0):
                    row_products.append(len(parents))
                    lattice.add(ne.trans)
                    fresh = True
                parents.append(i)
                factors.append(g)
        if fresh and spanned():
            return "spanned", lattice, row_word
        frontier = next_frontier
    return ("saturated" if not frontier else "truncated"), lattice, row_word


def certify_translations(sub: TorusGroup, radius: int = DEFAULT_RADIUS) -> TorusGroup:
    """Prove the subgroup contains the three axis translations by N.

    Bounded breadth-first search over products of the subgroup's generator
    evaluations in the exact group, up to `radius` factors per product,
    collecting pure translations; succeeds iff (N,0,0), (0,N,0), (0,0,N)
    lie in the lattice those translations generate.  Witness words are
    stored on the returned subgroup and re-evaluated exactly before being
    accepted.

    Raises CertificationError otherwise; `definitive` distinguishes a
    saturated search (no certificate can ever exist) from an exhausted
    radius (try a larger one).
    """
    check_radius(radius)
    n = sub.modulus
    targets = ((n, 0, 0), (0, n, 0), (0, 0, n))
    outcome, lattice, row_word = _certificate_search(sub.generator_words, radius, targets)
    if outcome != "spanned":
        missing = [t for t in targets if lattice.solve(t) is None]
        kind = "no certificate exists" if outcome == "saturated" else "radius exhausted"
        raise CertificationError(
            f"translations {missing[0]} not reachable from "
            f"{['·'.join(w) for w in sub.generator_words]} within radius "
            f"{radius} generator factors ({kind})",
            definitive=outcome == "saturated",
        )
    witnesses = []
    for target in targets:
        coeffs = lattice.solve(target)
        if coeffs is None:
            raise AssertionError(f"search reported spanned but {target} is unsolvable")
        word: tuple[str, ...] = ()
        for idx in sorted(coeffs):
            w = row_word(idx)
            c = coeffs[idx]
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
    ids = np.full(h.order, -1, dtype=np.int64)
    reps: list[int] = []
    pos = _next_unlabelled(ids, 0)
    while pos < len(ids):
        g = h.codes[pos]
        ids[h.locate(multiply(g, j.codes, n))] = len(reps)
        reps.append(int(g))
        pos = _next_unlabelled(ids, pos + 1)
    return CosetTable(h, ids, np.array(reps, dtype=np.int64))


def _next_unlabelled(ids: np.ndarray, pos: int) -> int:
    """The first position from `pos` on whose id is still -1, or len(ids);
    the window doubles, so the scan costs O(distance) array work."""
    width = 64
    while pos < len(ids):
        free = np.flatnonzero(ids[pos:pos + width] < 0)
        if free.size:
            return pos + int(free[0])
        pos += width
        width *= 2
    return len(ids)


def member(sub: TorusGroup, g: Isometry) -> bool:
    """Is the exact isometry g in the subgroup, judged in the quotient?

    Exact for certified subgroups: with all modulus translations inside,
    image membership and true membership coincide."""
    return bool(sub.includes(encode(g, sub.modulus)))
