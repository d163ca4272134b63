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

Elements reuse the Isometry type with every translation entry kept in
[0, N).  The canonical element order used for deterministic coset ids is
lexicographic on (flattened linear matrix, translation).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product
from typing import Iterable, NamedTuple

from .isometry import IDENTITY, Isometry, eval_word, parse_word, translation

Vec = tuple[int, int, int]

DEFAULT_RADIUS = 12


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


def _normalize_words(gens: Iterable) -> tuple[tuple[str, ...], ...]:
    out = []
    for g in gens:
        out.append(parse_word(g) if isinstance(g, str) else tuple(g))
    return tuple(out)


def _reduce(iso: Isometry, modulus: int) -> Isometry:
    return Isometry(iso.perm, iso.signs, tuple(t % modulus for t in iso.trans))


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
    """

    modulus: int
    generator_words: tuple[tuple[str, ...], ...]
    elements: frozenset[Isometry]
    translation_certificate: tuple[Witness, Witness, Witness] | None = None
    _parent: TorusGroup | None = field(default=None, compare=False, repr=False)

    @property
    def parent(self) -> TorusGroup:
        return self if self._parent is None else self._parent

    @property
    def certified(self) -> bool:
        return self._parent is None or self.translation_certificate is not None

    @property
    def order(self) -> int:
        return len(self.elements)

    def reduce(self, iso: Isometry) -> Isometry:
        return _reduce(iso, self.modulus)

    def mul(self, a: Isometry, b: Isometry) -> Isometry:
        return _reduce(a * b, self.modulus)

    def inv(self, a: Isometry) -> Isometry:
        return _reduce(a.inverse(), self.modulus)

    def act(self, a: Isometry, v: Iterable[int]) -> Vec:
        n = self.modulus
        return tuple(c % n for c in a.apply(v))

    def vertices(self) -> tuple[Vec, ...]:
        return tuple(product(range(self.modulus), repeat=3))

    @property
    def generator_elements(self) -> tuple[Isometry, ...]:
        return tuple(self.reduce(eval_word(w)) for w in self.generator_words)


def _closure(modulus: int, words: Iterable[tuple[str, ...]]) -> frozenset[Isometry]:
    """Smallest subset containing the identity and the word evaluations,
    closed under right multiplication by them.  In a finite group that is
    the generated subgroup."""
    seeds = [_reduce(eval_word(w), modulus) for w in words]
    seen = {IDENTITY}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in seeds:
                b = _reduce(a * g, modulus)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(seen)


def build_group(modulus: int) -> TorusGroup:
    """The full torus group for an even modulus >= 2.

    Odd moduli are rejected: the colorings this engine exists for have
    period 2, and an odd quotient would fold distinct color classes onto
    each other.
    """
    if modulus < 2 or modulus % 2 != 0:
        raise ValueError(f"modulus must be an even integer >= 2, got {modulus}")
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


@lru_cache(maxsize=64)
def _certificate_search(
    words: tuple[tuple[str, ...], ...], radius: int, targets: tuple[Vec, ...]
):
    """Breadth-first search over products of the generator evaluations
    (and their inverses) in the exact infinite group, collecting pure
    translations until they span every target.  The depth bound counts
    factors, i.e. length as a word in the subgroup's own generators, so
    the search stops early on success and the radius cap only matters
    for failures.

    Returns (rows, outcome): rows are (vector, word) pairs in discovery
    order; outcome is "spanned" when the targets became solvable,
    "saturated" when the whole subgroup was enumerated without success
    (no radius can ever succeed), or "truncated" when the radius ran out
    first.
    """
    gens: list[tuple[Isometry, tuple[str, ...]]] = []
    seen_gens = set()
    for w in words:
        for ww in (w, tuple(reversed(w))):
            el = eval_word(ww)
            if el.is_identity or el in seen_gens:
                continue
            seen_gens.add(el)
            gens.append((el, ww))

    lattice = IntegerLattice()
    rows: list[tuple[Vec, tuple[str, ...]]] = []

    def spanned() -> bool:
        return all(lattice.solve(t) is not None for t in targets)

    seen = {IDENTITY}
    frontier: list[tuple[Isometry, tuple[str, ...]]] = [(IDENTITY, ())]
    for _ in range(radius):
        if not frontier:
            return tuple(rows), "saturated"
        next_frontier: list[tuple[Isometry, tuple[str, ...]]] = []
        fresh = False
        for el, word in frontier:
            for gel, gword in gens:
                ne = el * gel
                if ne in seen:
                    continue
                seen.add(ne)
                next_frontier.append((ne, word + gword))
                if ne.is_translation and ne.trans != (0, 0, 0):
                    rows.append((ne.trans, word + gword))
                    lattice.add(ne.trans)
                    fresh = True
        if fresh and spanned():
            return tuple(rows), "spanned"
        frontier = next_frontier
    return tuple(rows), ("saturated" if not frontier else "truncated")


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
    if radius < 1:
        raise ValueError("radius must be positive")
    n = sub.modulus
    targets = ((n, 0, 0), (0, n, 0), (0, 0, n))
    rows, outcome = _certificate_search(sub.generator_words, radius, targets)
    lattice = IntegerLattice()
    for vec, _ in rows:
        lattice.add(vec)
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
            vec, w = rows[idx]
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
    amb_elements = ambient.elements
    if not sub.elements <= amb_elements:
        raise SubgroupError("subgroup is not contained in the ambient group")
    return len(amb_elements) // len(sub.elements)


class CosetTable(NamedTuple):
    """Left cosets gJ of J in H.

    Cosets are numbered by the canonical order of their smallest element,
    so ids are stable across runs.  `ids` labels every element of H with
    its coset id; `representatives[i]` is coset i's smallest element.
    """

    ids: dict[Isometry, int]
    cosets: tuple[frozenset[Isometry], ...]
    representatives: tuple[Isometry, ...]


def left_cosets(h: TorusGroup, j: TorusGroup) -> CosetTable:
    if h.modulus != j.modulus:
        raise SubgroupError("mismatched moduli")
    if not j.elements <= h.elements:
        raise SubgroupError("J is not contained in H")
    ordered = sorted(h.elements, key=element_key)
    mul = j.mul
    ids: dict[Isometry, int] = {}
    cosets: list[frozenset[Isometry]] = []
    reps: list[Isometry] = []
    for g in ordered:
        if g in ids:
            continue
        coset = frozenset(mul(g, jj) for jj in j.elements)
        cid = len(cosets)
        for el in coset:
            ids[el] = cid
        cosets.append(coset)
        reps.append(g)
    return CosetTable(ids, tuple(cosets), tuple(reps))


def member(sub: TorusGroup, g: Isometry) -> bool:
    """Is the exact isometry g in the subgroup, judged in the quotient?

    Exact for certified subgroups: with all modulus translations inside,
    image membership and true membership coincide."""
    return sub.reduce(g) in sub.elements
