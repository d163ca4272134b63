"""Vertex orbits and stabilizers on the torus."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .isometry import Isometry
from .quotient import (SubgroupError, TorusGroup, _partition, apply_linear, coords, decode, flat, join,
                       split)

Vec = tuple[int, int, int]


class Orbit(NamedTuple):
    index: int
    representative: Vec
    vertices: tuple[Vec, ...]  # sorted lexicographically


@dataclass(frozen=True, eq=False)
class OrbitDecomposition:
    """The orbits of a group on the torus vertices, numbered by their
    representatives, the lexicographically smallest vertex of each.

    `vertex_orbit[i]` is the orbit id of the vertex with flat index i (see
    `quotient.flat`), as a read-only array.  Equality is identity:
    `decompose` keeps one decomposition per group object."""

    group: TorusGroup
    orbits: tuple[Orbit, ...]
    vertex_orbit: np.ndarray

    def orbit_of(self, v) -> Orbit:
        n = self.group.modulus
        return self.orbits[self.vertex_orbit[flat(np.asarray(v) % n, n)]]


class Stabilizer(NamedTuple):
    vertex: Vec
    elements: frozenset[Isometry]

    @property
    def order(self) -> int:
        return len(self.elements)


def decompose(acting: TorusGroup) -> OrbitDecomposition:
    """Partition the torus vertices into orbits of the acting group.

    Walks the vertices in lexicographic order; each vertex not yet labelled
    is the smallest of its orbit, which one array pass over the group's
    element codes labels whole.  Computed once per group object and kept
    on it.
    """
    memo = acting._memo
    if "orbits" not in memo:
        memo["orbits"] = _orbit_decomposition(acting)
    return memo["orbits"]


def _orbit_decomposition(acting: TorusGroup) -> OrbitDecomposition:
    n = acting.modulus
    linear, t = split(acting.codes, n)
    ids, _ = _partition(n**3, lambda pos: flat((apply_linear(linear, coords(pos, n), n) + t) % n, n))
    ids.setflags(write=False)
    # vertices grouped by orbit, each group in flat (lexicographic) order
    grouped = list(map(tuple, coords(np.argsort(ids, kind="stable"), n).tolist()))
    ends = np.cumsum(np.bincount(ids)).tolist()
    orbits = tuple(
        Orbit(k, grouped[start], tuple(grouped[start:end]))
        for k, (start, end) in enumerate(zip([0] + ends, ends))
    )
    return OrbitDecomposition(acting, orbits, ids)


def stabilizer_codes(acting: TorusGroup, v) -> np.ndarray:
    """Sorted codes of the elements of the acting group fixing v.

    (L, t) fixes v exactly when t = v - L v mod N, so each of the 48 linear
    parts has one candidate, and a membership lookup decides it."""
    n = acting.modulus
    v = np.asarray(v, dtype=np.int64) % n
    linear = np.arange(48)
    candidates = join(linear, (v - apply_linear(linear, v, n)) % n, n)
    return candidates[acting.includes(candidates)]


def stabilizer(acting: TorusGroup, v) -> Stabilizer:
    """All elements of the acting group fixing the vertex on the torus."""
    v = tuple(c % acting.modulus for c in v)
    return Stabilizer(v, frozenset(decode(stabilizer_codes(acting, v), acting.modulus)))


def stabilizer_contained(acting: TorusGroup, v, j: TorusGroup) -> bool:
    """Does J contain the full stabilizer of v in the acting group?

    This is the admissibility condition for coloring the orbit of v by the
    left cosets of J."""
    if not j.within(acting):
        raise SubgroupError("J is not contained in the acting group")
    return bool(j.includes(stabilizer_codes(acting, v)).all())
