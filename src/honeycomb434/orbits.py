"""Vertex orbits, transporter witnesses and stabilizers on the torus."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .isometry import IDENTITY, Isometry
from .quotient import SubgroupError, TorusGroup, apply_linear, decode, join

Vec = tuple[int, int, int]


class Orbit(NamedTuple):
    index: int
    representative: Vec
    vertices: tuple[Vec, ...]  # sorted lexicographically
    # for each vertex, an element of the acting group sending the
    # representative to it; witness[representative] is the identity
    witness: dict[Vec, Isometry]


class OrbitDecomposition(NamedTuple):
    group: TorusGroup
    orbits: tuple[Orbit, ...]
    vertex_orbit: dict[Vec, int]

    def orbit_of(self, v: Vec) -> Orbit:
        return self.orbits[self.vertex_orbit[tuple(v)]]


class Stabilizer(NamedTuple):
    vertex: Vec
    elements: frozenset[Isometry]

    @property
    def order(self) -> int:
        return len(self.elements)


def decompose(acting: TorusGroup) -> OrbitDecomposition:
    """Partition the torus vertices into orbits of the acting group.

    Vertices are scanned in lexicographic order and each orbit is grown by
    breadth-first application of the generator elements only, so the
    representative is the lexicographically smallest vertex of its orbit,
    discovery order is deterministic, and witnesses stay short.  Computed
    once per group object and kept on it.
    """
    memo = acting._memo
    if "orbits" not in memo:
        memo["orbits"] = _orbit_decomposition(acting)
    return memo["orbits"]


def _orbit_decomposition(acting: TorusGroup) -> OrbitDecomposition:
    gens = acting.generator_elements
    orbits: list[Orbit] = []
    vertex_orbit: dict[Vec, int] = {}
    for start in acting.vertices():
        if start in vertex_orbit:
            continue
        idx = len(orbits)
        witness: dict[Vec, Isometry] = {start: IDENTITY}
        vertex_orbit[start] = idx
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for g in gens:
                    w = acting.act(g, v)
                    if w not in witness:
                        witness[w] = acting.mul(g, witness[v])
                        vertex_orbit[w] = idx
                        nxt.append(w)
            frontier = nxt
        orbits.append(Orbit(idx, start, tuple(sorted(witness)), witness))
    return OrbitDecomposition(acting, tuple(orbits), vertex_orbit)


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
