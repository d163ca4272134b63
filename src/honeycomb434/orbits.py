"""Vertex orbits and stabilizers on the torus."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quotient import TorusGroup, _cell_minima, apply_linear, check_vertex, coords, flat, images, join

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
        return self.orbits[self.vertex_orbit[flat(np.array(check_vertex(v, n)), n)]]


def decompose(acting: TorusGroup) -> OrbitDecomposition:
    """Partition the torus vertices into orbits of the acting group.

    Works from the group's space-group form.  The orbit of a vertex v is
    the union of the lattice cosets of L v + t_L, one per linear part L,
    since the lattice is normal in the group.  So one array pass maps each
    coset's smallest vertex through every (L, t_L), and the least of the
    image cosets is the orbit's first coset; cosets are in the order of
    their smallest vertices, so ranking the cosets that are their own
    least numbers the orbits by their smallest vertex.  Computed once per
    group object and kept on it.
    """
    memo = acting._memo
    if "orbits" not in memo:
        memo["orbits"] = _orbit_decomposition(acting)
    return memo["orbits"]


def _orbit_decomposition(acting: TorusGroup) -> OrbitDecomposition:
    n = acting.modulus
    cells = acting._cells
    # each coset's smallest vertex, in cell order, under each (L, t_L)
    moved = images(join(acting.linear, acting.shifts, n), _cell_minima(acting.torus_lattice), n)
    least = cells[moved].min(axis=1)
    cell_orbit = np.cumsum(least == np.arange(len(least))) - 1
    ids = cell_orbit[least][cells]
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
    v = np.array(check_vertex(v, n), dtype=np.int64)
    linear = np.arange(48)
    candidates = join(linear, (v - apply_linear(linear, v, n)) % n, n)
    return candidates[acting.includes(candidates)]

