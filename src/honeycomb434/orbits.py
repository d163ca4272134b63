"""Vertex orbits and stabilizers on the torus."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quotient import TorusGroup, _cell_minima, apply_linear, check_vertex, flat, images, join

Vec = tuple[int, int, int]


class Orbit(NamedTuple):
    """One orbit of a decomposition: its id, its lexicographically
    smallest vertex and its size, the number of vertices it holds per
    period (in the N^3 torus vertices).  Its vertex set is where the
    decomposition's `vertex_orbit` equals `index`."""

    index: int
    representative: Vec
    size: int


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
    least numbers the orbits by their smallest vertex.  An orbit's
    representative is the smallest vertex of its first coset, and its size
    is its number of cosets times the vertices per coset, which every
    coset has alike.  Computed once per group object and kept on it.
    """
    memo = acting._memo
    if "orbits" not in memo:
        memo["orbits"] = _orbit_decomposition(acting)
    return memo["orbits"]


def _orbit_decomposition(acting: TorusGroup) -> OrbitDecomposition:
    n = acting.modulus
    cells = acting._cells
    # each coset's smallest vertex, in cell order, under each (L, t_L)
    minima = _cell_minima(acting.torus_lattice)
    least = cells[images(join(acting.linear, acting.shifts, n), minima, n)].min(axis=1)
    first = least == np.arange(len(least))
    cell_orbit = (np.cumsum(first) - 1)[least]
    ids = cell_orbit[cells]
    ids.setflags(write=False)
    sizes = np.bincount(cell_orbit) * (n**3 // len(least))
    orbits = tuple(
        Orbit(k, tuple(rep), size)
        for k, (rep, size) in enumerate(zip(minima[first].tolist(), sizes.tolist()))
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

