#!/usr/bin/env python3
"""Coset colorings of the torus vertices, perfect and otherwise.

A subgroup H of the symmetry group splits the vertices into orbits; picking
a subgroup J inside H (containing the stabilizer of an orbit representative)
colors that orbit by the left cosets of J.  This script builds the two
reference colorings, verifies the structural claims behind them, and
computes which symmetries survive as color permutations.
"""

from honeycomb434 import (
    GENERATORS,
    OrbitPlan,
    build_coloring,
    build_group,
    build_subgroup,
    certify_translations,
    color_group,
    decompose,
    stoichiometry,
    verify_theorem,
)
from honeycomb434.quotient import encode


def certified(group, words):
    return certify_translations(build_subgroup(group, words))


def describe(coloring) -> None:
    for label, count in stoichiometry(coloring).counts:
        extra = " (background)" if label in coloring.background_labels else ""
        print(f"    {label}: {count} vertices per period{extra}")


def main() -> None:
    group = build_group(2)
    full = certified(group, ("P", "Q", "R", "S"))
    half = certified(group, ("Q", "R", "S", "PQP"))
    quarter = certified(group, ("Q", "R", "S", "QPQRQPQRP"))
    eighth = certified(group, ("Q", "R", "S", "(SRQPQR)^2"))

    print("== a 2-coloring from the index-2 subgroup ==")
    two = build_coloring(full, [OrbitPlan(0, half, ("light-blue", "white"))])
    describe(two)
    # sigma(g)[c], the color that g sends color c to, for each generator g
    cg = color_group(two)
    for sym in "PQRS":
        code = encode(GENERATORS[sym], group.modulus)
        mapping = tuple(int(cg.image_colors(code, c)) for c in range(len(two.labels)))
        print(f"    {sym} permutes the colors as {mapping}")
    verdict = "perfect" if cg.subgroup.order == group.order else "not perfect"
    print(f"    color group order {cg.subgroup.order} of {group.order}: {verdict}")

    print()
    print("== a 3-coloring over the index-4 subgroup ==")
    orbits = decompose(quarter)
    for orbit in orbits.orbits:
        print(f"    orbit {orbit.index}: representative {orbit.representative}, "
              f"size {len(orbit.vertices)}")
    anchor = orbits.orbit_of((0, 0, 1)).index
    three = build_coloring(
        quarter,
        [OrbitPlan(anchor, eighth, ("dark-blue", "green"))],
        background="white",
    )
    describe(three)
    cg = color_group(three)
    p = encode(GENERATORS["P"], group.modulus)
    print(f"    P permutes the colors: {bool(cg.subgroup.includes(p))}")
    print(f"    color group order {cg.subgroup.order} "
          f"(equals the constructing subgroup: {cg.subgroup.elements == quarter.elements})")

    print()
    print("== structural verification, orbit of (0, 0, 1) ==")
    report = verify_theorem(quarter, eighth, (0, 0, 1), three)
    for part in report.parts:
        print(f"    part {part.part}: {'ok' if part.ok else 'FAIL'} ({part.detail})")

    print()
    print("== a 4-coloring with three planned orbits ==")
    four = build_coloring(
        eighth,
        [
            OrbitPlan(0, eighth, ("black",)),
            OrbitPlan(2, eighth, ("brown",)),
            OrbitPlan(3, eighth, ("yellow",)),
        ],
        background="white",
    )
    describe(four)
    st = stoichiometry(four)
    print(f"    ratio of occupied colors {':'.join(st.ratio_labels)} = {st.ratio_text}")


if __name__ == "__main__":
    main()
