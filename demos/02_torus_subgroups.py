#!/usr/bin/env python3
"""Finite quotients, subgroups from words, and translation certificates.

Reducing coordinates mod an even N turns the infinite symmetry group into
a finite one of order 48*N^3.  A subgroup given by generator words only
represents its infinite counterpart faithfully if it contains the three
axis translations by N.  Certification decides that exactly from the
subgroup's translation lattice, and proves a "yes" with explicit witness
words.
"""

import numpy as np

from honeycomb434 import (
    CertificationError,
    build_group,
    build_subgroup,
    certify_translations,
    index,
    left_cosets,
)
from honeycomb434.quotient import decode

NAMED = {
    "full group": ("P", "Q", "R", "S"),
    "index 2": ("Q", "R", "S", "PQP"),
    "index 4": ("Q", "R", "S", "QPQRQPQRP"),
    "index 8": ("Q", "R", "S", "(SRQPQR)^2"),
}


def main() -> None:
    for n in (2, 4):
        group = build_group(n)
        print(f"== modulus {n}: full group order {group.order} ==")
        for name, words in NAMED.items():
            sub = certify_translations(build_subgroup(group, words))
            print(
                f"  {name:10s} <{','.join(words)}>: "
                f"order {sub.order}, index {index(group, sub)}"
            )
        print()

    group = build_group(2)
    sub = certify_translations(build_subgroup(group, NAMED["index 8"]))
    print("== witness words for the index-8 subgroup, modulus 2 ==")
    for witness in sub.translation_certificate:
        word = "".join(witness.word)
        shown = word if len(word) <= 60 else f"{word[:57]}... ({len(word)} letters)"
        print(f"  translation {witness.target}: {shown}")

    print()
    print("== cosets of the index-8 subgroup ==")
    table = left_cosets(group, sub)
    sizes = np.bincount(table.coset_ids)
    for i, rep in enumerate(decode(table.representative_codes, group.modulus)):
        print(f"  coset {i}: size {sizes[i]}, smallest element {rep}")

    print()
    print("== when certification cannot succeed ==")
    for words, why in (
        (("Q", "R"), "a finite group: no translations at all"),
        (("P", "QRSRQ", "QPQ", "RSR"), "its translations span only a plane"),
    ):
        sub = build_subgroup(group, words)
        print(f"  <{','.join(words)}>, {why}; lattice basis {sub.translation_lattice}")
        try:
            certify_translations(sub)
        except CertificationError as exc:
            print(f"    {exc}")


if __name__ == "__main__":
    main()
