import functools
import random

import pytest

from honeycomb434 import build_group, build_subgroup, certify_translations
from honeycomb434.coloring import color_group
from honeycomb434.crystal import PRESET_NAMES, preset
from honeycomb434.quotient import encode

# named generating word sets used across the suite
WORDS = {
    "full": ("P", "Q", "R", "S"),
    "half": ("Q", "R", "S", "PQP"),
    "literal-quarter": ("Q", "R", "S", "PQRQP"),
    "quarter": ("Q", "R", "S", "QPQRQPQRP"),
    "eighth": ("Q", "R", "S", "(SRQPQR)^2"),
}


# word sets whose translation lattice has rank below 3 (the finite
# <Q, R, S> and <P> have none), so that N Z^3 is most of the lattice mod
# N; P's shift (0, 0, 1) lies outside its lattice
LOW_RANK_WORDS = {
    "<Q,R,S>": ("Q", "R", "S"),
    "<P>": ("P",),
    "rank 1": ("SRQPQR",),
    "rank 2": ("P", "QRSRQ", "QPQ", "RSR"),
}


@functools.cache
def form_groups(modulus):
    """Groups built each of the ways the package builds one, by name: the
    full group, the certified WORDS subgroups, the LOW_RANK_WORDS subgroups
    and the color groups of the presets."""
    full = build_group(modulus)
    groups = {"the full group": full}
    groups.update({name: certify_translations(build_subgroup(full, w)) for name, w in WORDS.items()})
    groups.update({name: build_subgroup(full, w) for name, w in LOW_RANK_WORDS.items()})
    for name in PRESET_NAMES:
        groups[f"color group of {name}"] = color_group(preset(name, modulus).coloring).subgroup
    return groups


def oversized_witness_words() -> list[str]:
    """Three random 10,000-letter words whose translation lattice holds
    (16, 0, 0), (0, 16, 0) and (0, 0, 16), but whose first witness would
    spell about 3.3e22 letters: far past any memory, so only a count made
    before building the words can refuse it."""
    rng = random.Random(12)
    return ["".join(rng.choice("PQRS") for _ in range(10_000)) for _ in range(3)]


def sigma_of(cg, g):
    """sigma(g) of a color group result as a tuple of color ids, read off
    `image_colors`, or None when the color group lacks the isometry g."""
    n = cg.subgroup.modulus
    code = encode(g, n)
    if not cg.subgroup.includes(code):
        return None
    return tuple(int(cg.image_colors(code, c)) for c in range(len(cg.class_vertices)))


@pytest.fixture(scope="session")
def group2():
    return build_group(2)


@pytest.fixture(scope="session")
def group4():
    return build_group(4)


@pytest.fixture(scope="session")
def subs2(group2):
    return {
        name: certify_translations(build_subgroup(group2, words))
        for name, words in WORDS.items()
    }


@pytest.fixture(scope="session")
def subs4(group4):
    return {
        name: certify_translations(build_subgroup(group4, words))
        for name, words in WORDS.items()
    }
