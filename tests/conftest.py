import random

import pytest

from honeycomb434 import build_group, build_subgroup, certify_translations
from honeycomb434.quotient import encode

# named generating word sets used across the suite
WORDS = {
    "full": ("P", "Q", "R", "S"),
    "half": ("Q", "R", "S", "PQP"),
    "literal-quarter": ("Q", "R", "S", "PQRQP"),
    "quarter": ("Q", "R", "S", "QPQRQPQRP"),
    "eighth": ("Q", "R", "S", "(SRQPQR)^2"),
}


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
