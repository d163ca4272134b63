import pytest

from honeycomb434 import build_group, build_subgroup, certify_translations

# named generating word sets used across the suite
WORDS = {
    "full": ("P", "Q", "R", "S"),
    "half": ("Q", "R", "S", "PQP"),
    "literal-quarter": ("Q", "R", "S", "PQRQP"),
    "quarter": ("Q", "R", "S", "QPQRQPQRP"),
    "eighth": ("Q", "R", "S", "(SRQPQR)^2"),
}


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
