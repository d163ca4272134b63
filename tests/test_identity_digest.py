import identity_digest

# the N = 2 digests printed by tests/identity_digest.py: the preset exports,
# the theorem sweep and the witness words at N = 2
DIGESTS_AT_2 = {
    "exports": "543482ccc3b391d8860a8d90017d08cc141060a2e29a6a8935ebacacc51b927c",
    "sweep": "d4c30444530eb04557b609af5b4ad1974c37a7ec981cb33eb1841b23753efde1",
    "witnesses": "a4cce2d7402d88a4f9fd0c1ea95764203c7e855425547edc90c5904e00db5e8d",
}


def test_the_identity_digests_at_n2_repeat_and_are_pinned():
    # a second run in the same process, after every memo of the first,
    # hashes the same bytes
    first = identity_digest.digests((2,), (2,), (2,))
    second = identity_digest.digests((2,), (2,), (2,))
    assert first == second
    assert first == DIGESTS_AT_2
