"""Independent brute-force reference implementation for the test suite.

Everything here is written against plain 3x3 integer matrices and exhaustive
enumeration, deliberately sharing no code with the package under test.  The
tests use it to recompute group orders, orbits, stabilizers, cosets and
color classes from scratch and compare.
"""

from itertools import permutations, product

# Generators as (matrix rows, translation).
GEN = {
    "P": (((1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, 0, 1)),
    "Q": (((0, 0, 1), (0, 1, 0), (1, 0, 0)), (0, 0, 0)),
    "R": (((0, 1, 0), (1, 0, 0), (0, 0, 1)), (0, 0, 0)),
    "S": (((1, 0, 0), (0, -1, 0), (0, 0, 1)), (0, 0, 0)),
}

IDENT = (((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))


def mat_vec(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def compose(a, b, n=None):
    """a after b, optionally with the translation reduced mod n."""
    m = mat_mul(a[0], b[0])
    t = tuple(x + y for x, y in zip(mat_vec(a[0], b[1]), a[1]))
    if n is not None:
        t = tuple(x % n for x in t)
    return (m, t)


def inverse(a, n=None):
    m, t = a
    minv = tuple(tuple(m[j][i] for j in range(3)) for i in range(3))  # orthogonal
    tinv = tuple(-x for x in mat_vec(minv, t))
    if n is not None:
        tinv = tuple(x % n for x in tinv)
    return (minv, tinv)


def act(g, v, n):
    return tuple(x % n for x in (c + d for c, d in zip(mat_vec(g[0], v), g[1])))


def eval_letters(letters, n=None):
    out = IDENT
    for ch in letters:
        out = compose(out, GEN[ch], n)
    return out


def signed_permutation_matrices():
    """All 48 signed permutation matrices, by direct enumeration."""
    mats = []
    for perm in permutations(range(3)):
        for signs in product((1, -1), repeat=3):
            rows = []
            for i in range(3):
                row = [0, 0, 0]
                row[perm[i]] = signs[i]
                rows.append(tuple(row))
            mats.append(tuple(rows))
    return mats


def full_group(n):
    """The whole torus group, enumerated directly (not by closure)."""
    return {
        (m, t)
        for m in signed_permutation_matrices()
        for t in product(range(n), repeat=3)
    }


def closure(gens, n):
    """Subgroup generated by the given elements, translations mod n."""
    gens = [(g[0], tuple(x % n for x in g[1])) for g in gens]
    start = (IDENT[0], (0, 0, 0))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = compose(a, g, n)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def vertices(n):
    return [v for v in product(range(n), repeat=3)]


def orbit(elements, v, n):
    return {act(g, v, n) for g in elements}


def all_orbits(elements, n):
    """Orbit partition, representatives in lexicographic discovery order."""
    left = set(vertices(n))
    out = []
    while left:
        rep = min(left)
        orb = orbit(elements, rep, n)
        out.append((rep, frozenset(orb)))
        left -= orb
    return out


def stabilizer(elements, v, n):
    return {g for g in elements if act(g, v, n) == v}


def left_cosets(h_elements, j_elements, n):
    """Partition of H into left cosets gJ, as a list of frozensets."""
    remaining = set(h_elements)
    cosets = []
    while remaining:
        g = next(iter(remaining))
        coset = frozenset(compose(g, j, n) for j in j_elements)
        cosets.append(coset)
        remaining -= coset
    return cosets


def color_classes(assignment):
    """Group vertices by color label: dict label -> frozenset of vertices."""
    classes = {}
    for v, label in assignment.items():
        classes.setdefault(label, set()).add(v)
    return {label: frozenset(vs) for label, vs in classes.items()}


def permutes_classes(g, classes, n):
    """Does g map every color class onto a single color class?"""
    class_of = {}
    for label, vs in classes.items():
        for v in vs:
            class_of[v] = label
    mapping = {}
    for label, vs in classes.items():
        images = {class_of[act(g, v, n)] for v in vs}
        if len(images) != 1:
            return None
        mapping[label] = images.pop()
    if sorted(mapping.values()) != sorted(classes):
        return None
    return mapping


def orbit_count(images):
    """The number of classes of colors under the relation c ~ d for every d
    in images[c], by union-find: the count of color orbits, for images[c]
    the colors that c is sent to."""
    roots = list(range(len(images)))

    def find(c):
        while roots[c] != c:
            roots[c] = roots[roots[c]]
            c = roots[c]
        return c

    for c, hit in enumerate(images):
        for d in set(hit):
            roots[find(d)] = find(c)
    return len({find(c) for c in range(len(roots))})
