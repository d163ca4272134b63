"""Independent brute-force reference implementation for the test suite.

Everything here is written against plain 3x3 integer matrices and exhaustive
enumeration, deliberately sharing no code with the package under test.  The
tests use it to recompute group orders, orbits, stabilizers, cosets, color
classes and the coset-coloring theorem's reports from scratch and compare.
The exceptions are the two code walks, which use the package's code layer
(`apply_linear`, `multiply`, ...) on a `TorusGroup`'s sorted codes, and
`eager_codes`, which lists a group's codes from its space-group form as
the group's constructor once did on every group, and stays as the
reference for `TorusGroup.codes`, which enumerates them on first use.
`full_pass_part1` is the theorem's part 1 as a pass over all of H, which
`verify_theorem` once made, and stays as the reference for its check on
H's generator codes at moduli where `theorem_report` is slow.
`code_walk_decomposition` walks the vertices, and `code_walk_cosets` H's
codes, in order; each one not yet labelled labels its whole orbit, or
coset, by one array pass.  They were the package's own orbit and coset
walks, and stay as fast second references for `orbits.decompose` and
`quotient.left_cosets`, which read the same results off the groups'
space-group forms, at moduli where the exhaustive walks are slow.
"""

import functools
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
    return tuple(r[0] * v[0] + r[1] * v[1] + r[2] * v[2] for r in m)


def mat_mul(a, b):
    (b0, b1, b2) = b
    return tuple(
        tuple(r[0] * b0[j] + r[1] * b1[j] + r[2] * b2[j] for j in range(3))
        for r in a
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


def order(g):
    """The order of g in the infinite group, or None when it is infinite.
    A linear part has order at most 6, so the first power of g with the
    identity matrix decides: it is a pure translation, and g has finite
    order exactly when that translation is zero."""
    power = g
    for k in range(1, 49):
        if power[0] == IDENT[0]:
            return k if power[1] == (0, 0, 0) else None
        power = compose(power, g)
    raise AssertionError("a linear part of order above 48")


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


def canonical_key(g):
    """The package's canonical element order: the linear part's matrix
    entries row by row, then the translation reduced mod N."""
    return (sum(g[0], ()), g[1])


def isometry_text(g):
    """g written as the package prints an Isometry."""
    m, t = g
    perm = tuple(next(j for j in range(3) if row[j]) for row in m)
    signs = tuple(row[p] for row, p in zip(m, perm))
    return f"Isometry(perm={perm}, signs={signs}, trans={t})"


@functools.cache
def coset_action(h_elements, j_elements, n):
    """H in canonical order, the representatives of the cosets of J in H in
    the package's order (J's own coset first, the rest by their smallest
    elements), and for each element g of H the coset of g rep_p for each
    coset p in that order.  Kept per (H, J), which the theorem's part 1
    reads for every vertex and coloring."""
    h = sorted(h_elements, key=canonical_key)
    identity = (IDENT[0], (0, 0, 0))
    cosets = sorted(
        left_cosets(h, j_elements, n),
        key=lambda c: (identity not in c, min(map(canonical_key, c))),
    )
    reps = [min(c, key=canonical_key) for c in cosets]
    coset_of = {g: p for p, c in enumerate(cosets) for g in c}
    moved = [[coset_of[compose(g, r, n)] for r in reps] for g in h]
    return h, reps, moved


def theorem_report(h_elements, j_elements, x, color, sigma, n):
    """The five parts of the coset-coloring theorem on the orbit of x, by
    exhaustive walks, as (ok, detail) pairs worded as the package words
    them.  The groups are frozensets; `color` maps each vertex to its color
    id, and `sigma` maps each element of H to its permutation of the colors
    (`permutes_classes`), or to None where it has none.

    Part 1 walks H in canonical order, and for each element the cosets of
    J in order: the counterexample is the first element without a
    permutation, or whose permutation disagrees with left multiplication
    at some coset."""
    h, reps, moved = coset_action(h_elements, j_elements, n)
    coset_color = [color[act(r, x, n)] for r in reps]
    k = len(reps)

    part1 = (True, f"checked {len(h)} elements on {k} cosets")
    for g, row in zip(h, moved):
        if sigma[g] is None:
            part1 = (False, f"element {isometry_text(g)} does not permute the colors")
            break
        wrong = [(p, q) for p, q in enumerate(row) if sigma[g][coset_color[p]] != coset_color[q]]
        if wrong:
            (p, q), c = wrong[0], coset_color[wrong[0][0]]
            part1 = (False, f"element {isometry_text(g)} sends coset {p} to {q} but color {c} to {sigma[g][c]}")
            break

    image = {g: act(g, x, n) for g in h}
    orb = set(image.values())
    stab = {g for g in h if image[g] == x}
    on_orbit = len({color[v] for v in orb})
    part2 = (on_orbit == k, f"{on_orbit} colors vs index {k}")

    if any(sigma[g] is None for g in h):
        part3 = (False, "sigma undefined for some element of H")
    else:
        images = [[sigma[g][c] for g in h] for c in range(len(set(color.values())))]
        count, vertex_orbits = orbit_count(images), len(all_orbits(h, n))
        part3 = (count <= vertex_orbits, f"{count} color orbits vs {vertex_orbits} vertex orbits")

    loose = sorted(stab - j_elements, key=canonical_key)
    part4a = (not loose, f"offending element {isometry_text(loose[0])}" if loose else "contained")

    per_coset = len(j_elements) // len(stab & j_elements)
    rhs = k * per_coset
    part4b = (len(orb) == rhs, f"{len(orb)} = {k}*{per_coset}" if len(orb) == rhs else f"{len(orb)} != {rhs}")
    return [part1, part2, part3, part4a, part4b]


def code_walk_decomposition(acting):
    """The orbits of a package `TorusGroup` by a walk over the vertices in
    flat order: each one not yet labelled starts an orbit, which one pass
    over all of the group's codes labels whole.  Returns an
    `orbits.OrbitDecomposition`."""
    import numpy as np

    from honeycomb434.orbits import Orbit, OrbitDecomposition
    from honeycomb434.quotient import apply_linear, coords, flat, split

    n = acting.modulus
    linear, t = split(acting.codes, n)
    ids = np.full(n**3, -1, dtype=np.int64)
    reps = []
    for pos in range(n**3):
        if ids[pos] < 0:
            ids[flat((apply_linear(linear, coords(pos, n), n) + t) % n, n)] = len(reps)
            reps.append(tuple(coords(pos, n).tolist()))
    orbits = tuple(Orbit(k, rep, size) for k, (rep, size) in enumerate(zip(reps, np.bincount(ids).tolist())))
    return OrbitDecomposition(acting, orbits, ids)


def code_walk_cosets(h, j):
    """The left cosets of J in H, package `TorusGroup`s, by a walk over H's
    sorted codes: each one g not yet labelled is the smallest of its coset
    g J, whose codes `multiply` gives and a sorted search finds in H.
    Returns (coset id of each of H's codes, the representative codes), as
    `quotient.left_cosets` numbers them."""
    import numpy as np

    from honeycomb434.quotient import multiply

    n = h.modulus
    ids = np.full(h.order, -1, dtype=np.int64)
    firsts = []
    for pos in range(h.order):
        if ids[pos] < 0:
            ids[np.searchsorted(h.codes, multiply(h.codes[pos], j.codes, n))] = len(firsts)
            firsts.append(pos)
    return ids, h.codes[firsts]


def full_pass_part1(h, j, x, coloring):
    """Part 1's verdict on package objects as `verify_theorem` once decided
    it, by one pass over all of H: sigma is defined on H (H lies within
    the color group), and every g in H sends x into the color of its coset
    gJ, the color of that coset's representative's image of x, read
    through `left_cosets(h, j).coset_ids`."""
    from honeycomb434.coloring import color_group
    from honeycomb434.quotient import images, left_cosets

    n = h.modulus
    if not h.within(color_group(coloring).subgroup):
        return False
    table = left_cosets(h, j)
    a = coloring.assignment.reshape(-1)
    coset_color = a[images(table.representative_codes, x, n)]
    return bool((a[images(h.codes, x, n)] == coset_color[table.coset_ids]).all())


def eager_codes(group):
    """The sorted codes of a package `TorusGroup`, enumerated from its
    space-group form (linear parts, shifts and lattice basis) as its
    constructor once did eagerly: the translations of part L are the
    lattice coset of t_L, and the vertices of each coset, grouped by one
    stable sort of their cells, are already in flat order."""
    import numpy as np

    from honeycomb434.quotient import _vertex_cells, flat

    n = group.modulus
    basis = group.torus_lattice
    cells = _vertex_cells(basis, n)
    members = np.argsort(cells, kind="stable").reshape(basis[0][0] * basis[1][1] * basis[2][2], -1)
    return (group.linear[:, None] * n**3 + members[cells[flat(group.shifts, n)]]).reshape(-1)
