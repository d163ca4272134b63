"""Coset colorings of the torus vertices and their symmetry analysis.

A coloring is built from a subgroup H acting on the vertices plus, for each
H-orbit to be colored, a subgroup J <= H containing the stabilizer of the
orbit representative x.  The left cosets hJ then partition the orbit into
[H:J] classes of equal size; each class gets one color, with Jx itself
wearing the first listed label.  Orbits without a plan may share a single
background color, and labels may be merged across orbits when the merged
plans use the same J at the same coset position.

The induced map sigma(h), sending the color of a class to the color of its
h-image, is a permutation of the colors for every h in H; `color_group`
finds all elements of the full torus group with that property, which is the
whole group exactly when the coloring is perfect.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .isometry import Isometry
from .orbits import decompose, stabilizer_codes
from .quotient import (
    MAX_MODULUS,
    CosetTable,
    TorusGroup,
    _lattice_mod_n,
    _space_group_codes,
    apply_linear,
    check_modulus,
    coords,
    decode,
    encode,
    flat,
    identity_code,
    images,
    index,
    left_cosets,
    multiply,
)

Vec = tuple[int, int, int]

# the runs between the line breaks of str.splitlines: a coloring file's lines
_LINE = re.compile(r"[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]+")


class PlanError(ValueError):
    """A coloring plan violates one of the construction's preconditions."""


class ColorInfo(NamedTuple):
    label: str
    element: str | None = None
    background: bool = False


class OrbitPlan(NamedTuple):
    """Color one orbit (by its index in the decomposition of H) with the
    left cosets of `subgroup`, one label per coset."""

    orbit: int
    subgroup: TorusGroup
    labels: tuple[str, ...]


class ColoringRecipe(NamedTuple):
    """Provenance of a built coloring; enough to rebuild or audit it."""

    group: TorusGroup
    plans: tuple[OrbitPlan, ...]
    merges: tuple[tuple[str, str], ...]
    background: str | None


class ColorPermutation(NamedTuple):
    element: Isometry
    mapping: tuple[int, ...]  # mapping[c] = color id of the image class


class SigmaTable(Mapping):
    """sigma(g) for every g of a color group: the permutation of the colors
    that g induces, mapping[c] = color id of the image of class c.

    A read-only mapping from `Isometry` to tuple.  It stores the color
    group's codes and one vertex per color class, and reads each mapping
    off the image of those vertices when asked, so it holds no entry per
    element."""

    def __init__(self, group: TorusGroup, assignment: np.ndarray, class_vertices: np.ndarray):
        self._group = group
        self._assignment = assignment
        self._class_vertices = class_vertices

    def image_colors(self, codes: np.ndarray, color: int) -> np.ndarray:
        """sigma(g)[color] for each code g; meaningful where g is a key."""
        n = self._group.modulus
        return self._assignment[images(codes, coords(self._class_vertices[color], n), n)]

    def __getitem__(self, g) -> tuple[int, ...]:
        if not isinstance(g, Isometry):
            raise KeyError(g)
        n = self._group.modulus
        code = encode(g, n)
        if not self._group.includes(code):
            raise KeyError(g)
        return tuple(self._assignment[images(code, coords(self._class_vertices, n), n)].tolist())

    def __iter__(self) -> Iterator[Isometry]:
        return iter(decode(self._group.codes, self._group.modulus))

    def __len__(self) -> int:
        return self._group.order


class ColorGroupResult(NamedTuple):
    """All elements that permute the color classes, with their sigma table.

    `subgroup` carries no generating words; it is derived element-wise."""

    subgroup: TorusGroup
    sigma: SigmaTable


@dataclass(frozen=True, eq=False)
class VertexColoring:
    """A total, onto assignment of color ids to the N^3 torus vertices."""

    modulus: int
    color_table: tuple[ColorInfo, ...]
    assignment: np.ndarray  # shape (N, N, N), entry = color id
    recipe: ColoringRecipe | None = None

    def __eq__(self, other):
        if not isinstance(other, VertexColoring):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.color_table == other.color_table
            and self.assignment.tobytes() == other.assignment.tobytes()
        )

    __hash__ = None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(info.label for info in self.color_table)

    @property
    def background_labels(self) -> frozenset[str]:
        return frozenset(i.label for i in self.color_table if i.background)

    def color_id(self, v) -> int:
        n = self.modulus
        x, y, z = (c % n for c in v)
        return int(self.assignment[x, y, z])

    def label_of(self, v) -> str:
        return self.color_table[self.color_id(v)].label

    def vertices(self) -> tuple[Vec, ...]:
        n = self.modulus
        return tuple((x, y, z) for x in range(n) for y in range(n) for z in range(n))

    def classes(self) -> dict[str, tuple[Vec, ...]]:
        out: list[list[Vec]] = [[] for _ in self.color_table]
        for v, cid in zip(self.vertices(), self.assignment.ravel().tolist()):
            out[cid].append(v)
        return {info.label: tuple(vs) for info, vs in zip(self.color_table, out)}

    def counts(self) -> dict[str, int]:
        flat = self.assignment.ravel()
        return {
            info.label: int((flat == cid).sum())
            for cid, info in enumerate(self.color_table)
        }

    @cached_property
    def _color_group(self) -> ColorGroupResult:
        from .quotient import build_group

        group = self.recipe.group.parent if self.recipe is not None else build_group(self.modulus)
        return _color_group_of(self, group)

    def with_elements(self, elements: Mapping[str, str]) -> "VertexColoring":
        """Copy with element symbols attached to the given labels."""
        unknown = set(elements) - set(self.labels)
        if unknown:
            raise KeyError(f"unknown color labels: {sorted(unknown)}")
        table = tuple(
            ColorInfo(i.label, elements.get(i.label, i.element), i.background)
            for i in self.color_table
        )
        copy = VertexColoring(self.modulus, table, self.assignment, self.recipe)
        # sigma depends only on the assignment and the full group
        if "_color_group" in self.__dict__:
            copy.__dict__["_color_group"] = self._color_group
        return copy

    def to_text(self) -> str:
        """Serialize: header, color table block, one line per vertex."""
        lines = [f"modulus {self.modulus}"]
        for info in self.color_table:
            parts = ["color", info.label]
            if info.element is not None:
                parts += ["element", info.element]
            if info.background:
                parts.append("background")
            lines.append(" ".join(parts))
        labels = self.labels
        for (x, y, z), cid in zip(self.vertices(), self.assignment.ravel().tolist()):
            lines.append(f"{x} {y} {z} {labels[cid]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "VertexColoring":
        # read one line at a time, so a text longer than N^3 vertex lines is
        # refused at the first line past them, without splitting the rest
        lines = (m[0] for m in _LINE.finditer(text) if not m[0].isspace())
        header = next(lines, "").split()
        if len(header) != 2 or header[0] != "modulus":
            raise ValueError("expected a 'modulus N' header line")
        # refused unread: no modulus up to the limit needs this many digits
        if len(header[1]) > 20:
            raise ValueError(f"modulus is {len(header[1])} characters long; the limit is {MAX_MODULUS}")
        n = int(header[1])
        check_modulus(n)
        # an onto coloring of the N^3 vertices uses at most N^3 colors
        table: list[ColorInfo] = []
        ids: dict[str, int] = {}
        ln = next(lines, None)
        while ln is not None and ln.startswith("color "):
            if len(table) == n**3:
                raise ValueError(f"more than {n**3} colors for {n**3} vertices: some color is unused")
            parts = ln.split()
            if len(parts) < 2:
                raise ValueError(f"bad color line: {ln!r}")
            label = parts[1]
            element = None
            background = False
            rest = parts[2:]
            while rest:
                if rest[0] == "element" and len(rest) >= 2:
                    element = rest[1]
                    rest = rest[2:]
                elif rest[0] == "background":
                    background = True
                    rest = rest[1:]
                else:
                    raise ValueError(f"bad color line: {ln!r}")
            if label in ids:
                raise ValueError(f"color {label!r} is declared twice")
            ids[label] = len(table)
            table.append(ColorInfo(label, element, background))
            ln = next(lines, None)
        # check_modulus caps the array at 4,096 cells
        assignment = np.full((n, n, n), -1, dtype=np.int16)
        count = 0
        while ln is not None:
            if count == n**3:
                raise ValueError(
                    f"more than {n**3} vertex lines for {n**3} vertices: some vertex is listed twice"
                )
            parts = ln.split()
            if len(parts) != 4:
                raise ValueError(f"bad vertex line: {ln!r}")
            if parts[3] not in ids:
                raise ValueError(f"undeclared color {parts[3]!r}")
            v = tuple(int(p) % n for p in parts[:3])
            if assignment[v] >= 0:
                raise ValueError(f"vertex {v} is listed twice")
            assignment[v] = ids[parts[3]]
            count += 1
            ln = next(lines, None)
        # with N^3 lines and no vertex listed twice, every vertex has one
        if count < n**3:
            raise ValueError(f"coloring is not total: {count} vertex lines for {n**3} vertices")
        if not np.bincount(assignment.ravel(), minlength=len(table)).all():
            raise ValueError("coloring is not onto: some declared color is unused")
        return cls(n, tuple(table), assignment)


def _ordered_cosets(h: TorusGroup, j: TorusGroup) -> CosetTable:
    """Left cosets of J in H with J itself first, the rest in canonical order.

    Ids are positions in that ordering, and `representatives` stay each
    coset's smallest element.  Jx must get the first label, which pins J's
    own position; the canonical order of the remaining cosets keeps ids
    deterministic.
    """
    table = left_cosets(h, j)
    k = len(table.representative_codes)
    first = int(table.coset_ids[h.locate(identity_code(h.modulus))])
    order = np.array([first] + [c for c in range(k) if c != first], dtype=np.int64)
    rank = np.empty(k, dtype=np.int64)
    rank[order] = np.arange(k)
    return CosetTable(h, rank[table.coset_ids], table.representative_codes[order])


def _outside(codes: np.ndarray, j: TorusGroup) -> Isometry | None:
    """The smallest of the given sorted codes that J lacks, decoded."""
    loose = codes[~j.includes(codes)]
    return decode(loose[0], j.modulus)[0] if len(loose) else None


def build_coloring(
    h: TorusGroup,
    plans: Iterable[OrbitPlan],
    merges: Iterable[tuple[str, str]] = (),
    background: str | None = None,
) -> VertexColoring:
    """Color the torus by the orbit/coset scheme.

    Every planned orbit is partitioned into the left-coset images of its
    representative and labeled in coset order (J's own class first); all
    unplanned orbits share the `background` label, which is flagged as
    background in the color table.  A label may appear more than once only
    if the duplication is declared in `merges`; merged labels must come
    from plans over the same subgroup at the same coset position, which
    keeps every element of H acting on the merged classes consistently.
    """
    n = h.modulus
    decomp = decompose(h)
    plans = tuple(plans)
    merges = tuple((a, b) for a, b in merges)

    by_orbit: dict[int, OrbitPlan] = {}
    for plan in plans:
        if not 0 <= plan.orbit < len(decomp.orbits):
            raise PlanError(
                f"orbit index {plan.orbit} out of range; H has {len(decomp.orbits)} orbits"
            )
        if plan.orbit in by_orbit:
            raise PlanError(f"orbit {plan.orbit} has two plans")
        by_orbit[plan.orbit] = plan
    unplanned = [o.index for o in decomp.orbits if o.index not in by_orbit]
    if unplanned and background is None:
        raise PlanError(f"orbits {unplanned} are unplanned and no background label was given")
    if background is not None and not unplanned:
        raise PlanError("background label given but every orbit has a plan")

    for plan in plans:
        if not plan.subgroup.within(h):
            raise PlanError(f"plan for orbit {plan.orbit}: subgroup is not contained in H")
        rep = decomp.orbits[plan.orbit].representative
        loose = _outside(stabilizer_codes(h, rep), plan.subgroup)
        if loose is not None:
            raise PlanError(
                f"plan for orbit {plan.orbit}: stabilizer of {rep} is not inside the "
                f"subgroup; offending element {loose}"
            )
        k = index(h, plan.subgroup)
        if len(plan.labels) != k:
            raise PlanError(
                f"plan for orbit {plan.orbit}: {k} cosets but {len(plan.labels)} labels"
            )
        if background is not None and background in plan.labels:
            raise PlanError(f"background label {background!r} also appears in a plan")

    # Union-find over labels for the declared merges.
    parent: dict[str, str] = {}

    def find(a: str) -> str:
        while parent.get(a, a) != a:
            parent[a] = parent.get(parent[a], parent[a])
            a = parent[a]
        return a

    occurrences: list[tuple[str, int | None, int]] = [
        (label, pi, pos)
        for pi, plan in enumerate(plans)
        for pos, label in enumerate(plan.labels)
    ]
    if background is not None:
        occurrences.append((background, None, 0))
    known = {label for label, _, _ in occurrences}
    for a, b in merges:
        if a not in known or b not in known:
            raise PlanError(f"merge ({a!r}, {b!r}) names a label no plan uses")
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    merged_ok = {(a, b) for a, b in merges} | {(b, a) for a, b in merges}
    groups: dict[str, list[tuple[str, int | None, int]]] = {}
    for occ in occurrences:
        groups.setdefault(find(occ[0]), []).append(occ)
    for root, occs in groups.items():
        if len(occs) == 1:
            continue
        for i in range(len(occs)):
            for jx in range(i + 1, len(occs)):
                la, pa, qa = occs[i]
                lb, pb, qb = occs[jx]
                if (la, lb) not in merged_ok:
                    raise PlanError(
                        f"label {la!r} is reused without a merge declaration"
                        if la == lb
                        else f"labels {la!r} and {lb!r} collide without a merge declaration"
                    )
                if pa == pb:
                    raise PlanError(f"cannot merge two colors of the same orbit plan ({la!r})")
                ja = h if pa is None else plans[pa].subgroup
                jb = h if pb is None else plans[pb].subgroup
                if not np.array_equal(ja.codes, jb.codes):
                    raise PlanError(
                        f"merge of {la!r} and {lb!r}: the plans use different subgroups"
                    )
                if qa != qb:
                    raise PlanError(
                        f"merge of {la!r} and {lb!r}: labels sit at different coset positions"
                    )

    # Color table in first-occurrence order of merge roots.
    table_ids: dict[str, int] = {}
    order: list[str] = []
    occ_color: dict[tuple[int | None, int], int] = {}
    for label, pi, pos in occurrences:
        root = find(label)
        if root not in table_ids:
            table_ids[root] = len(order)
            order.append(root)
        occ_color[(pi, pos)] = table_ids[root]

    flagged = None if background is None else find(background)
    table = tuple(ColorInfo(label, None, label == flagged) for label in order)

    assignment = np.full((n, n, n), -1, dtype=np.int16)
    painted = assignment.reshape(-1)
    for pi, plan in enumerate(plans):
        rep = decomp.orbits[plan.orbit].representative
        cosets = _ordered_cosets(h, plan.subgroup)
        colors = np.array(
            [occ_color[(pi, pos)] for pos in range(len(cosets.representative_codes))],
            dtype=np.int16,
        )[cosets.coset_ids]
        # the image of the representative under every element of H, in the
        # color of that element's coset
        moved = images(h.codes, rep, n)
        prev = painted[moved]
        if ((prev >= 0) & (prev != colors)).any():
            raise AssertionError("a vertex colored by two plans; broken plan validation")
        painted[moved] = colors
        if (painted[moved] != colors).any():
            raise AssertionError("a vertex in two cosets' images; broken plan validation")
    if unplanned:
        in_background = np.zeros(len(decomp.orbits), dtype=bool)
        in_background[unplanned] = True
        painted[in_background[decomp.vertex_orbit]] = occ_color[(None, 0)]
    if (assignment < 0).any():
        raise AssertionError("coloring is not total; broken orbit bookkeeping")

    recipe = ColoringRecipe(h, plans, merges, background)
    return VertexColoring(n, table, assignment, recipe)


def color_action(coloring: VertexColoring, g: Isometry) -> ColorPermutation | None:
    """The permutation g induces on color classes, or None if g maps some
    class across several classes (no permutation is induced)."""
    n = coloring.modulus
    g = Isometry(g.perm, g.signs, tuple(t % n for t in g.trans))
    a = coloring.assignment
    idx = np.indices((n, n, n))
    image = [(g.signs[i] * idx[g.perm[i]] + g.trans[i]) % n for i in range(3)]
    perm = _induced(a.ravel(), a[image[0], image[1], image[2]].ravel(), len(coloring.color_table))
    return None if perm is None else ColorPermutation(g, perm)


def _induced(a: np.ndarray, b: np.ndarray, k: int) -> tuple[int, ...] | None:
    """The map on the k colors that sends a[v] to b[v] for every vertex v,
    if it is well defined and a permutation; None otherwise.  Here b is the
    assignment read at the images of the vertices under one element."""
    mapping = np.full(k, -1, dtype=np.int16)
    mapping[a] = b
    if not (mapping[a] == b).all():
        return None
    perm = mapping.tolist()
    if sorted(perm) != list(range(k)):
        return None
    return tuple(perm)


def _color_group_of(coloring: VertexColoring, group: TorusGroup) -> ColorGroupResult:
    """The elements of `group`, the full group, that permute the colors.

    The translations that do so form a group T, a lattice holding N Z^3.
    It is found by testing the translations in order and skipping those
    already decided: a member joins T's lattice, and a non-member rules
    out its whole coset of T as found so far.  For each linear part L, the
    elements (L, t) that permute the colors are either none or one coset
    t0 + T, because two of them differ by a translation that permutes the
    colors; so one candidate t0 per coset of T decides L, and the box under
    the diagonal of T's triangular basis holds one t0 per coset.  Every
    test is `color_action`'s predicate on the whole assignment; the extra
    memory is O(N^3).
    """
    n = coloring.modulus
    n3 = n**3
    a = coloring.assignment.reshape(-1)
    k = len(coloring.color_table)
    grid = coords(np.arange(n3), n)

    def permutes(image: np.ndarray) -> bool:
        return _induced(a, a[flat(image % n, n)], k) is not None

    rows: list[Vec] = []
    basis, t_points = _lattice_mod_n(rows, n)
    decided = np.zeros(n3, dtype=bool)
    decided[0] = True
    for tau in range(1, n3):
        if decided[tau]:
            continue
        shift = coords(tau, n)
        if permutes(grid + shift):
            rows.append(tuple(shift.tolist()))
            basis, t_points = _lattice_mod_n(rows, n)
            decided[flat(t_points, n)] = True
        else:
            decided[flat((t_points + shift) % n, n)] = True

    transversal = np.indices([row[i] for i, row in enumerate(basis)]).reshape(3, -1).T
    linear, shifts = [], []
    for l in range(48):
        moved = apply_linear(l, grid, n)
        for t0 in transversal:
            if permutes(moved + t0):
                linear.append(l)
                shifts.append(t0)
                break
    codes = _space_group_codes(np.array(linear), np.array(shifts), t_points, n)
    sub = TorusGroup(n, (), codes, _parent=group)
    class_vertices = np.full(k, n3, dtype=np.int64)
    np.minimum.at(class_vertices, a, np.arange(n3))
    return ColorGroupResult(sub, SigmaTable(sub, a, class_vertices))


def color_group(coloring: VertexColoring) -> ColorGroupResult:
    """All elements of the full torus group that permute the color classes,
    with their sigma table; the coloring is perfect exactly when that is the
    whole group.  Computed once per coloring, over the full group its recipe
    was built on (a fresh one without a recipe), and kept on the coloring."""
    return coloring._color_group


class PartResult(NamedTuple):
    part: str
    ok: bool
    detail: str


class TheoremReport(NamedTuple):
    parts: tuple[PartResult, ...]

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.parts)


def verify_theorem(
    h: TorusGroup,
    j: TorusGroup,
    x,
    coloring: VertexColoring,
) -> TheoremReport:
    """Check the four structural claims behind the coset coloring of the
    orbit of x:

    1. the H-action on that orbit's colors matches left multiplication on
       the cosets of J, through the coset -> color correspondence;
    2. the orbit carries exactly [H:J] colors;
    3. H has at most as many orbits of colors as orbits of vertices;
    4. (a) Stab_H(x) <= J, and (b) per period, |orbit(x)| equals
       [H:J] * [J : Stab_J(x)].

    Returns a report with one entry per part; failures carry the
    counterexample."""
    if not h.modulus == j.modulus == coloring.modulus:
        raise ValueError(f"moduli differ: H {h.modulus}, J {j.modulus}, coloring {coloring.modulus}")
    n = h.modulus
    x = tuple(c % n for c in x)
    decomp = decompose(h)
    orbit = decomp.orbit_of(x)
    table = _ordered_cosets(h, j)
    reps = table.representative_codes
    k = len(reps)
    a = coloring.assignment.reshape(-1)
    parts: list[PartResult] = []

    # coset position -> color, read off each coset's representative
    coset_color = a[images(reps, x, n)]

    cg = color_group(coloring)
    defined = cg.subgroup.includes(h.codes)
    # one pass over the colors: image is sigma(g)[c] for every g in H, read
    # once.  Part 1 compares it with the coset action at each coset of color
    # c, keeping bad[i], the first coset position where element i disagrees
    # (k if none); part 3 keeps the image sets, which are the color orbits,
    # since sigma restricted to H is an action.  Memory stays O(|H|).
    colors = len(coloring.color_table)
    bad = np.full(h.order, k)
    image_sets = set()  # each as the bytes of a mask over the colors
    for c in range(colors):
        image = cg.sigma.image_colors(h.codes, c)
        image_sets.add(np.bincount(image, minlength=colors).astype(bool).tobytes())
        for pos in np.flatnonzero(coset_color == c).tolist():
            moved = table.coset_ids[h.locate(multiply(h.codes, reps[pos], n))]
            wrong = defined & (coset_color[moved] != image)
            np.minimum(bad, np.where(wrong, pos, k), out=bad)
    # part 1 fails at the first element of H, in canonical order, that has
    # no sigma or whose sigma disagrees with the coset action at some coset
    failing = ~defined | (bad < k)
    ok1, detail1 = True, f"checked {h.order} elements on {k} cosets"
    if failing.any():
        i = int(np.argmax(failing))
        g = decode(h.codes[i], n)[0]
        ok1, detail1 = False, f"element {g} does not permute the colors"
        if defined[i]:
            pos, c = int(bad[i]), int(coset_color[bad[i]])
            moved = int(table.coset_ids[h.locate(multiply(h.codes[i], reps[pos], n))])
            detail1 = (
                f"element {g} sends coset {pos} to {moved} but color "
                f"{c} to {int(cg.sigma.image_colors(h.codes[i], c))}"
            )
    parts.append(PartResult("1: coset action equivalence", ok1, detail1))

    orbit_colors = len(set(a[decomp.vertex_orbit == orbit.index].tolist()))
    parts.append(
        PartResult(
            "2: colors on orbit = [H:J]",
            orbit_colors == k,
            f"{orbit_colors} colors vs index {k}",
        )
    )

    if defined.all():
        ok3 = len(image_sets) <= len(decomp.orbits)
        detail3 = f"{len(image_sets)} color orbits vs {len(decomp.orbits)} vertex orbits"
    else:
        ok3, detail3 = False, "sigma undefined for some element of H"
    parts.append(PartResult("3: color orbits <= vertex orbits", ok3, detail3))

    loose = _outside(stabilizer_codes(h, x), j)
    parts.append(
        PartResult(
            "4a: Stab_H(x) inside J",
            loose is None,
            "contained" if loose is None else f"offending element {loose}",
        )
    )

    stab_j = len(stabilizer_codes(j, x))
    lhs = len(orbit.vertices)
    rhs = k * (j.order // stab_j)
    parts.append(
        PartResult(
            "4b: |orbit| = [H:J]*[J:Stab]",
            lhs == rhs,
            f"{lhs} = {k}*{j.order // stab_j}" if lhs == rhs else f"{lhs} != {rhs}",
        )
    )
    return TheoremReport(tuple(parts))


class Stoichiometry(NamedTuple):
    counts: tuple[tuple[str, int], ...]  # every color, table order
    ratio: tuple[int, ...]  # non-background counts, gcd-reduced
    ratio_text: str
    ratio_labels: tuple[str, ...]


def stoichiometry(coloring: VertexColoring) -> Stoichiometry:
    """Vertex counts per color per period; the reduced ratio covers only
    the non-background colors, smallest count first (ties keep color-table
    order, matching the formula convention)."""
    from math import gcd

    counts = coloring.counts()
    ordered = tuple((info.label, counts[info.label]) for info in coloring.color_table)
    fg = [(info.label, counts[info.label]) for info in coloring.color_table if not info.background]
    fg.sort(key=lambda t: t[1])
    g = 0
    for _, c in fg:
        g = gcd(g, c)
    ratio = tuple(c // g for _, c in fg) if g else ()
    return Stoichiometry(
        ordered,
        ratio,
        ":".join(str(r) for r in ratio),
        tuple(label for label, _ in fg),
    )
