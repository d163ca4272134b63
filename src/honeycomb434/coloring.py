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

from .isometry import Isometry, _quoted
from .orbits import decompose, stabilizer_codes
from .quotient import (
    MAX_MODULUS,
    TorusGroup,
    _cell_minima,
    _coset_keys,
    _grid,
    _space_group,
    _torus_basis,
    _vertex_cells,
    apply_linear,
    check_modulus,
    check_vertex,
    coords,
    decode,
    flat,
    images,
    index,
    is_integer,
    join,
    left_cosets,
    multiply,
    split,
)

Vec = tuple[int, int, int]

# the runs between the line breaks of str.splitlines: a coloring file's lines
_LINE = re.compile(r"[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]+")
_INTEGER = re.compile(r"[+-]?[0-9]{1,20}")


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


class ColorGroupResult(NamedTuple):
    """All elements of the full group that permute the color classes, and
    the permutation sigma(g) each one induces: sigma(g)[c] is the color of
    the image under g of the first vertex of color c.

    `subgroup` carries no generating words; it is derived element-wise.
    `assignment` is the coloring's color ids by flat vertex index (see
    `quotient.flat`), and `class_vertices[c]` the flat index of the first
    vertex of color c."""

    subgroup: TorusGroup
    assignment: np.ndarray
    class_vertices: np.ndarray

    def image_colors(self, codes, color: int) -> np.ndarray:
        """sigma(g)[color] for each code g; meaningful where `subgroup`
        includes g."""
        n = self.subgroup.modulus
        return self.assignment[images(codes, coords(self.class_vertices[color], n), n)]


@dataclass(frozen=True, eq=False)
class VertexColoring:
    """A total, onto assignment of color ids to the N^3 torus vertices:
    every color of the table, whose labels are distinct strings, colors
    some vertex.  Checked on construction."""

    modulus: int
    color_table: tuple[ColorInfo, ...]
    assignment: np.ndarray  # shape (N, N, N), entry = color id
    recipe: ColoringRecipe | None = None

    def __post_init__(self):
        n, k = self.modulus, len(self.color_table)
        check_modulus(n)
        a = self.assignment
        if not isinstance(a, np.ndarray) or a.dtype.kind not in "iu" or a.shape != (n, n, n):
            raise ValueError(f"the assignment must be an integer array of shape ({n}, {n}, {n})")
        if a.min() < 0 or a.max() >= k:
            raise ValueError(f"color ids must lie in [0, {k}) for {k} declared colors")
        if not np.bincount(a.ravel(), minlength=k).all():
            raise ValueError("coloring is not onto: some declared color is unused")
        labels = self.labels
        if not all(isinstance(label, str) for label in labels) or len(set(labels)) < k:
            raise ValueError(f"color labels must be distinct strings, got {labels}")
        for label, element, _ in self.color_table:
            if element is not None and not isinstance(element, str):
                raise ValueError(f"color {label!r}: element symbol {element!r} is not a string")
            for what, token in (("label", label), ("element symbol", element)):
                if token is not None and token.split() != [token]:
                    raise ValueError(f"color {what} {token!r} is not one word (no whitespace, not empty)")
        if self.recipe is not None and self.recipe.group.modulus != n:
            raise ValueError(f"the recipe's group has modulus {self.recipe.group.modulus}, the coloring {n}")

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
        x, y, z = check_vertex(v, self.modulus)
        return int(self.assignment[x, y, z])

    def label_of(self, v) -> str:
        return self.color_table[self.color_id(v)].label

    def vertices(self) -> tuple[Vec, ...]:
        """Every vertex, in flat order (see `quotient.flat`)."""
        return tuple(map(tuple, _grid(self.modulus).tolist()))

    def counts(self) -> dict[str, int]:
        """Vertices per color, in color-table order: one bincount pass."""
        tally = np.bincount(self.assignment.ravel(), minlength=len(self.color_table))
        return {info.label: count for info, count in zip(self.color_table, tally.tolist())}

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
        for (x, y, z), cid in zip(_grid(self.modulus).tolist(), self.assignment.ravel().tolist()):
            lines.append(f"{x} {y} {z} {labels[cid]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "VertexColoring":
        # read one line at a time, so a text longer than N^3 vertex lines is
        # refused at the first line past them, without splitting the rest
        lines = _numbered_lines(text)
        number, ln = next(lines, (1, ""))
        header = ln.split()
        if len(header) != 2 or header[0] != "modulus":
            raise ValueError(f"line {number}: expected a 'modulus N' header line")
        # refused unread: no modulus up to the limit needs this many digits
        if len(header[1]) > 20:
            raise ValueError(
                f"line {number}: modulus is {len(header[1])} characters long; the limit is {MAX_MODULUS}"
            )
        n = _integer(header[1], number, "modulus")
        check_modulus(n)
        # an onto coloring of the N^3 vertices uses at most N^3 colors
        table: list[ColorInfo] = []
        ids: dict[str, int] = {}
        number, ln = next(lines, (None, None))
        while ln is not None and ln.startswith("color "):
            if len(table) == n**3:
                raise ValueError(
                    f"line {number}: more than {n**3} colors for {n**3} vertices: some color is unused"
                )
            parts = ln.split()
            if len(parts) < 2:
                raise ValueError(f"line {number}: bad color line: {_quoted(ln)}")
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
                    raise ValueError(f"line {number}: bad color line: {_quoted(ln)}")
            if label in ids:
                raise ValueError(f"line {number}: color {_quoted(label)} is declared twice")
            ids[label] = len(table)
            table.append(ColorInfo(label, element, background))
            number, ln = next(lines, (None, None))
        # check_modulus caps the array at 4,096 cells
        assignment = np.full((n, n, n), -1, dtype=np.int16)
        count = 0
        while ln is not None:
            if count == n**3:
                raise ValueError(
                    f"line {number}: more than {n**3} vertex lines for {n**3} vertices: "
                    "some vertex is listed twice"
                )
            parts = ln.split()
            if len(parts) != 4:
                raise ValueError(f"line {number}: bad vertex line: {_quoted(ln)}")
            if parts[3] not in ids:
                raise ValueError(f"line {number}: undeclared color {_quoted(parts[3])}")
            v = tuple(_integer(p, number, f"coordinate {axis}") % n for p, axis in zip(parts, "xyz"))
            if assignment[v] >= 0:
                raise ValueError(f"line {number}: vertex {v} is listed twice")
            assignment[v] = ids[parts[3]]
            count += 1
            number, ln = next(lines, (None, None))
        # with N^3 lines and no vertex listed twice, every vertex has one
        if count < n**3:
            raise ValueError(f"coloring is not total: {count} vertex lines for {n**3} vertices")
        return cls(n, tuple(table), assignment)


def _numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """The lines of a coloring file that are not blank, each with its
    number from 1 as str.splitlines counts lines.  The text between two
    lines is line breaks only, a CR LF pair counting as one."""
    number, end = 1, 0
    for m in _LINE.finditer(text):
        gap = text[end : m.start()]
        number += len(gap) - gap.count("\r\n")
        end = m.end()
        if not m[0].isspace():
            yield number, m[0]


def _integer(value: str, number: int, field: str) -> int:
    """A number of a coloring file: an optional sign and at most 20 ASCII
    digits.  No Unicode digit is read, and no text longer than any modulus
    or coordinate needs is converted."""
    if not _INTEGER.fullmatch(value):
        raise ValueError(
            f"line {number}: {field} {_quoted(value)} is not an integer "
            "(an optional sign and at most 20 ASCII digits)"
        )
    return int(value)


def _ordered_cosets(h: TorusGroup, j: TorusGroup) -> np.ndarray:
    """The codes of each left coset's smallest element, J's own coset first
    (Jx gets the first label), the rest in canonical order.  Kept on H per
    J, so `build_coloring` and `verify_theorem` share them."""
    memo = h._memo
    if ("cosets", j) not in memo:
        reps = left_cosets(h, j).representative_codes
        own = int(j.includes(reps).argmax())
        memo["cosets", j] = np.concatenate((reps[own : own + 1], np.delete(reps, own)))
    return memo["cosets", j]


def _outside(codes: np.ndarray, j: TorusGroup) -> Isometry | None:
    """The smallest of the given sorted codes that J lacks, decoded."""
    loose = codes[~j.includes(codes)]
    return decode(loose[0], j.modulus)[0] if len(loose) else None


def _find(root: list[int] | dict[str, str], s: int | str) -> int | str:
    """The root of s in the union-find forest root, halving its path."""
    while root[s] != s:
        root[s] = root[root[s]]
        s = root[s]
    return s


def build_coloring(
    h: TorusGroup,
    plans: Iterable[OrbitPlan],
    merges: Iterable[tuple[str, str]] = (),
    background: str | None = None,
) -> VertexColoring:
    """Color the torus by the orbit/coset scheme.

    Every planned orbit Hx is partitioned into the sets r_p Jx, one per
    left coset r_p J, which are disjoint since Stab_H(x) <= J, and labeled
    in coset order (J's own class first); all
    unplanned orbits share the `background` label, which is flagged as
    background in the color table.  A label may appear more than once only
    if the duplication is declared in `merges`; merged labels must come
    from plans over the same subgroup at the same coset position, which
    keeps every element of H acting on the merged classes consistently.
    A color is a class of labels: each merge joins the classes of its two
    labels, and the class is named by its root label, so merges chain:
    (a, b) and (b, c) give a, b and c one color, named a.
    """
    n = h.modulus
    decomp = decompose(h)
    plans = tuple(plans)
    merges = tuple((a, b) for a, b in merges)

    if background is not None and not isinstance(background, str):
        raise PlanError(f"background label {background!r} is not a string")
    by_orbit: dict[int, OrbitPlan] = {}
    for plan in plans:
        if not isinstance(plan.labels, (tuple, list)) or not all(
            isinstance(label, str) for label in plan.labels
        ):
            raise PlanError(f"plan for orbit {plan.orbit}: labels must be a sequence of strings")
        if not is_integer(plan.orbit):
            raise PlanError(f"orbit index {plan.orbit!r} is not an integer")
        if not 0 <= plan.orbit < len(decomp.orbits):
            raise PlanError(f"orbit index {plan.orbit} out of range; H has {len(decomp.orbits)} orbits")
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

    # Each label keeps the (plan, coset position) places it colors, the
    # background's at (None, 0); each declared merge is checked where it is
    # declared, on the places of its two labels.
    places: dict[str, list[tuple[int | None, int]]] = {}
    for pi, plan in enumerate(plans):
        for pos, label in enumerate(plan.labels):
            places.setdefault(label, []).append((pi, pos))
    if background is not None:
        places[background] = [(None, 0)]
    root = {label: label for label in places}
    for a, b in merges:
        if a not in places or b not in places:
            raise PlanError(f"merge ({a!r}, {b!r}) names a label no plan uses")
        for (pa, qa), (pb, qb) in [(s, t) for s in places[a] for t in places[b] if s != t]:
            if pa == pb:
                raise PlanError(f"cannot merge two colors of the same orbit plan ({a!r})")
            ja = h if pa is None else plans[pa].subgroup
            jb = h if pb is None else plans[pb].subgroup
            if not (ja.within(jb) and jb.within(ja)):
                raise PlanError(f"merge of {a!r} and {b!r}: the plans use different subgroups")
            if qa != qb:
                raise PlanError(f"merge of {a!r} and {b!r}: labels sit at different coset positions")
        root[_find(root, b)] = _find(root, a)
    for label, found in places.items():
        if len(found) > 1 and (label, label) not in merges:
            raise PlanError(f"label {label!r} is reused without a merge declaration")

    # Color table in first-occurrence order of the classes.
    color_of: dict[str, int] = {}
    for label in places:
        color_of.setdefault(_find(root, label), len(color_of))
    flagged = None if background is None else _find(root, background)
    table = tuple(ColorInfo(r, None, r == flagged) for r in color_of)

    assignment = np.full((n, n, n), -1, dtype=np.int16)
    painted = assignment.reshape(-1)
    for plan in plans:
        j, reps = plan.subgroup, _ordered_cosets(h, plan.subgroup)
        colors = np.array([color_of[_find(root, label)] for label in plan.labels], dtype=np.int16)
        # coset p paints r_p Jx; J is each (M, s_M) plus its lattice, so Jx
        # is every vertex of the lattice cells that hold x's images under
        # the (M, s_M): the lattice moves x only within its own cell
        hit = np.zeros(n**3, dtype=bool)
        hit[j._cells[images(join(j.linear, j.shifts, n), decomp.orbits[plan.orbit].representative, n)]] = True
        moved = images(reps, coords(np.flatnonzero(hit[j._cells]), n), n)
        prev = painted[moved]
        if ((prev >= 0) & (prev != colors)).any():
            raise AssertionError("a vertex colored by two plans; broken plan validation")
        painted[moved] = colors
        if (painted[moved] != colors).any():
            raise AssertionError("a vertex in two cosets' images; broken plan validation")
    if unplanned:
        in_background = np.zeros(len(decomp.orbits), dtype=bool)
        in_background[unplanned] = True
        painted[in_background[decomp.vertex_orbit]] = color_of[flagged]
    if (assignment < 0).any():
        raise AssertionError("coloring is not total; broken orbit bookkeeping")

    recipe = ColoringRecipe(h, plans, merges, background)
    return VertexColoring(n, table, assignment, recipe)


def _induced(b: np.ndarray, first: np.ndarray) -> bool:
    """Does one element permute the colors?  b is the assignment at the
    images of the vertices under it, first[v] the first vertex of v's class.
    The color map is well defined iff b agrees with b[first], and then a
    permutation: the element permutes the vertices, and the coloring is onto."""
    return bool((b == b[first]).all())


def _color_group_of(coloring: VertexColoring, group: TorusGroup) -> ColorGroupResult:
    """The elements of `group`, the full group, that permute the colors.

    The translations that do so form a group T, a lattice holding N Z^3.
    It is found by testing the translations in order and skipping those
    already decided: a member joins T's lattice, and a non-member rules
    out its whole coset of T as found so far.  For each linear part L, the
    elements (L, t) that permute the colors are either none or one coset
    t0 + T, because two of them differ by a translation that permutes the
    colors; so one candidate t0 per coset of T decides L, and the box under
    the diagonal of T's triangular basis holds one t0 per coset.

    A coloring built by `build_coloring` starts from its recipe's H: when
    each of H's generators permutes the colors, so does all of H.  Those
    are its words, whose codes are read off the step rows H keeps, or, for
    a group built without words, such as a color group, the generators
    read off its form.  Then T starts from H's lattice, and the linear
    parts with their shifts from H's form, so only the other translations
    and parts are tested.  A coloring without a recipe, or whose H has a
    generator that does not permute the colors, is walked from the
    identity.  Every test is `_induced`'s predicate on
    the whole assignment; the extra memory is O(N^3).  sigma is not
    tabulated: `ColorGroupResult.image_colors` reads it off the images of
    one vertex per color.
    """
    n = coloring.modulus
    n3 = n**3
    a = coloring.assignment.reshape(-1)
    class_vertices = np.full(len(coloring.color_table), n3, dtype=np.int64)
    np.minimum.at(class_vertices, a, np.arange(n3))
    first = class_vertices[a]
    grid = _grid(n)

    def permutes(moved: np.ndarray) -> bool:
        """Is the vertex map v -> moved[v] (flat indices) a color permutation?"""
        return _induced(a[moved], first)

    h = None if coloring.recipe is None else coloring.recipe.group
    if h is not None:
        codes = h._word_codes.tolist() or h._generator_codes.tolist()
        if not all(permutes(images(code, grid, n)) for code in codes):
            h = None
    rows: list[Vec] = [] if h is None else list(h.torus_lattice)
    basis = _torus_basis(rows, n)
    cells = _vertex_cells(basis, n)  # the coset of T as found so far, per translation
    decided = cells == 0
    for tau in range(1, n3):
        if decided[tau]:
            continue
        shift = coords(tau, n)
        if permutes(flat((grid + shift) % n, n)):
            rows.append(tuple(shift.tolist()))
            basis = _torus_basis(rows, n)
            cells = _vertex_cells(basis, n)
            decided |= cells == 0
        else:
            decided |= cells == cells[tau]

    linear, shifts = ([], []) if h is None else (h.linear.tolist(), list(h.shifts))
    transversal = _cell_minima(basis)
    for l in range(48):
        if l in linear:
            continue
        moved = apply_linear(l, grid, n)
        for t0 in transversal:
            if permutes(flat((moved + t0) % n, n)):
                linear.append(l)
                shifts.append(t0)
                break
    sub = _space_group(n, (), np.array(linear), np.array(shifts), basis, _parent=group)
    return ColorGroupResult(sub, a, class_vertices)


def color_group(coloring: VertexColoring) -> ColorGroupResult:
    """All elements of the full torus group that permute the color classes,
    with the permutations they induce; the coloring is perfect exactly when
    that is the whole group.  Computed once per coloring, over the full
    group its recipe was built on (a fresh one without a recipe), and kept
    on the coloring."""
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

    Part 1 holds exactly when sigma is defined on all of H, that is when H
    lies within the color group (a check on the two space-group forms),
    and every g in H sends x into the color phi(gJ), where phi(p) is the
    color of r_p x for coset p's representative r_p.  Given sigma, that
    holds iff each product s r_p, for each coset p and each of H's
    generator codes s (at most 8; see `TorusGroup._generator_codes`),
    sends x into the color phi(s r_p J).  For by induction on the length
    of g as a word in them, color(g r_p x) = phi(g r_p J) for every p: if
    g r_p J = r_q J, then g r_p x and r_q x share a color, so sigma(s)
    gives s g r_p x the color of s r_q x, which the check makes
    phi(s r_q J) = phi(s g r_p J); and g = y r_0^-1, with r_0 in J, gives
    color(y x) = phi(yJ) for every y in H.  The induction holds for any
    set of codes that generates H.  Only a failing check walks H, in
    `_part1_failure`, by the same check.
    Part 3 counts the orbits of the colors under sigma of H's generator
    codes by a union-find: sigma is a homomorphism on H, so every group
    takes this one path.

    Returns a report with one entry per part; failures carry the
    counterexample."""
    if not h.modulus == j.modulus == coloring.modulus:
        raise ValueError(f"moduli differ: H {h.modulus}, J {j.modulus}, coloring {coloring.modulus}")
    n = h.modulus
    x = check_vertex(x, n)
    decomp = decompose(h)
    orbit = decomp.orbit_of(x)
    reps = _ordered_cosets(h, j)
    k = len(reps)
    a = coloring.assignment.reshape(-1)
    parts: list[PartResult] = []

    # coset position -> color, read off each coset's representative
    coset_color = a[images(reps, x, n)]
    # each coset's position, found by its key among the representatives' keys
    keys = _coset_keys(j, *split(reps, n))
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def check(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For the products g r_p of the codes g with every representative,
        one row per coset p: the position of the coset g r_p J, and whether
        g r_p sends x out of that coset's color."""
        linear, t = split(multiply(codes, reps, n), n)
        moved = order[np.searchsorted(sorted_keys, _coset_keys(j, linear, t))]
        return moved, a[flat((apply_linear(linear, x, n) + t) % n, n)] != coset_color[moved]

    cg = color_group(coloring)
    # sigma is defined on all of H exactly when H lies in the color group
    defined = h.within(cg.subgroup)
    if defined and not check(h._generator_codes)[1].any():
        ok1, detail1 = True, f"checked {h.order} elements on {k} cosets"
    else:
        ok1, detail1 = False, _part1_failure(h, cg, check, coset_color)
    parts.append(PartResult("1: coset action equivalence", ok1, detail1))

    orbit_colors = int(np.count_nonzero(np.bincount(a[decomp.vertex_orbit == orbit.index])))
    parts.append(
        PartResult(
            "2: colors on orbit = [H:J]",
            orbit_colors == k,
            f"{orbit_colors} colors vs index {k}",
        )
    )

    if defined:
        count = _color_orbit_count(h, cg)
        ok3 = count <= len(decomp.orbits)
        detail3 = f"{count} color orbits vs {len(decomp.orbits)} vertex orbits"
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
    lhs = orbit.size
    rhs = k * (j.order // stab_j)
    parts.append(
        PartResult(
            "4b: |orbit| = [H:J]*[J:Stab]",
            lhs == rhs,
            f"{lhs} = {k}*{j.order // stab_j}" if lhs == rhs else f"{lhs} != {rhs}",
        )
    )
    return TheoremReport(tuple(parts))


# the most products g rep_p that one pass of part 1's failing walk makes
_PART1_PRODUCTS = 2**15


def _part1_failure(h: TorusGroup, cg: ColorGroupResult, check, coset_color: np.ndarray) -> str:
    """Part 1's counterexample: the first element g of H, in canonical
    order, that has no sigma or whose sigma disagrees with the coset action
    at some coset p, named with the first such p, which `verify_theorem`'s
    check finds.  Only when H is not within the color group does a
    membership pass over H find the first element without sigma.  The
    elements before it are checked in chunks of at most `_PART1_PRODUCTS`
    products (one element per chunk at least), up to the first chunk that
    holds a failure; so the walk costs products in proportion to the
    failing element's position."""
    n = h.modulus
    end = h.order if h.within(cg.subgroup) else int(np.argmin(cg.subgroup.includes(h.codes)))
    step = max(1, _PART1_PRODUCTS // len(coset_color))
    for start in range(0, end, step):
        chunk = h.codes[start : min(start + step, end)]
        moved, failing = check(chunk)
        failed = failing.any(axis=0)
        if failed.any():
            i = int(failed.argmax())
            pos = int(failing[:, i].argmax())
            g, c = chunk[i], int(coset_color[pos])
            return (
                f"element {decode(g, n)[0]} sends coset {pos} to {int(moved[pos, i])} but color "
                f"{c} to {int(cg.image_colors(g, c))}"
            )
    return f"element {decode(h.codes[end], n)[0]} does not permute the colors"


def _color_orbit_count(h: TorusGroup, cg: ColorGroupResult) -> int:
    """The number of orbits of H on the colors through sigma, which must be
    defined on all of H: a union-find of each color with its images under
    sigma of H's generator codes."""
    colors = len(cg.class_vertices)
    roots = list(range(colors))
    moved = cg.assignment[images(h._generator_codes, coords(cg.class_vertices, h.modulus), h.modulus)]
    for c, row in enumerate(moved.tolist()):
        for d in row:
            roots[_find(roots, c)] = _find(roots, d)
    return sum(roots[c] == c for c in range(colors))


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
