"""Crystal-structure models built on top of vertex colorings.

Each model pairs a colored torus with element symbols for the
non-background colors.  Four presets cover the classic cubic families:
rock salt (two interpenetrating face-centered patterns), the NbO net
(ordered vacancies on a rock-salt frame), the ReO3 net (corner-sharing
octahedra with an empty body position), and the perovskite net (ReO3
plus an occupied body position).  Each preset is one of the bundled
JSON configs, built by the same `build_from_config` as any user config.
Other compounds with the same geometry, e.g. BaTiO3 or AgCl, come from
`substitute`.

Exports: `xyz` lists occupied sites over a block of unit cells (one
unit cell per torus period), `off` renders every site as a small
colored cube, and `report` summarizes the group data, the color table,
and the derived stoichiometry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .coloring import (
    OrbitPlan,
    VertexColoring,
    build_coloring,
    color_group,
    stoichiometry,
)
from .isometry import WordError, parse_word
from .orbits import decompose
from .quotient import (
    build_group,
    build_subgroup,
    certify_translations,
    check_modulus,
    index,
)

PALETTE: dict[str, tuple[int, int, int]] = {
    "light-blue": (120, 180, 255),
    "white": (245, 245, 245),
    "dark-blue": (20, 60, 160),
    "green": (40, 160, 70),
    "red": (200, 30, 40),
    "orange": (240, 140, 30),
    "black": (20, 20, 20),
    "yellow": (240, 210, 40),
    "brown": (140, 90, 50),
}
FALLBACK_COLOR = (128, 128, 128)


class CrystalModel(NamedTuple):
    family: str
    coloring: VertexColoring

    @property
    def modulus(self) -> int:
        return self.coloring.modulus

    @property
    def composition(self) -> tuple[tuple[str, int], ...]:
        """(element, sites per period) for the occupied colors, table order."""
        counts = self.coloring.counts()
        return tuple(
            (info.element, counts[info.label])
            for info in self.coloring.color_table
            if not info.background and info.element is not None
        )

    @property
    def formula(self) -> str:
        return formula_of(self.coloring)


def formula_of(coloring: VertexColoring) -> str:
    """Reduced formula: subscripts ascending, ties kept in color-table
    order; the element order mirrors the reduced ratio."""
    st = stoichiometry(coloring)
    symbols = {info.label: info.element for info in coloring.color_table}
    missing = [label for label in st.ratio_labels if symbols[label] is None]
    if missing:
        raise ValueError(f"colors without element symbols: {missing}")
    return "".join(
        symbols[label] + (str(c) if c > 1 else "")
        for label, c in zip(st.ratio_labels, st.ratio)
    )


class ConfigError(ValueError):
    """The config document is malformed or references undefined names."""


# the bundled configs by file stem; each is one preset family
_BUNDLED = {path.stem: path for path in Path(__file__).with_name("configs").glob("*.json")}
PRESET_NAMES = tuple(sorted(json.loads(p.read_text())["family"] for p in _BUNDLED.values()))


def _parse_config(text: str, source: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {source!r} is not valid JSON: {exc}") from None
    validate_config(data)
    return data


def load_config(source: str) -> dict:
    """Read and validate a config given as a file path or a bundled name."""
    path = Path(source)
    if path.exists():
        return _parse_config(path.read_text(), source)
    bundled = _BUNDLED.get(source.lower())
    if bundled is None:
        raise ConfigError(f"config {source!r} is neither an existing file nor a bundled name")
    return _parse_config(bundled.read_text(), source)


def validate_config(data) -> None:
    def need(cond: bool, message: str) -> None:
        if not cond:
            raise ConfigError(message)

    def integer(value) -> bool:
        # JSON true and false load as bool, a subclass of int
        return isinstance(value, int) and not isinstance(value, bool)

    def inside(path: str) -> bool:
        # joined to --out-dir, the path names a file within it: "." and
        # "./" have no parts and name --out-dir itself
        parts = Path(path).parts
        return bool(parts) and not Path(path).is_absolute() and ".." not in parts

    need(isinstance(data, dict), "config must be a JSON object")
    need(isinstance(data.get("family"), str), "config needs a string 'family'")
    need(integer(data.get("modulus", 2)), "'modulus' must be an integer")
    try:
        check_modulus(data.get("modulus", 2))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    subgroups = data.get("subgroups")
    need(isinstance(subgroups, dict) and subgroups, "config needs a 'subgroups' table")
    for name, words in subgroups.items():
        need(
            isinstance(words, list) and words and all(isinstance(w, str) for w in words),
            f"subgroup {name!r} must list generating words",
        )
        for word in words:
            try:
                parse_word(word)
            except WordError as exc:
                raise ConfigError(f"subgroup {name!r}: {exc}") from None
    coloring = data.get("coloring")
    need(isinstance(coloring, dict), "config needs a 'coloring' section")
    need(
        isinstance(coloring.get("group"), str) and coloring["group"] in subgroups,
        "'coloring.group' must name a defined subgroup",
    )
    plans = coloring.get("plans")
    need(isinstance(plans, list) and plans, "'coloring.plans' must be a non-empty list")
    for plan in plans:
        need(isinstance(plan, dict), "each plan must be an object")
        need(
            integer(plan.get("orbit")) and plan["orbit"] >= 0,
            "each plan needs a non-negative 'orbit' index",
        )
        need(
            isinstance(plan.get("subgroup"), str) and plan["subgroup"] in subgroups,
            "each plan's 'subgroup' must be defined",
        )
        labels = plan.get("labels")
        need(
            isinstance(labels, list) and labels and all(isinstance(s, str) for s in labels),
            "each plan needs a non-empty 'labels' list",
        )
    merges = coloring.get("merges", [])
    need(
        isinstance(merges, list)
        and all(isinstance(m, list) and len(m) == 2 and all(isinstance(s, str) for s in m) for m in merges),
        "'coloring.merges' must be a list of label pairs",
    )
    background = coloring.get("background")
    need(
        background is None or isinstance(background, str),
        "'coloring.background' must be a label or null",
    )
    # the CLI's default output is named after the family
    output = coloring.get("output", f"{data['family']}.coloring")
    need(isinstance(output, str) and output, "'coloring.output' must be a filename")
    need(
        inside(output),
        "'coloring.output' must stay inside --out-dir and name a file there: "
        "no absolute path, no '..', not '.'",
    )
    elements = data.get("elements", {})
    need(
        isinstance(elements, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in elements.items()),
        "'elements' must map labels to symbols",
    )
    exports = data.get("exports", [])
    need(isinstance(exports, list), "'exports' must be a list of export objects")
    for request in exports:
        need(isinstance(request, dict), "each export must be an object")
        need(
            isinstance(request.get("format"), str) and request["format"] in EXPORTERS,
            f"export format must be one of {', '.join(sorted(EXPORTERS))}",
        )
        region = request.get("region", [1, 1, 1])
        need(
            isinstance(region, list)
            and len(region) == 3
            and all(integer(r) and r >= 0 for r in region),
            "'region' must be three non-negative integers",
        )
        try:
            _region_shape(region, data.get("modulus", 2))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        path = request.get("path")
        need(isinstance(path, str) and path, "each export needs a 'path'")
        need(
            inside(path),
            "export paths must stay inside --out-dir and name a file there: "
            "no absolute path, no '..', not '.'",
        )


def build_from_config(config: dict) -> CrystalModel:
    """The model a validated config describes; its coloring's recipe holds
    the coloring group H and the plans."""
    group = build_group(config.get("modulus", 2))
    subgroups = {
        name: certify_translations(build_subgroup(group, tuple(words)))
        for name, words in config["subgroups"].items()
    }
    section = config["coloring"]
    plans = tuple(
        OrbitPlan(p["orbit"], subgroups[p["subgroup"]], tuple(p["labels"]))
        for p in section["plans"]
    )
    merges = tuple((a, b) for a, b in section.get("merges", []))
    coloring = build_coloring(subgroups[section["group"]], plans, merges, section.get("background"))
    try:
        coloring = coloring.with_elements(config.get("elements", {}))
    except KeyError as exc:
        # no plan makes the label; validate_config cannot tell without a build
        raise ConfigError(f"'elements' names {exc.args[0]}") from None
    return CrystalModel(config["family"], coloring)


def preset(name: str, modulus: int = 2) -> CrystalModel:
    """Build the bundled family `configs/<name>.json` on the torus of the
    given period; only the modulus differs from the config.

    Names are case-insensitive and are looked up among the bundled configs
    only, never as a path.  A plan names its orbit by index, and that index
    holds at every even period: each subgroup the configs use contains the
    translations by 2 along each axis, so a vertex reduced mod 2 stays in
    its orbit and is component-wise no larger than the vertex.  The
    smallest representative of every orbit therefore lies in {0, 1}^3, and
    the orbits are numbered alike at every even modulus."""
    bundled = _BUNDLED.get(name.lower())
    if bundled is None:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(PRESET_NAMES)}")
    config = _parse_config(bundled.read_text(), name)
    return build_from_config({**config, "modulus": modulus})


def substitute(
    model: CrystalModel, elements: Mapping[str, str], family: str | None = None
) -> CrystalModel:
    """Same geometry, different occupants.  The map must cover exactly the
    non-background colors."""
    need = {
        info.label for info in model.coloring.color_table if not info.background
    }
    if set(elements) != need:
        raise ValueError(
            f"substitution must name exactly the occupied colors {sorted(need)}, "
            f"got {sorted(elements)}"
        )
    return CrystalModel(family or model.family, model.coloring.with_elements(elements))


# the most sites, a*b*c*N^3, that one export may cover; the largest export of
# the bundled configs at N = 8 covers 4,096
MAX_EXPORT_SITES = 2**18


def _region_shape(region, modulus: int) -> tuple[int, int, int]:
    """Extent in sites of `region` unit cells, one period each; checked
    before anything is allocated.  The counts must be integers, numpy ones
    included: a bool, a float or a string is refused, never truncated."""
    cells = tuple(region)
    if len(cells) != 3:
        raise ValueError(f"region must be three integers, got {len(cells)} values")
    for r in cells:
        if isinstance(r, bool) or not isinstance(r, (int, np.integer)):
            raise ValueError(f"region counts must be integers, not {type(r).__name__}")
    a, b, c = map(int, cells)
    if min(a, b, c) < 0:
        raise ValueError(f"region must be non-negative, got {region}")
    if a * b * c * modulus**3 > MAX_EXPORT_SITES:
        raise ValueError(
            f"region {a}x{b}x{c} at modulus {modulus} covers more than {MAX_EXPORT_SITES} sites"
        )
    return a * modulus, b * modulus, c * modulus


def export_xyz(model: CrystalModel, region=(1, 1, 1)) -> str:
    """Occupied sites over region unit cells, one period per cell, as an
    xyz file in lattice units.  Vacancies are omitted."""
    sx, sy, sz = _region_shape(region, model.modulus)
    n = model.modulus
    table = model.coloring.color_table
    ids = model.coloring.assignment.tolist()
    rows = []
    for x in range(sx):
        plane = ids[x % n]
        for y in range(sy):
            line = plane[y % n]
            for z in range(sz):
                info = table[line[z % n]]
                if info.background:
                    continue
                if info.element is None:
                    raise ValueError(f"color {info.label!r} has no element symbol")
                rows.append(f"{info.element} {x} {y} {z}")
    comment = (
        f"{model.family} {model.formula} region={sx // n}x{sy // n}x{sz // n} modulus={n}"
    )
    return "\n".join([str(len(rows)), comment, *rows]) + "\n"


_CUBE_CORNERS = (
    (-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
    (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1),
)
_CUBE_FACES = (
    (0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
    (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
)
# half the edge of each site's cube in the OFF export, in lattice units
CUBE_HALF_WIDTH = 0.2
# per corner, which cube edge (0 low, 1 high) it takes on each axis, and per
# face, its four corners
_CORNER_SIDES = (np.array(_CUBE_CORNERS) > 0).astype(np.intp)
_FACE_CORNERS = np.array(_CUBE_FACES, dtype=np.intp)


def _ascii_rows(strings: list[str]) -> np.ndarray:
    """The strings as a uint8 matrix, one row each, NUL-padded to the
    longest."""
    table = np.array(strings, dtype=bytes)
    return table.view(np.uint8).reshape(len(strings), table.itemsize)


def _ascii_text(rows: np.ndarray) -> str:
    """A NUL-padded uint8 matrix as text, in row order, NULs dropped."""
    return str(rows[rows != 0], "ascii")


def _vertex_numbers(count: int) -> np.ndarray:
    """" k" for every vertex number k < count as uint8 rows, the digits
    right-aligned after the space and NUL where a number is shorter."""
    width = len(str(max(count - 1, 0)))
    rows = np.empty((count, 1 + width), np.uint8)
    rows[:, 0] = ord(" ")
    rest = np.arange(count, dtype=np.int32)
    for column in range(width, 0, -1):
        # a digit is shown if it or a higher one is nonzero; the units always
        shown = (rest > 0) | (column == width)
        rest, digit = np.divmod(rest, 10)
        rows[:, column] = np.where(shown, digit + ord("0"), 0)
    return rows


def _vertex_lines(sx: int, sy: int, sz: int) -> str:
    """The 8 corner lines "x y z" of each site's cube, sites in x, y, z
    order: a (site, corner, axis) matrix of padded cube-edge strings, each
    with its separator."""
    # both cube edges of each coordinate, v - 0.2 and v + 0.2
    extent = max(sx, sy, sz)
    edges = _ascii_rows(
        [f"{v + side * CUBE_HALF_WIDTH:.3f}" for v in range(extent) for side in (-1, 1)]
    )
    w = edges.shape[1]
    edges = edges.reshape(extent, 2, w)
    lines = np.empty((sx, sy, sz, 8, 3, w + 1), np.uint8)
    lines[..., 0, :w] = edges[:sx, _CORNER_SIDES[:, 0]][:, None, None]
    lines[..., 1, :w] = edges[:sy, _CORNER_SIDES[:, 1]][None, :, None]
    lines[..., 2, :w] = edges[:sz, _CORNER_SIDES[:, 2]][None, None, :]
    lines[..., w] = np.frombuffer(b"  \n", np.uint8)
    return _ascii_text(lines)


def _face_lines(coloring: VertexColoring, sx: int, sy: int, sz: int) -> str:
    """The 6 face lines "4 k k k k r g b" of each site's cube, sites in
    x, y, z order and site s numbering its corners 8s to 8s + 7: a (site,
    face) matrix of gathered vertex numbers and the site's color."""
    n = coloring.modulus
    sites = sx * sy * sz
    rgb = _ascii_rows(
        [" %d %d %d\n" % PALETTE.get(info.label, FALLBACK_COLOR) for info in coloring.color_table]
    )
    numbers = _vertex_numbers(8 * sites)
    k = numbers.shape[1]
    numbers = numbers.reshape(sites, 8, k)
    lines = np.empty((sites, 6, 1 + 4 * k + rgb.shape[1]), np.uint8)
    lines[:, :, 0] = ord("4")
    for j in range(4):
        lines[:, :, 1 + j * k : 1 + (j + 1) * k] = numbers[:, _FACE_CORNERS[:, j]]
    ids = np.tile(coloring.assignment, (sx // n, sy // n, sz // n)).reshape(-1)
    lines[:, :, 1 + 4 * k :] = rgb[ids][:, None]
    return _ascii_text(lines)


def export_off(model: CrystalModel, region=(1, 1, 1)) -> str:
    """Every site of the region as a small axis-aligned cube with
    face colors from the palette; vacancies are drawn too.

    Each section is built as one uint8 matrix of fixed-width rows, NUL
    where a row is shorter, and written out with the NULs dropped; no
    string is formatted per site."""
    sx, sy, sz = _region_shape(region, model.modulus)
    sites = sx * sy * sz
    return (
        f"OFF\n{8 * sites} {6 * sites} 0\n"
        + _vertex_lines(sx, sy, sz)
        + _face_lines(model.coloring, sx, sy, sz)
    )


def export_report(model: CrystalModel) -> str:
    """Plain-text summary: group orders and indices, certificates, orbit
    sizes, color table, the computed color group, ratio and formula."""
    coloring = model.coloring
    recipe = coloring.recipe
    if recipe is None:
        raise ValueError("model carries no construction recipe")
    h = recipe.group
    group = h.parent
    lines = [
        f"family: {model.family}",
        f"modulus: {coloring.modulus}",
        f"full group order: {group.order}",
    ]
    cert = "yes" if h.certified else "no"
    lines.append(
        f"coloring group: order {h.order}, index {index(group, h)} in full group, "
        f"certificate {cert}"
    )
    decomp = decompose(h)
    lines.append(f"orbits: {len(decomp.orbits)}")
    for orb in decomp.orbits:
        lines.append(
            f"  orbit {orb.index}: representative {orb.representative}, size {len(orb.vertices)}"
        )
    for plan in recipe.plans:
        j = plan.subgroup
        lines.append(
            f"plan for orbit {plan.orbit}: subgroup order {j.order}, "
            f"index {index(h, j)}, certificate {'yes' if j.certified else 'no'}, "
            f"labels {', '.join(plan.labels)}"
        )
    counts = coloring.counts()
    lines.append("colors:")
    for info in coloring.color_table:
        extra = f", element {info.element}" if info.element else ""
        flag = ", background" if info.background else ""
        lines.append(f"  {info.label}: {counts[info.label]} per period{extra}{flag}")
    cg = color_group(coloring)
    verdict = "perfect" if cg.subgroup.order == group.order else "proper subgroup"
    lines.append(f"color group: order {cg.subgroup.order} of {group.order} ({verdict})")
    st = stoichiometry(coloring)
    lines.append(f"ratio: {st.ratio_text}")
    lines.append(f"formula: {model.formula}")
    return "\n".join(lines) + "\n"


EXPORTERS = {
    "xyz": export_xyz,
    "off": export_off,
    "report": lambda model, region=(1, 1, 1): export_report(model),
}


def export(model: CrystalModel, fmt: str, region=(1, 1, 1)) -> str:
    try:
        fn = EXPORTERS[fmt]
    except KeyError:
        raise ValueError(f"unknown export format {fmt!r}; known: {', '.join(sorted(EXPORTERS))}") from None
    return fn(model, region=region)
