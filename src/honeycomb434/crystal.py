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
    DEFAULT_RADIUS,
    build_group,
    build_subgroup,
    certify_translations,
    check_modulus,
    check_radius,
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

    need(isinstance(data, dict), "config must be a JSON object")
    need(isinstance(data.get("family"), str), "config needs a string 'family'")
    need(isinstance(data.get("modulus", 2), int), "'modulus' must be an integer")
    need(isinstance(data.get("radius", DEFAULT_RADIUS), int), "'radius' must be an integer")
    try:
        check_modulus(data.get("modulus", 2))
        check_radius(data.get("radius", DEFAULT_RADIUS))
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
    need(coloring.get("group") in subgroups, "'coloring.group' must name a defined subgroup")
    plans = coloring.get("plans")
    need(isinstance(plans, list) and plans, "'coloring.plans' must be a non-empty list")
    for plan in plans:
        need(isinstance(plan, dict), "each plan must be an object")
        need(
            isinstance(plan.get("orbit"), int) and plan["orbit"] >= 0,
            "each plan needs a non-negative 'orbit' index",
        )
        need(plan.get("subgroup") in subgroups, "each plan's 'subgroup' must be defined")
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
    need(
        isinstance(coloring.get("output", "out.coloring"), str),
        "'coloring.output' must be a filename",
    )
    elements = data.get("elements", {})
    need(
        isinstance(elements, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in elements.items()),
        "'elements' must map labels to symbols",
    )
    for request in data.get("exports", []):
        need(isinstance(request, dict), "each export must be an object")
        need(
            request.get("format") in EXPORTERS,
            f"export format must be one of {', '.join(sorted(EXPORTERS))}",
        )
        region = request.get("region", [1, 1, 1])
        need(
            isinstance(region, list)
            and len(region) == 3
            and all(isinstance(r, int) and r >= 0 for r in region),
            "'region' must be three non-negative integers",
        )
        try:
            _region_shape(region, data.get("modulus", 2))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        path = request.get("path")
        need(isinstance(path, str) and path, "each export needs a 'path'")
        need(not Path(path).is_absolute(), "export paths must be relative to --out-dir")


def build_from_config(config: dict, radius_override: int | None = None) -> CrystalModel:
    """The model a validated config describes; its coloring's recipe holds
    the coloring group H and the plans."""
    modulus = config.get("modulus", 2)
    radius = radius_override if radius_override is not None else config.get("radius", DEFAULT_RADIUS)
    group = build_group(modulus)
    subgroups = {
        name: certify_translations(build_subgroup(group, tuple(words)), radius)
        for name, words in config["subgroups"].items()
    }
    section = config["coloring"]
    plans = tuple(
        OrbitPlan(p["orbit"], subgroups[p["subgroup"]], tuple(p["labels"]))
        for p in section["plans"]
    )
    merges = tuple((a, b) for a, b in section.get("merges", []))
    coloring = build_coloring(subgroups[section["group"]], plans, merges, section.get("background"))
    return CrystalModel(config["family"], coloring.with_elements(config.get("elements", {})))


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
    before anything is allocated."""
    a, b, c = (int(r) for r in region)
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
    coloring = model.coloring
    table = coloring.color_table
    rows = []
    for x in range(sx):
        for y in range(sy):
            for z in range(sz):
                info = table[coloring.color_id((x, y, z))]
                if info.background:
                    continue
                if info.element is None:
                    raise ValueError(f"color {info.label!r} has no element symbol")
                rows.append(f"{info.element} {x} {y} {z}")
    a, b, c = (int(r) for r in region)
    comment = (
        f"{model.family} {model.formula} region={a}x{b}x{c} modulus={model.modulus}"
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


def export_off(model: CrystalModel, region=(1, 1, 1)) -> str:
    """Every site of the region as a small axis-aligned cube with
    face colors from the palette; vacancies are drawn too."""
    sx, sy, sz = _region_shape(region, model.modulus)
    coloring = model.coloring
    verts: list[str] = []
    faces: list[str] = []
    for x in range(sx):
        for y in range(sy):
            for z in range(sz):
                label = coloring.label_of((x, y, z))
                r, g, b = PALETTE.get(label, FALLBACK_COLOR)
                base = len(verts)
                for dx, dy, dz in _CUBE_CORNERS:
                    verts.append(
                        f"{x + dx * CUBE_HALF_WIDTH:.3f} "
                        f"{y + dy * CUBE_HALF_WIDTH:.3f} "
                        f"{z + dz * CUBE_HALF_WIDTH:.3f}"
                    )
                for quad in _CUBE_FACES:
                    idx = " ".join(str(base + i) for i in quad)
                    faces.append(f"4 {idx} {r} {g} {b}")
    head = ["OFF", f"{len(verts)} {len(faces)} 0"]
    return "\n".join(head + verts + faces) + "\n"


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
