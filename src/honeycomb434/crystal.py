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
# per corner, which cube edge (0 low, 1 high) it takes on each axis; per
# face, its four corners, then words 8 and 9 of a site's words: its color
_CORNER_SIDES = (np.array(_CUBE_CORNERS) > 0).astype(np.intp)
_FACE_CORNERS = np.array(_CUBE_FACES, dtype=np.intp)
_FACE_WORDS = np.concatenate([_FACE_CORNERS, np.broadcast_to([8, 9], (6, 2))], axis=1)


# the most sites in one block of the OFF export, whatever the region's shape
_OFF_BLOCK_SITES = 512
# the OFF export's cells of 8 bytes, as little-endian words
_WORD = np.dtype("<u8")


def _word(cell: bytes) -> int:
    return int.from_bytes(cell, "little")


# per separator (space, newline), bytes 3 to 7 of the cells of v -/+ 0.2
_FRACTIONS = np.array(
    [[_word(b"\0" * 3 + (b"%.3f" % f)[1:] + sep) for f in (1 - CUBE_HALF_WIDTH, CUBE_HALF_WIDTH)]
     for sep in (b" ", b"\n")],
    _WORD,
)


def _digit_words(count: int, end: int) -> np.ndarray:
    """The numbers 0 to count - 1 as words of their ASCII digits, the last
    digit in byte end - 1, NUL left of a shorter number's leading digit."""
    digits = len(str(count - 1))
    words = np.zeros(1, _WORD)
    for byte in range(end - digits, end):
        words = (words[:, None] | np.arange(48, 58, dtype=_WORD) << 8 * byte).ravel()
    words = words[:count]
    for place in range(1, digits):
        words.view(np.uint8).reshape(-1, 8)[: 10**place, end - 1 - place] = 0
    return words


def _text(buffer: bytearray, size: int) -> str:
    """The first `size` bytes of the buffer as text, NULs dropped."""
    return (buffer if size == len(buffer) else buffer[:size]).translate(None, b"\0").decode("ascii")


def export_off(model: CrystalModel, region=(1, 1, 1)) -> str:
    """Every site of the region as a small axis-aligned cube with
    face colors from the palette; vacancies are drawn too.

    Sites go in x, y, z order; site s numbers its corners 8s to 8s + 7.
    A block of whole z-rows, or of runs of one longer row, fills a scratch
    allocated once per export, whose fields are NUL-padded cells of 8 bytes
    (16 for coordinates past 999.8) copied as uint64 words; its bytes become
    text with the NULs dropped, and the block texts are joined once.  A
    vertex line is three cells from per-axis tables of each coordinate's 8
    corners.  A vertex number k is a " k" cell, or above 1000 the OR of a
    " " + k // 1000 cell and one of its last three digits.  A face line is
    four number cells and a " r g b\\n4" cell holding the next line's 4."""
    sx, sy, sz = _region_shape(region, model.modulus)
    sites = sx * sy * sz
    head = f"OFF\n{8 * sites} {6 * sites} 0\n"
    if not sites:
        return head
    coloring, n = model.coloring, model.modulus
    run = min(sz, _OFF_BLOCK_SITES)
    rows_per_block = min(_OFF_BLOCK_SITES // run, sx * sy)
    block = rows_per_block * run
    # the digits of 0 to 999, of each coordinate and of each k // 1000
    extent = max(sx, sy, sz)
    thousands = (8 * sites - 1) // 1000 + 1
    digits = _digit_words(max(1000, extent, thousands), 8)
    # [separator, v, side, word]: the cells of v - 0.2 and v + 0.2
    k = 1 if extent <= 1000 else 2
    end = 3 if k == 1 else 8
    cells = np.zeros((2, extent, 2, k), _WORD)
    cells[..., -1] = _FRACTIONS[:, None]
    cells[:, 0, 0, -1] = _FRACTIONS[:, 1]
    v = digits[:extent] >> 8 * (8 - end)
    cells[:, :, 1, 0] |= v
    cells[:, 1:, 0, 0] |= v[:-1]
    cells[:, 0, 0, 0] |= _word(b"-0") << 8 * (end - 2)
    x_cells, y_cells, z_cells = [
        cells[a // 2, :size][:, _CORNER_SIDES[:, a]] for a, size in enumerate((sx, sy, sz))
    ]
    vertex_buffer = bytearray(8 * block * 8 * 3 * k)
    vertex_scratch = np.frombuffer(vertex_buffer, _WORD).reshape(rows_per_block, run, 8, 3 * k)
    # 125 sites have 1000 corners: " k" for sites 0 to 124, then high[k // 1000] | k % 1000
    low = digits[:1000].reshape(125, 8)
    lows = np.concatenate([low | _word(b"\0" * 4 + b" "), low | _word(b"\0" * 5 + b"000")])
    high = digits[:thousands] >> 24 | _word(b" ")
    high[0] = 0
    palette = [PALETTE.get(info.label, FALLBACK_COLOR) for info in coloring.color_table]
    rgb = b"".join((b" %d %d %d\n4" % color).ljust(16, b"\0") for color in palette)
    site_rgb = np.frombuffer(rgb, _WORD).reshape(-1, 2)[coloring.assignment]
    # per site its 8 number cells and its color cell, picked by face lines
    site_words = np.empty((block, 10), _WORD)
    face_buffer = bytearray(8 * block * 6 * 6)
    face_scratch = np.frombuffer(face_buffer, _WORD).reshape(block, 6, 6)

    # each color cell ends in the next face line's 4: start with one, drop the last
    vertices, faces = [head], ["4"]
    for row in range(0, sx * sy, rows_per_block):
        x, y = np.divmod(np.arange(row, min(row + rows_per_block, sx * sy)), sy)
        xs, ys = x_cells[x][:, None], y_cells[y][:, None]
        colors = site_rgb[x % n, y % n]
        for z0 in range(0, sz, run):
            z = np.arange(z0, min(z0 + run, sz))
            lines = vertex_scratch[: len(x), : len(z)]
            lines[..., :k] = xs
            lines[..., k : 2 * k] = ys
            lines[..., 2 * k :] = z_cells[z0 : z0 + len(z)]
            vertices.append(_text(vertex_buffer, lines.nbytes))
            m, first = len(x) * len(z), row * sz + z0
            for t in range(first // 125, (first + m - 1) // 125 + 1):
                a, b, shift = max(first, 125 * t), min(first + m, 125 * t + 125), 125 * max(t - 1, 0)
                np.bitwise_or(lows[a - shift : b - shift], high[t], out=site_words[a - first : b - first, :8])
            site_words[:m, 8:] = colors[:, z % n].reshape(m, 2)
            face_scratch[:m] = site_words[:m, _FACE_WORDS]
            faces.append(_text(face_buffer, face_scratch[:m].nbytes))
    faces[-1] = faces[-1][:-1]
    return "".join(vertices + faces)


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
            f"  orbit {orb.index}: representative {orb.representative}, size {orb.size}"
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
