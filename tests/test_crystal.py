import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeycomb434.coloring import OrbitPlan, VertexColoring, build_coloring
from honeycomb434 import crystal
from honeycomb434.orbits import decompose
from honeycomb434.crystal import (
    CUBE_HALF_WIDTH,
    FALLBACK_COLOR,
    PALETTE,
    PRESET_NAMES,
    CrystalModel,
    _region_shape,
    export,
    export_off,
    export_report,
    export_xyz,
    formula_of,
    preset,
    substitute,
)

@pytest.fixture(scope="module")
def models():
    return {name: preset(name) for name in ("rock-salt", "NbO", "ReO3", "perovskite")}


def test_preset_names():
    assert PRESET_NAMES == ("NbO", "ReO3", "perovskite", "rock-salt")


def test_preset_lookup_is_case_insensitive(models):
    again = preset("REO3")
    assert again.family == "ReO3"
    assert again.coloring == models["ReO3"].coloring


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown family"):
        preset("fluorite")


# the vertex each plan colors from, per family; the configs name orbits by
# index, and these anchors pin which orbit that index means
ANCHORS = {
    "rock-salt": [(0, 0, 0)],
    "NbO": [(0, 0, 1)],
    "ReO3": [(0, 0, 0), (0, 0, 1)],
    "perovskite": [(0, 0, 0), (0, 1, 1), (1, 1, 1)],
}


@pytest.mark.parametrize("modulus", [2, 4])
def test_preset_plans_color_from_their_anchor_vertices(modulus, tmp_path, monkeypatch):
    # a file named like a preset must not be read in place of the bundled config
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nbo").write_text("not a config")
    (tmp_path / "nbo.json").write_text("not a config")
    assert preset("nbo", modulus).family == "NbO"
    for family, anchors in ANCHORS.items():
        recipe = preset(family, modulus).coloring.recipe
        orbits = decompose(recipe.group).orbits
        assert [orbits[plan.orbit].representative for plan in recipe.plans] == anchors, family


def test_compositions(models):
    assert models["rock-salt"].composition == (("Na", 4), ("Cl", 4))
    assert models["NbO"].composition == (("O", 3), ("Nb", 3))
    assert models["ReO3"].composition == (("Re", 1), ("O", 3))
    assert models["perovskite"].composition == (("Ca", 1), ("O", 3), ("Ti", 1))


def test_formulas(models):
    assert models["rock-salt"].formula == "NaCl"
    assert models["ReO3"].formula == "ReO3"
    assert models["perovskite"].formula == "CaTiO3"
    # equal counts keep color-table order, so the vertex color listed first
    # leads even when the result reads unusually
    assert models["NbO"].formula == "ONb"


def test_formula_needs_element_symbols(subs2):
    bare = build_coloring(
        subs2["full"], [OrbitPlan(0, subs2["half"], ("light-blue", "white"))]
    )
    with pytest.raises(ValueError, match="without element symbols"):
        formula_of(bare)


def test_substitutions_keep_geometry(models):
    pv = models["perovskite"]
    for family, mapping, expected in [
        ("BaTiO3", {"black": "Ba", "yellow": "Ti", "brown": "O"}, "BaTiO3"),
        ("PbZrO3", {"black": "Pb", "yellow": "Zr", "brown": "O"}, "PbZrO3"),
        ("PbTiO3", {"black": "Pb", "yellow": "Ti", "brown": "O"}, "PbTiO3"),
    ]:
        out = substitute(pv, mapping, family=family)
        assert out.formula == expected
        assert out.family == family
        assert out.coloring.assignment.tobytes() == pv.coloring.assignment.tobytes()

    rs = models["rock-salt"]
    for mapping, expected in [
        ({"light-blue": "Ag", "white": "Cl"}, "AgCl"),
        ({"light-blue": "Ca", "white": "O"}, "CaO"),
        ({"light-blue": "Na", "white": "F"}, "NaF"),
        ({"light-blue": "K", "white": "Br"}, "KBr"),
    ]:
        assert substitute(rs, mapping).formula == expected

    cu3n = substitute(models["ReO3"], {"red": "N", "orange": "Cu"}, family="Cu3N")
    assert cu3n.formula == "NCu3"
    assert cu3n.composition == (("N", 1), ("Cu", 3))


def test_substitute_must_cover_exactly_the_occupied_colors(models):
    rs = models["rock-salt"]
    with pytest.raises(ValueError, match="exactly the occupied colors"):
        substitute(rs, {"light-blue": "Ag"})
    with pytest.raises(ValueError, match="exactly the occupied colors"):
        substitute(rs, {"light-blue": "Ag", "white": "Cl", "pink": "Xe"})
    with pytest.raises(ValueError, match="exactly the occupied colors"):
        substitute(models["ReO3"], {"red": "Re", "orange": "O", "white": "He"})


def test_substitute_keeps_family_by_default(models):
    out = substitute(models["rock-salt"], {"light-blue": "Ag", "white": "Cl"})
    assert out.family == "rock-salt"


def test_preset_at_larger_modulus():
    m = preset("rock-salt", modulus=4)
    assert m.modulus == 4
    assert m.coloring.counts() == {"light-blue": 32, "white": 32}
    assert m.formula == "NaCl"


def test_xyz_one_period(models):
    lines = export_xyz(models["rock-salt"]).splitlines()
    assert lines[0] == "8"
    assert lines[1] == "rock-salt NaCl region=1x1x1 modulus=2"
    atoms = lines[2:]
    assert len(atoms) == 8
    assert sum(1 for a in atoms if a.startswith("Na ")) == 4
    assert sum(1 for a in atoms if a.startswith("Cl ")) == 4
    coords = [tuple(int(p) for p in a.split()[1:]) for a in atoms]
    assert coords == sorted(coords)
    assert all(len(c) == 3 and all(0 <= p < 2 for p in c) for c in coords)


def test_xyz_omits_vacancies(models):
    lines = export_xyz(models["NbO"]).splitlines()
    assert lines[0] == "6"
    coords = {tuple(int(p) for p in a.split()[1:]) for a in lines[2:]}
    assert (0, 0, 0) not in coords
    assert (1, 1, 1) not in coords


def test_xyz_region_scaling(models):
    rs = models["rock-salt"]
    wide = export_xyz(rs, region=(2, 1, 1)).splitlines()
    assert wide[0] == "16"
    assert wide[1] == "rock-salt NaCl region=2x1x1 modulus=2"
    xs = {int(a.split()[1]) for a in wide[2:]}
    assert xs == {0, 1, 2, 3}
    empty = export_xyz(rs, region=(0, 1, 1)).splitlines()
    assert empty[0] == "0"
    assert len(empty) == 2
    with pytest.raises(ValueError, match="non-negative"):
        export_xyz(rs, region=(-1, 1, 1))
    # capped at MAX_EXPORT_SITES = 2^18 sites, checked before any allocation
    with pytest.raises(ValueError, match="more than 262144 sites"):
        export_xyz(rs, region=(10**6, 1, 1))
    with pytest.raises(ValueError, match="more than 262144 sites"):
        export_off(rs, region=(33, 32, 32))
    assert _region_shape((32, 32, 32), 2) == (64, 64, 64)


@pytest.mark.parametrize(
    "region, message",
    [
        ((1.9, 1, 1), "not float"),
        ((1, 1.0, 1), "not float"),
        (("2", 1, 1), "not str"),
        ((True, 1, 1), "not bool"),
        ((1, 1, np.bool_(True)), "not bool"),
        ((1, None, 1), "not NoneType"),
        ((1, 1), "got 2 values"),
        ((1, 1, 1, 1), "got 4 values"),
    ],
)
def test_region_counts_must_be_integers(models, region, message):
    # refused, never truncated: (1.9, 1, 1) is not one cell
    for render in (export_xyz, export_off):
        with pytest.raises(ValueError, match=message):
            render(models["rock-salt"], region)


def test_region_takes_numpy_integers(models):
    rs = models["rock-salt"]
    region = (np.int64(2), np.uint8(1), 1)
    assert export_xyz(rs, region) == export_xyz(rs, (2, 1, 1))
    assert export_xyz(rs, region).splitlines()[1] == "rock-salt NaCl region=2x1x1 modulus=2"
    assert export_off(rs, np.array([1, 2, 1])) == export_off(rs, (1, 2, 1))
    # converted before the cap is checked, so a numpy product cannot wrap
    with pytest.raises(ValueError, match="more than 262144 sites"):
        export_off(rs, (np.int64(2**40), np.int64(2**40), np.int64(2**40)))


def test_xyz_reimport_reproduces_stoichiometry(models):
    lines = export_xyz(models["perovskite"], region=(2, 2, 2)).splitlines()
    assert lines[0] == "40"
    tally: dict[str, int] = {}
    for a in lines[2:]:
        tally[a.split()[0]] = tally.get(a.split()[0], 0) + 1
    assert tally == {"Ca": 8, "Ti": 8, "O": 24}


def test_off_structure(models):
    lines = export_off(models["rock-salt"]).splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "64 48 0"
    verts = lines[2:66]
    faces = lines[66:]
    assert len(faces) == 48
    for v in verts:
        assert len(v.split()) == 3
    for f in faces:
        parts = f.split()
        assert len(parts) == 8
        assert parts[0] == "4"
        idx = [int(p) for p in parts[1:5]]
        assert all(0 <= i < 64 for i in idx)
    face_colors = {tuple(int(p) for p in f.split()[5:]) for f in faces}
    assert face_colors == {PALETTE["light-blue"], PALETTE["white"]}


def test_off_draws_vacancies_too(models):
    lines = export_off(models["NbO"]).splitlines()
    assert lines[1] == "64 48 0"
    face_colors = {tuple(int(p) for p in f.split()[5:]) for f in lines[66:]}
    assert face_colors == {
        PALETTE["dark-blue"], PALETTE["green"], PALETTE["white"]
    }


def with_unknown_label(rock_salt):
    """Rock salt with its light-blue color renamed to a label the palette
    does not know."""
    odd = substitute(rock_salt, {"light-blue": "Na", "white": "Cl"})
    table = tuple(
        info._replace(label="mauve") if info.label == "light-blue" else info
        for info in odd.coloring.color_table
    )
    return odd._replace(
        coloring=odd.coloring.__class__(
            odd.coloring.modulus, table, odd.coloring.assignment, odd.coloring.recipe
        )
    )


def test_off_unknown_label_gets_the_fallback_color(models):
    recolored = with_unknown_label(models["rock-salt"])
    face_colors = {
        tuple(int(p) for p in f.split()[5:])
        for f in export_off(recolored).splitlines()[66:]
    }
    assert FALLBACK_COLOR in face_colors


def test_off_cube_geometry(models):
    lines = export_off(models["rock-salt"]).splitlines()
    first_cube = [tuple(float(p) for p in v.split()) for v in lines[2:10]]
    assert min(c for v in first_cube for c in v) == -0.2
    assert max(c for v in first_cube for c in v) == 0.2


def test_report_contents(models):
    rs = export_report(models["rock-salt"])
    assert "family: rock-salt" in rs
    assert "color group: order 384 of 384 (perfect)" in rs
    assert "ratio: 1:1" in rs
    assert "formula: NaCl" in rs

    re_rep = export_report(models["ReO3"])
    assert "color group: order 48 of 384 (proper subgroup)" in re_rep
    assert "ratio: 1:3" in re_rep
    assert "formula: ReO3" in re_rep
    assert "orbit 3: representative (1, 1, 1), size 1" in re_rep

    pv = export_report(models["perovskite"])
    assert "color group: order 96 of 384 (proper subgroup)" in pv
    assert "ratio: 1:1:3" in pv
    assert "formula: CaTiO3" in pv


def test_a_report_needs_the_construction_recipe():
    # a coloring read from text has no recipe, so no groups to report
    text = "modulus 2\ncolor red\n" + "".join(
        f"{x} {y} {z} red\n" for x in range(2) for y in range(2) for z in range(2)
    )
    with pytest.raises(ValueError, match="no construction recipe"):
        export_report(CrystalModel("one", VertexColoring.from_text(text)))


def test_export_dispatch(models):
    rs = models["rock-salt"]
    assert export(rs, "xyz", region=(1, 1, 1)) == export_xyz(rs)
    assert export(rs, "off", region=(1, 1, 1)) == export_off(rs)
    assert export(rs, "report") == export_report(rs)
    with pytest.raises(ValueError, match="unknown export format"):
        export(rs, "stl")


def test_exports_are_deterministic(models):
    again = preset("perovskite")
    assert again.coloring == models["perovskite"].coloring
    for fmt in ("xyz", "off", "report"):
        assert export(again, fmt) == export(models["perovskite"], fmt)


def test_palette_values():
    assert PALETTE == {
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
    assert FALLBACK_COLOR == (128, 128, 128)


# -- reference renderers: the per-site, per-line loops the exports replaced,
# with their own copy of the cube tables; every export must match them byte
# for byte

REFERENCE_CORNERS = (
    (-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
    (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1),
)
REFERENCE_FACES = (
    (0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
    (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
)


def reference_site(coloring, site, base):
    """The 8 vertex lines and 6 face lines of the cube at `site`, whose
    corners are numbered from `base`."""
    x, y, z = site
    r, g, b = PALETTE.get(coloring.label_of(site), FALLBACK_COLOR)
    verts = [
        f"{x + dx * CUBE_HALF_WIDTH:.3f} "
        f"{y + dy * CUBE_HALF_WIDTH:.3f} "
        f"{z + dz * CUBE_HALF_WIDTH:.3f}"
        for dx, dy, dz in REFERENCE_CORNERS
    ]
    faces = [f"4 {' '.join(str(base + i) for i in quad)} {r} {g} {b}" for quad in REFERENCE_FACES]
    return verts, faces


def reference_off(model, region):
    sx, sy, sz = _region_shape(region, model.modulus)
    verts = []
    faces = []
    for x in range(sx):
        for y in range(sy):
            for z in range(sz):
                v, f = reference_site(model.coloring, (x, y, z), len(verts))
                verts += v
                faces += f
    head = ["OFF", f"{len(verts)} {len(faces)} 0"]
    return "\n".join(head + verts + faces) + "\n"


def reference_xyz(model, region):
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
    comment = f"{model.family} {model.formula} region={a}x{b}x{c} modulus={model.modulus}"
    return "\n".join([str(len(rows)), comment, *rows]) + "\n"


def outcome(render, model, region):
    """The rendered text, or the type and message of the error raised."""
    try:
        return render(model, region)
    except ValueError as exc:
        return type(exc), str(exc)


REGIONS = [(1, 1, 1), (2, 2, 2), (3, 1, 2), (0, 1, 1), (1, 0, 2)]


def off_mismatch(model, region):
    """None when export_off matches reference_off, else the first line
    where they differ: a short message where a failed `==` would make
    pytest diff megabytes of text."""
    got, want = export_off(model, region), reference_off(model, region)
    if got == want:
        return None
    lines = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
    return next(((i, a, b) for i, (a, b) in enumerate(lines) if a != b), (len(got), len(want)))


@pytest.fixture(scope="module")
def models_by_modulus():
    return {
        n: {name: preset(name, n) for name in PRESET_NAMES} for n in (2, 4, 8)
    }


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("modulus", [2, 4, 8])
def test_exports_match_the_reference_renderers(models_by_modulus, modulus, name):
    model = models_by_modulus[modulus][name]
    for region in REGIONS:
        assert off_mismatch(model, region) is None, region
        assert export_xyz(model, region) == reference_xyz(model, region), region


@pytest.mark.parametrize("region", [(4096, 1, 1), (1, 1, 4096), (0, 0, 0)])
def test_off_matches_the_reference_renderer_where_numbers_widen(models, region):
    # at N = 2, 4096 cells along one axis reach the coordinate 8191.200 and
    # vertex numbers of 6 digits, where fixed-width rows could go wrong
    assert off_mismatch(models["rock-salt"], region) is None


def test_off_digit_seams_of_a_wide_region_match_the_reference_line_format(models):
    # at N = 2, (16384, 1, 1) holds 131,072 sites of 2 x 2 in y and z.
    # Sites 125, 1250, 12500 and 125000 start at vertex numbers 1,000,
    # 10,000, 100,000 and 1,000,000, and the x coordinates pass 999.800
    # at x = 1000; the full reference would take minutes, so only the
    # lines around those seams are rendered
    model = models["perovskite"]
    text = export_off(model, (16384, 1, 1))
    data = np.frombuffer(text.encode(), np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    sites = 131_072
    assert text.startswith(f"OFF\n{8 * sites} {6 * sites} 0\n")
    assert len(ends) == 2 + 14 * sites

    def site(s):
        x, rest = divmod(s, 4)
        return x, *divmod(rest, 2)

    def line(i):
        return data[starts[i] : ends[i]].tobytes().decode()

    for s in (124, 125, 1249, 1250, 12499, 12500, 124999, 125000, sites - 1):
        _, faces = reference_site(model.coloring, site(s), 8 * s)
        assert [line(2 + 8 * sites + 6 * s + i) for i in range(6)] == faces, s
    for s in range(4 * 999, 4 * 1001):
        verts, _ = reference_site(model.coloring, site(s), 8 * s)
        assert [line(2 + 8 * s + i) for i in range(8)] == verts, s


@pytest.mark.parametrize(
    "region",
    [
        (3, 5, 7),  # 840 sites: one block of 36 whole z-rows, then 24 rows
        (1, 1, 300),  # z-rows of 600 sites: each is a block of 512 and one of 88
        (51, 1, 1),  # x coordinates widen at 10 and at 100
        (1, 51, 1),
        (1, 1, 51),
        (1, 64, 64),  # one x-plane of 16,384 sites, 32 blocks
        (0, 0, 0),
    ],
)
def test_off_blocks_match_the_reference_renderer(models, region):
    assert off_mismatch(models["rock-salt"], region) is None


@pytest.mark.parametrize("block", [1, 2, 3, 5, 12, 13, 124, 125])
def test_off_block_edges_among_the_first_sites(models, monkeypatch, block):
    # site 1 numbers its corners 8 to 15 and site 12 numbers 96 to 103, so
    # the vertex numbers gain a digit inside one site, at a block edge or
    # inside a block; site 125 starts at 1000.  Blocks shorter than a z-row
    # (16 sites at N = 2, region (3, 3, 8)) split it into runs.
    monkeypatch.setattr(crystal, "_OFF_BLOCK_SITES", block)
    for name in ("NbO", "perovskite"):
        for region in [(3, 3, 3), (1, 2, 8), (3, 1, 1)]:
            assert off_mismatch(models[name], region) is None, (name, region)


@pytest.mark.parametrize("modulus, region", [(8, (4, 4, 4)), (2, (1, 64, 64))])
def test_off_peak_memory_stays_near_the_output(modulus, region):
    # the block texts and their join hold twice the output; each block's
    # scratch adds a bounded amount on top, never a file-sized temporary
    model = preset("perovskite", modulus)
    tracemalloc.start()
    try:
        text = export_off(model, region)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * len(text)


def test_off_of_a_single_color_matches_the_reference_renderer():
    text = "modulus 2\ncolor red\n" + "".join(
        f"{x} {y} {z} red\n" for x in range(2) for y in range(2) for z in range(2)
    )
    model = CrystalModel("one", VertexColoring.from_text(text))
    for region in [*REGIONS, (0, 0, 0)]:
        assert off_mismatch(model, region) is None, region
    assert export_off(model, (0, 0, 0)) == "OFF\n0 0 0\n"


def test_fallback_color_matches_the_reference_renderer(models):
    recolored = with_unknown_label(models["rock-salt"])
    for region in REGIONS:
        assert off_mismatch(recolored, region) is None, region
        assert export_xyz(recolored, region) == reference_xyz(recolored, region), region


tokens = st.from_regex(r"[A-Za-z0-9_.-]{1,8}", fullmatch=True)


@st.composite
def text_models(draw):
    """A model on a total, onto coloring read with `from_text`: token or
    palette labels, optional element symbols and background flags."""
    n = draw(st.sampled_from((2, 4)))
    labels = draw(
        st.lists(st.sampled_from(sorted(PALETTE)) | tokens, min_size=1, max_size=6, unique=True)
    )
    lines = [f"modulus {n}"]
    for label in labels:
        element = draw(st.none() | tokens)
        parts = ["color", label]
        if element is not None:
            parts += ["element", element]
        if draw(st.booleans()):
            parts.append("background")
        lines.append(" ".join(parts))
    k = len(labels)
    rest = draw(st.lists(st.integers(0, k - 1), min_size=n**3 - k, max_size=n**3 - k))
    cells = draw(st.permutations(list(range(k)) + rest))
    vertices = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    lines += [f"{x} {y} {z} {labels[c]}" for (x, y, z), c in zip(vertices, cells)]
    return CrystalModel("random", VertexColoring.from_text("\n".join(lines) + "\n"))


@settings(max_examples=40, deadline=None)
@given(text_models(), st.tuples(*[st.integers(0, 3)] * 3))
def test_exports_of_random_colorings_match_the_reference_renderers(model, region):
    assert off_mismatch(model, region) is None
    assert outcome(export_xyz, model, region) == outcome(reference_xyz, model, region)
