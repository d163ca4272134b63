"""Workload items of the benchmark, what each one outputs, and the checks.

An item of `presets-n4` or `groups-n8` is one preset's library pipeline; an
item of `cli-n2` is one CLI command, run in its own interpreter.  Items
report a summary of their outputs (sha256 of every exported text, orders,
indices, orbit counts, color counts, color-group order, theorem verdicts),
which `check` compares with the frozen reference and with the values that
follow from the modulus alone.

This module imports nothing from the package, so the runner can use it.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

PRESETS = ("rock-salt", "nbo", "reo3", "perovskite")

# the generating word sets behind the presets, as a CLI user types them
WORD_SETS = {
    "full": ("P", "Q", "R", "S"),
    "half": ("Q", "R", "S", "PQP"),
    "quarter": ("Q", "R", "S", "QPQRQPQRP"),
    "eighth": ("Q", "R", "S", "(SRQPQR)^2"),
}

OUT = "{out}"  # placeholder for the command's temporary output directory


class Workload(NamedTuple):
    kind: str  # "library" or "cli"
    modulus: int
    theorem: bool  # library only: run verify_theorem for every plan
    items: tuple[str, ...]


def _cli_items() -> dict[str, list[str]]:
    commands = {}
    for name in PRESETS:
        commands[f"color:{name}"] = ["color", "--config", name, "--out-dir", OUT]
        commands[f"export:{name}"] = ["export", "--config", name, "--out-dir", OUT]
    commands["check"] = ["check"]
    for name, words in WORD_SETS.items():
        commands[f"subgroup:{name}"] = ["subgroup", *words]
        commands[f"orbits:{name}"] = ["orbits", *words]
    return commands


CLI_COMMANDS = _cli_items()

WORKLOADS = {
    "presets-n4": Workload("library", 4, True, PRESETS),
    "groups-n8": Workload("library", 8, False, PRESETS),
    "cli-n2": Workload("cli", 2, False, tuple(CLI_COMMANDS)),
}


def preset_of(item: str) -> str | None:
    """The preset whose latency an item counts toward, if any.

    On the CLI workload a preset's latency is its `color` plus its
    `export` command."""
    if item in PRESETS:
        return item
    command, _, name = item.partition(":")
    return name if command in ("color", "export") else None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_library_item(hc, name: str, modulus: int, theorem: bool) -> dict:
    """preset -> verify_theorem per plan -> color_group -> stoichiometry ->
    xyz (1,1,1), OFF (2,2,2) and report exports."""
    model = hc.preset(name, modulus)
    coloring = model.coloring
    recipe = coloring.recipe
    h = recipe.group
    decomp = hc.decompose(h)
    verdicts = []
    if theorem:
        for plan in recipe.plans:
            rep = decomp.orbits[plan.orbit].representative
            report = hc.verify_theorem(h, plan.subgroup, rep, coloring)
            verdicts += [[part.part, part.ok] for part in report.parts]
    cg = hc.color_group(coloring)
    st = hc.stoichiometry(coloring)
    texts = {
        "xyz": hc.export_xyz(model, (1, 1, 1)),
        "off": hc.export_off(model, (2, 2, 2)),
        "report": hc.export_report(model),
    }
    return {
        "family": model.family,
        "group_order": h.parent.order,
        "coloring_group_order": h.order,
        "indices": [h.parent.order // h.order]
        + [h.order // plan.subgroup.order for plan in recipe.plans],
        "orbits": len(decomp.orbits),
        "counts": coloring.counts(),
        "color_group_order": cg.subgroup.order,
        "ratio": st.ratio_text,
        "theorem": verdicts,
        "sha256": {kind: sha256(text) for kind, text in texts.items()},
    }


def cli_argv(item: str, out_dir: str) -> list[str]:
    return [out_dir if arg == OUT else arg for arg in CLI_COMMANDS[item]]


def cli_outputs(code: int, stdout: str, out_dir: str, files: dict[str, str]) -> dict:
    """Exit code, normalised stdout digest and the digest of every file."""
    return {
        "exit": code,
        "stdout": sha256(stdout.replace(out_dir, OUT)),
        "files": {path: sha256(text) for path, text in sorted(files.items())},
    }


def check(workload: str, item: str, outputs: dict, reference: dict) -> list[str]:
    """Problems with one item's outputs; empty when the item is correct."""
    problems = []
    ref = reference["workloads"].get(workload, {}).get(item)
    if ref is None:
        return [f"{workload}/{item}: no reference"]
    for key in sorted(set(ref) | set(outputs)):
        if outputs.get(key) != ref.get(key):
            problems.append(f"{workload}/{item}: {key} {outputs.get(key)!r} != {ref.get(key)!r}")
    spec = WORKLOADS[workload]
    if spec.kind == "library":
        n = spec.modulus
        scale = (n // 2) ** 3
        n2 = reference["n2"][item]
        expected = {
            "group_order": 48 * n**3,
            "counts": {label: c * scale for label, c in n2["counts"].items()},
            "color_group_order": n2["color_group_order"] * scale,
        }
        for key, value in expected.items():
            if outputs.get(key) != value:
                problems.append(
                    f"{workload}/{item}: {key} {outputs.get(key)!r} != {value!r} (formula)"
                )
        if spec.theorem and not all(ok for _, ok in outputs.get("theorem", [])):
            problems.append(f"{workload}/{item}: a theorem part failed")
    elif outputs.get("exit") != 0:
        problems.append(f"{workload}/{item}: exit code {outputs.get('exit')}")
    return problems
