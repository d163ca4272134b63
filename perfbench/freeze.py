"""Freeze the reference outputs of every benchmark item at the current commit.

Usage (from the repository root):

    python3 perfbench/freeze.py

Rewrites `perfbench/reference.json`.  The benchmark counts any difference
from this file as a failed item, so rerun this only in a change whose
purpose is to alter an output, and say so in that change.  `n2` holds the
modulus-2 color counts and color-group orders from which `items.check`
derives the values at larger moduli by formula.
"""

import json
import sys
from pathlib import Path

import items
import worker

HERE = Path(__file__).resolve().parent


def main() -> None:
    hc = worker._import_package(HERE.parent / "src", "cli")
    tmp = HERE / "out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    reference = {"n2": {}, "workloads": {}}
    for name in items.PRESETS:
        out = items.run_library_item(hc, name, 2, True)
        reference["n2"][name] = {"counts": out["counts"], "color_group_order": out["color_group_order"]}
    for workload, spec in items.WORKLOADS.items():
        frozen = reference["workloads"][workload] = {}
        for item in spec.items:
            if spec.kind == "cli":
                frozen[item] = worker._run_cli(hc, item, str(tmp), {}, worker.Speedometer())
            else:
                frozen[item] = items.run_library_item(hc, item, spec.modulus, spec.theorem)
            print(f"{workload}/{item}", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
