"""What a fresh interpreter loads: the presets' pipelines and a CLI command
must not import `numpy.ma`, which numpy loads on the first call of
`np.unique` and which costs more than a whole preset pipeline at N = 4."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import honeycomb434

PACKAGE_ROOT = str(Path(honeycomb434.__file__).resolve().parent.parent)

PIPELINES = textwrap.dedent(
    """
    import sys
    import honeycomb434 as hc
    from honeycomb434.cli import main

    for name in ("rock-salt", "nbo", "reo3", "perovskite"):
        model = hc.preset(name, 4)
        coloring = model.coloring
        h = coloring.recipe.group
        decomp = hc.decompose(h)
        for plan in coloring.recipe.plans:
            rep = decomp.orbits[plan.orbit].representative
            assert hc.verify_theorem(h, plan.subgroup, rep, coloring).ok
        hc.color_group(coloring)
        hc.export_xyz(model, (1, 1, 1))
        hc.export_off(model, (2, 2, 2))
        hc.export_report(model)
    assert main(["color", "--config", "rock-salt", "--out-dir", sys.argv[1]]) == 0
    print("numpy.ma" in sys.modules)
    """
)


def test_the_preset_pipelines_and_a_cli_command_do_not_import_numpy_ma(tmp_path):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", PIPELINES, str(tmp_path)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"
