"""Exact symmetry computations and crystal colorings on the cubic honeycomb.

The vertices of the honeycomb are the integer lattice points; the full
symmetry group is generated by four mirror reflections P, Q, R, S.  This
package works in the finite quotient modulo an even period N, with
translation certificates tying subgroups given by generator words back to
the infinite group.  On top of that sit orbit/stabilizer computations,
coset colorings with their color groups, and crystal-structure models
(rock salt, NbO, ReO3, perovskite) with xyz/off/report exports.
"""

from .isometry import (
    GENERATORS,
    IDENTITY,
    MIRROR_NORMALS,
    RELATORS,
    Isometry,
    WordError,
    check_presentation,
    dihedral_angle,
    dihedral_angle_check,
    eval_word,
    parse_word,
    perturbed_generators,
    translation,
)
from .quotient import (
    CertificationError,
    SubgroupError,
    TorusGroup,
    build_group,
    build_subgroup,
    certify_translations,
    index,
    left_cosets,
)
from .orbits import Orbit, decompose
from .coloring import (
    OrbitPlan,
    PlanError,
    VertexColoring,
    build_coloring,
    color_group,
    stoichiometry,
    verify_theorem,
)
from .crystal import (
    PALETTE,
    PRESET_NAMES,
    export,
    export_off,
    export_report,
    export_xyz,
    formula_of,
    preset,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "GENERATORS",
    "IDENTITY",
    "MIRROR_NORMALS",
    "RELATORS",
    "Isometry",
    "WordError",
    "check_presentation",
    "dihedral_angle",
    "dihedral_angle_check",
    "eval_word",
    "parse_word",
    "perturbed_generators",
    "translation",
    "CertificationError",
    "SubgroupError",
    "TorusGroup",
    "build_group",
    "build_subgroup",
    "certify_translations",
    "index",
    "left_cosets",
    "Orbit",
    "decompose",
    "OrbitPlan",
    "PlanError",
    "VertexColoring",
    "build_coloring",
    "color_group",
    "stoichiometry",
    "verify_theorem",
    "PALETTE",
    "PRESET_NAMES",
    "export",
    "export_off",
    "export_report",
    "export_xyz",
    "formula_of",
    "preset",
    "substitute",
    "__version__",
]
