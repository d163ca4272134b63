"""sha256 digests of the package's deterministic outputs, for checking that
a change leaves them byte-identical.

Run from the repository root, once on each tree to compare:

    PYTHONPATH=src python tests/identity_digest.py

It prints one line per digest, `<name> <sha256 hex>`.  The expected
lines are committed as `tests/identity_digests.txt`, so a change in bytes
shows as a diff:

    PYTHONPATH=src python tests/identity_digest.py | diff tests/identity_digests.txt -

Each digest feeds UTF-8 text to one sha256, in this order:

- exports: for N = 2, 4, 8 and 16, then each preset in `PRESET_NAMES`
  order, four texts in turn: `export_report`, `export_xyz` over the
  region (1, 1, 1), `export_off` over (2, 2, 2) and the coloring's
  `to_text()`.
- sweep: the theorem reports for N = 2, 4 and 8.  The groups are full
  <P,Q,R,S>, half <Q,R,S,PQP>, quarter <Q,R,S,QPQRQPQRP> and eighth
  <Q,R,S,(SRQPQR)^2>, each certified, and <PQP,R,S>, which has no
  certificate, in that order.  The pairs (H, J) with J within H run over
  H, then J, in that order: 12 pairs.  For each N, each preset in
  `PRESET_NAMES` order, each pair and each x in (0,0,0), (0,0,1),
  (0,1,1), (1,1,1), one line `repr((N, preset, H name, J name, x,
  report))`; the 576 lines are joined by newlines.
- witnesses: for N = 2, 4, 8 and 16, then each word set of
  `conftest.WORDS` in order, one line `repr((N, name,
  translation_lattice, witness words))`, each witness word its letters
  joined into one string; the lines are joined by newlines.
- wide-off: `export_off` of the N = 2 perovskite over the region
  (16384, 1, 1), 131,072 sites.  Its vertex numbers reach 7 digits and
  its x coordinates 32767.200, widths that no region of the other
  digests reaches.
"""

from __future__ import annotations

import hashlib

from honeycomb434 import build_group, build_subgroup, certify_translations, verify_theorem
from honeycomb434.crystal import PRESET_NAMES, export_off, export_report, export_xyz, preset

from conftest import WORDS

SWEEP_WORDS = {
    "full": ("P", "Q", "R", "S"),
    "half": ("Q", "R", "S", "PQP"),
    "quarter": ("Q", "R", "S", "QPQRQPQRP"),
    "eighth": ("Q", "R", "S", "(SRQPQR)^2"),
    "<PQP,R,S>": ("PQP", "R", "S"),
}
UNCERTIFIED = {"<PQP,R,S>"}
SWEEP_VERTICES = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))


def export_digest(moduli=(2, 4, 8, 16)) -> str:
    digest = hashlib.sha256()
    for n in moduli:
        for name in PRESET_NAMES:
            model = preset(name, n)
            texts = (
                export_report(model),
                export_xyz(model, (1, 1, 1)),
                export_off(model, (2, 2, 2)),
                model.coloring.to_text(),
            )
            for text in texts:
                digest.update(text.encode())
    return digest.hexdigest()


def sweep_reports(moduli=(2, 4, 8)):
    """The sweep's (N, preset, H name, J name, x, report) tuples, in order."""
    for n in moduli:
        full = build_group(n)
        subs = {}
        for name, words in SWEEP_WORDS.items():
            sub = build_subgroup(full, words)
            subs[name] = sub if name in UNCERTIFIED else certify_translations(sub)
        pairs = [(a, b) for a in subs for b in subs if subs[b].within(subs[a])]
        for name in PRESET_NAMES:
            coloring = preset(name, n).coloring
            for a, b in pairs:
                for x in SWEEP_VERTICES:
                    yield n, name, a, b, x, verify_theorem(subs[a], subs[b], x, coloring)


def sweep_digest(moduli=(2, 4, 8)) -> str:
    lines = [repr(row) for row in sweep_reports(moduli)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def witness_digest(moduli=(2, 4, 8, 16)) -> str:
    lines = []
    for n in moduli:
        full = build_group(n)
        for name, words in WORDS.items():
            sub = certify_translations(build_subgroup(full, words))
            spelled = tuple("".join(w.word) for w in sub.translation_certificate)
            lines.append(repr((n, name, sub.translation_lattice, spelled)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def wide_off_digest() -> str:
    text = export_off(preset("perovskite", 2), (16384, 1, 1))
    return hashlib.sha256(text.encode()).hexdigest()


def digests(export_moduli=(2, 4, 8, 16), sweep_moduli=(2, 4, 8), witness_moduli=(2, 4, 8, 16)) -> dict:
    return {
        "exports": export_digest(export_moduli),
        "sweep": sweep_digest(sweep_moduli),
        "witnesses": witness_digest(witness_moduli),
    }


if __name__ == "__main__":
    for key, value in {**digests(), "wide-off": wide_off_digest()}.items():
        print(key, value)
