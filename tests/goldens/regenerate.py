#!/usr/bin/env python
"""Regenerate the golden report snapshots in this directory.

Run after an *intentional* behaviour change::

    PYTHONPATH=src python tests/goldens/regenerate.py [NAME ...]

With names (``all_large``, ``table2_small``, ...) only those goldens are
rewritten; ``all_large`` alone takes several seconds.
Each golden is the ``workers=1`` rendering of a small-world artifact (see
cases.py).  Review the diff before committing — a golden that moved without
a deliberate model change means determinism broke somewhere.
"""

from __future__ import annotations

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from tests.goldens.cases import GOLDEN_CASES  # noqa: E402


def main(names=None) -> int:
    names = names or list(GOLDEN_CASES)
    unknown = sorted(set(names) - set(GOLDEN_CASES))
    if unknown:
        print(f"[golden] unknown case(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for name in names:
        build = GOLDEN_CASES[name]
        target = HERE / f"{name}.txt"
        text = build()
        target.write_text(text + "\n", encoding="utf-8")
        print(f"[golden] wrote {target.relative_to(REPO)} ({len(text)} chars)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
