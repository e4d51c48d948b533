"""Compare two run records written to ``.perfbench/`` by ``run.py``.

    python3 perfbench/compare.py BASE.json CHANGE.json

Prints each metric of both records and their ratio, after the host and
build fingerprints.  Records whose PRG backend differs measured different
code paths: they are flagged as not comparable and the exit status is 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import host


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (json.loads(Path(path).read_text()) for path in argv)
    comparable, notes = host.comparability(base["host"], change["host"])
    for note in notes:
        print("fingerprint differs: " + note)
    if not comparable:
        print("NOT COMPARABLE: the results ran different PRG backends")
    for name, m in base["metrics"].items():
        other = change["metrics"].get(name)
        if other is None or m["value"] is None or other["value"] is None:
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print(f"{name:32s} {m['value']:>14.6g} {other['value']:>14.6g} "
              f"{m['unit']:6s} x{ratio:.4f}")
    return 0 if comparable else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
