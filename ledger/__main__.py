"""``python -m ledger run|repeat|selftest`` — see ledger/README.md."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _find_system() -> None:
    """Put this checkout's ``src/`` first on the path.

    The ledger measures the ``repro`` that sits beside it — never one
    installed elsewhere, or two commits would be compared on one copy of
    the code.  A checkout without it has nothing to measure: an error.
    """
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.stderr.write(f"ledger: the system under test is missing (no {source}/repro)\n")
        raise SystemExit(2)
    sys.path.insert(0, source)


if __name__ == "__main__":
    _find_system()
    from ledger.cli import main

    sys.exit(main(sys.argv[1:]))
