"""``python -m repro.bench REPORT.jsonl ...`` — print the latest tables.

For every experiment in the given JSONL report files, prints the rows of
its most recent run as one table (with the spec's title and plot).  This
is how EXPERIMENTS.md's tables are regenerated from the committed
``BENCH_paper.jsonl``.
"""

from __future__ import annotations

import argparse

from .experiment import latest, read_jsonl, report
from .specs import SPECS


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Print the latest run of every experiment in JSONL reports.",
    )
    parser.add_argument("reports", nargs="+", metavar="JSONL", help="report files")
    arguments = parser.parse_args(argv)
    for name, rows in latest(read_jsonl(*arguments.reports)).items():
        print(report(SPECS.get(name), rows))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
