"""Compare the check records of two ``hyw run`` reports.

    python3 tools/report_diff.py before.jsonl after.jsonl

Pairs the ``"record": "check"`` lines of the two reports in order and
prints one line: the number of checks, how many verdicts changed, how many
lhs and rhs values differ in any bit, and the largest relative change of an
lhs or rhs, |after - before| / |before|, with the name of its check.  A
value that is the same non-finite string in both ("nan", "inf") has not
changed; one that becomes or stops being non-finite, or moves away from 0,
has changed infinitely.  Exits 1 when a verdict changed or the reports hold
different numbers of checks, 0 otherwise, and 2 on a usage error.
"""

from __future__ import annotations

import json
import math
import sys


def checks(path: str) -> list:
    """The check records of the report at path, in report order."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.startswith("{")]
    return [r for r in records if r.get("record") == "check"]


def relative_change(before, after) -> float:
    """|after - before| / |before|; 0 when equal, inf from 0 or a non-finite value."""
    if before == after:
        return 0.0
    if isinstance(before, str) or isinstance(after, str) or before == 0:
        return math.inf
    return abs(after - before) / abs(before)


def compare(before: list, after: list) -> tuple:
    """(summary line, exit code) for two lists of check records."""
    flips = changed = 0
    worst, where = 0.0, "none"
    for old, new in zip(before, after):
        flips += old["passed"] != new["passed"]
        for side in ("lhs", "rhs"):
            change = relative_change(old[side], new[side])
            changed += old[side] != new[side]
            if change > worst:
                worst, where = change, f"{new['name']} {side}"
    count = f"{len(before)} checks" if len(before) == len(after) else f"{len(before)} against {len(after)} checks"
    line = f"{count}, {flips} verdict changes, {changed} values changed, worst relative change {worst:.3g} ({where})"
    return line, int(bool(flips) or len(before) != len(after))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: report_diff.py BEFORE AFTER", file=sys.stderr)
        return 2
    line, code = compare(checks(args[0]), checks(args[1]))
    print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
