"""Rebuild reference_data.json, the frozen answers the benchmark checks.

Run from the repository root:  python3 perfbench/make_reference.py
It uses only reference.py (no fgkit), so the answers are independent of
the code under test.  The file only needs rebuilding if a workload's
instance set changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import reference as ref
import workloads


def main() -> int:
    points = sorted(set(workloads.instances("sweep-serial") + workloads.instances("large-genus")))
    data = {
        "about": "answers from perfbench/reference.py for every (g, l) the workloads run",
        "instances": {f"{g},{l}": ref.instance_answers(g, l) for g, l in points},
    }
    path = Path(__file__).with_name("reference_data.json")
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(points)} instances to {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
