"""Summarise recorded benchmark runs, one group per host fingerprint.

Usage, from the root of a checkout::

    python3 perfbench/compare.py [RECORDS]

``RECORDS`` defaults to ``.perfbench/records.jsonl``, which every run of
``run.py`` appends to.  Records are grouped by host fingerprint id,
workload and mode (traced or not); within a group each source version
(commit, or the digest of ``src/`` outside git) gets the median and
quartiles of every metric.  Records whose fingerprints differ are never
put in one group, so numbers from different hosts are never compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

DEFAULT_RECORDS = Path(__file__).resolve().parent.parent / ".perfbench" / "records.jsonl"


def load(path: Path) -> List[dict]:
    with path.open() as records:
        return [json.loads(line) for line in records if line.strip()]


def groups(records: List[dict]) -> Dict[tuple, Dict[str, List[dict]]]:
    """(fingerprint id, workload, trace) -> source version -> records."""
    grouped: Dict[tuple, Dict[str, List[dict]]] = defaultdict(lambda: defaultdict(list))
    for record in records:
        key = (record["fingerprint_id"], record["workload"], record["trace"])
        version = record["commit"] or f"src:{record['source_digest']}"
        grouped[key][version].append(record)
    return grouped


def summary(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    low, middle, high = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{low:.6g} .. {high:.6g}]"


def main(argv: List[str]) -> int:
    path = Path(argv[0]) if argv else DEFAULT_RECORDS
    if not path.exists():
        print(f"no records at {path}", file=sys.stderr)
        return 2
    for (fingerprint, workload, trace), versions in sorted(groups(load(path)).items()):
        section = "per_layer" if trace else "end_to_end"
        print(f"host {fingerprint}  {workload}  {section}")
        for version, records in versions.items():
            print(f"  {version[:12]}  ({len(records)} runs)")
            for name in records[0][section]:
                values = [record[section][name] for record in records]
                print(f"    {name:<28} {summary(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
