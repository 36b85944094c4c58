#!/usr/bin/env python3
"""Fails when bench_micro's newest BENCH_micro.json entry moves a checksum.

    python3 tools/check_micro_checksums.py [BENCH_micro.json]

bench_micro appends one entry per run, so after a run the newest entry
is the fresh one. Its (benchmark, subscriptions) checksums are compared
with those of the newest earlier entry at the same --scale; rows present
on only one side are skipped. Exit status: 0 when every shared checksum
agrees, 1 when one differs, 2 when the file cannot be read or holds no
earlier entry at that scale.
"""

import json
import sys


def checksums(entry):
    return {(r["benchmark"], r["subscriptions"]): r["checksum"]
            for r in entry["results"]}


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_micro.json"
    try:
        with open(path, encoding="utf-8") as f:
            entries = json.load(f)["entries"]
        fresh = entries[-1]
        base = next((e for e in reversed(entries[:-1])
                     if e["scale"] == fresh["scale"]), None)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        print(f"check_micro_checksums: cannot read {path}: {e!r}",
              file=sys.stderr)
        return 2
    if base is None:
        print(f"check_micro_checksums: no earlier entry at scale "
              f"{fresh['scale']} in {path}", file=sys.stderr)
        return 2

    want, got = checksums(base), checksums(fresh)
    shared = sorted(want.keys() & got.keys())
    moved = [key for key in shared if want[key] != got[key]]
    for name, subs in moved:
        print(f"checksum moved: {name} at {subs} subscriptions: "
              f"{want[(name, subs)]} -> {got[(name, subs)]}")
    print(f"{len(shared) - len(moved)}/{len(shared)} shared checksums match "
          f"the entry with timestamp {base['timestamp']} "
          f"(scale {fresh['scale']})")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
