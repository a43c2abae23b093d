"""Record the verdict digest of every workload for seeds 0..99.

    PYTHONPATH=src python3 perfbench/record_digests.py

Runs each workload once per seed and writes `digests.json` beside this
file.  The digests pin the verdicts of the commit that records them: the
benchmark fails every item of a pass whose digest differs.  A pass whose
digest disagrees with one already in `digests.json` fails here too, so
nothing is overwritten; delete the file first only when the workload inputs
change, never to make a failing pass agree.
"""

import json
import sys

import workloads

SEEDS = range(100)


def main() -> int:
    table: dict[str, dict[str, str]] = {}
    for name in workloads.WORKLOADS:
        seeds = table[name] = {}
        for seed in SEEDS:
            res = workloads.RUNNERS[name](seed)
            if res.failed:
                print(f"{name} seed {seed}: {res.failed} failed: {res.errors}", file=sys.stderr)
                return 1
            seeds[str(seed)] = res.digest
        print(f"{name}: seeds {SEEDS[0]}..{SEEDS[-1]} recorded", file=sys.stderr)
    workloads.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
