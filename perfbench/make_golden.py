"""Write perfbench/golden.json: digests of the first ops of each workload.

Run from the repository root, only when a change is meant to alter seeded
output:

    python3 perfbench/make_golden.py

Each op runs at its workload's thread count with the default seed; run.py
compares its outputs at that seed, and a pinned op at one thread on every
run, against these digests.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# enough ops to cover a run of 20 s on a 2-vCPU machine about twice over
OPS = {"fixed-binary": 160, "wide-alphabet": 32, "small-poisson": 80, "shape-law": 64}


def main():
    digests = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        digests[name] = [
            hashlib.sha256(workload.op(DEFAULT_SEED, i).execute(workload.threads())).hexdigest()[:32]
            for i in range(OPS[name])
        ]
        print(f"{name}: {OPS[name]} digests", file=sys.stderr)
    path = Path(__file__).resolve().parent / "golden.json"
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=1) + "\n")


if __name__ == "__main__":
    main()
