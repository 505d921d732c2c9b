"""Record the input and output digests that run.py checks outputs against.

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED [WORKLOAD ...]

Runs every call of every workload (or of the named ones) once per seed,
each in a fresh child, and writes digests.json.  A call that fails (non-zero exit, stderr, a
FAIL row, or a failed reference-free check) stops the recording: only
outputs the program produced cleanly are recorded.  Rerun it only when
the workloads or their inputs change; a program change that alters an
output is what the recorded digests are there to catch.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from run import DIGESTS, HERE, Runner, call_problems, reference_free_problems, sha256
from workloads import WORKLOADS


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    names = sys.argv[3:] or list(WORKLOADS)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    (HERE / "work").mkdir(exist_ok=True)
    for workload in names:
        make = WORKLOADS[workload]
        for seed in range(first, last + 1):
            workdir = Path(tempfile.mkdtemp(prefix=f"record-{workload}-{seed}-", dir=HERE / "work"))
            try:
                runner = Runner(workdir, perf_counter() + 600)
                calls, files, checks = make(seed, workdir)
                entry = {"inputs": {name: sha256(Path(p).read_bytes()) for name, p in files.items()}}
                for label, argv in calls:
                    res = runner.gpd(argv)
                    bad = call_problems(label, res, checks[label], None, {}) or \
                        reference_free_problems(runner, label, res["stdout"], checks[label])
                    if bad:
                        print(f"{workload} seed {seed} {label}: {bad}", file=sys.stderr)
                        return 1
                    entry[label] = sha256(res["stdout"])
                    print(f"{workload} seed {seed} {label} {res['wall']:.2f}s", flush=True)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            digests.setdefault(workload, {})[str(seed)] = entry
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
