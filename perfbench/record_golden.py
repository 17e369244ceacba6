"""Write golden.json: the digest of the canonical output of every job whose
inputs do not depend on the seed (formal rungs, Honda brackets, universal
congruences, trinomials, the verify grid, schedules, README commands).

    python3 perfbench/record_golden.py

Run it from the checkout root only at a commit whose outputs are trusted:
the benchmark compares every later run with these values.  A job that
fails here is recorded as null, which leaves it to its oracle.
"""

import json
import os
import shutil
import sys
import tempfile
from hashlib import sha256
from pathlib import Path

import run

if __name__ == "__main__":
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads
    from cli_workload import cli_workload

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        jobs = [j for build in workloads.BUILDERS.values() for j in build(0).jobs]
        jobs += cli_workload(0, run.ROOT, tmp, False, [], os.sched_getaffinity(0)).jobs
        golden = {}
        for job in sorted((j for j in jobs if j.golden), key=lambda j: j.id):
            if job.id in golden:
                continue
            try:
                text = job.canon(job.run())
            except Exception as e:
                print(f"{job.id}: failed ({type(e).__name__}: {e}); recorded as null")
                golden[job.id] = None
                continue
            golden[job.id] = sha256(text.encode()).hexdigest()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = run.PERFBENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} golden values written to {path}")
