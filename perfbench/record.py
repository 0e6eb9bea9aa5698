"""Record the stored answers (answers.json) from the current sources.

    python3 perfbench/record.py

Run from the repository root.  Every job of every workload runs once per
seed residue (a job whose inputs do not depend on the seed runs once), as a
fresh CLI process like in a timed run.  An answer that fails its oracle is
not recorded; the script exits 1 instead.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import checks
import gen
import run

WORKERS = 2


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "hlab", "cli.py")):
        print("error: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    workdir = os.path.join(run.WORK, "record")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = run.Runner(workdir, deadline=float("inf"), calibrated=False)
    store = {"seed_period": gen.SEED_PERIOD}
    tasks = []
    for workload in gen.WORKLOADS:
        part = store[workload] = {"docs": {}, "fixed": {}, "seeded": {}}
        for key in range(gen.SEED_PERIOD):
            wl = gen.build(workload, key)
            paths = {}
            part["docs"][str(key)] = {}
            for name, tree in wl.docs.items():
                paths[name] = os.path.join(workdir, f"{workload}-{key}-{name}.json")
                with open(paths[name], "w") as fh:
                    json.dump(tree, fh)
                part["docs"][str(key)][name] = checks.sha256(tree)
            for job in wl.jobs:
                if job.seeded:
                    slot = part["seeded"].setdefault(str(key), {})
                elif key == 0:
                    slot = part["fixed"]
                else:
                    continue
                tasks.append((slot, job, run.job_argv(job, paths)))

    def one(task):
        slot, job, argv = task
        timed = runner.run(["-m", "hlab", *argv])
        if timed.exit_code != 0:
            return job.id, [f"exit code {timed.exit_code}"]
        results = json.loads(timed.stdout)["results"]
        problems = checks.check_oracle(job, results)
        if not problems:
            slot[job.id] = checks.record_entry(results)
        return job.id, problems

    bad = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        for job_id, problems in pool.map(one, tasks):
            if problems:
                bad += 1
                print(f"FAILED {job_id}: {problems}", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    if not os.listdir(run.WORK):
        os.rmdir(run.WORK)
    if bad:
        return 1
    with open(checks.STORE_PATH, "w") as fh:
        json.dump(store, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(tasks)} answers in {checks.STORE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
