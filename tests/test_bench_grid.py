"""The benchmark's jobs of seed 0, on every workload, give the stored answers,
and so do the seeded jobs of two more stored seed classes.

Each job runs in-process through ``hlab.cli.main`` with ``--output machine``,
and its report is checked by ``perfbench/checks.check_job`` against
``perfbench/answers.json``, closed-form oracles included.  A changed report
then fails this suite and not only a benchmark run, and every benchmark
argv goes through the CLI's parser.  ``perfbench/`` is only read, through
the loader and the seed-0 grid of ``conftest.py``.
"""

import pytest
from conftest import bench_grid, perfbench, run_hlab, write_doc

checks = perfbench("checks")
STORE = checks.load_store()
SEED = 0
GRID = bench_grid(SEED)
JOBS = [(workload, job) for workload, wl in GRID.items() for job in wl.jobs]


def _argv(job, paths):
    """The job's argv, in machine mode, with its document's path from ``paths``."""
    return [*job.argv, *(["--input", paths[job.doc]] if job.doc else []), "--output", "machine"]


def test_grid_is_the_benchmark_grid():
    assert [len(GRID[w].jobs) for w in ("hrr", "kahler", "hermitian")] == [43, 7, 8]
    for workload, wl in GRID.items():
        for name, tree in wl.docs.items():
            assert checks.sha256(tree) == checks.stored_doc_digest(STORE, workload, SEED, name), name


@pytest.mark.parametrize("workload,job", JOBS, ids=[f"{w}:{job.id}" for w, job in JOBS])
def test_bench_job_gives_the_stored_answer(grid_docs, workload, job):
    code, out, _ = run_hlab(_argv(job, grid_docs[workload]))
    entry = checks.stored_entry(STORE, workload, SEED, job)
    assert checks.check_job(job, code, out, entry) == []


def test_seeded_jobs_of_other_seed_classes_give_the_stored_answers(tmp_path):
    # class 13 is that of seed 1501 (1501 % SEED_PERIOD)
    failed, ran = {}, 0
    for seed in (7, 13):
        for workload, wl in bench_grid(seed).items():
            paths = {
                name: write_doc(tmp_path, tree, f"{seed}-{workload}-{name}.json") for name, tree in wl.docs.items()
            }
            for job in (job for job in wl.jobs if job.seeded):
                code, out, _ = run_hlab(_argv(job, paths))
                entry = checks.stored_entry(STORE, workload, seed, job)
                ran += 1
                if problems := checks.check_job(job, code, out, entry):
                    failed[f"{seed}:{workload}:{job.id}"] = problems
    assert ran == 78
    assert failed == {}
