"""The benchmark's jobs of seed 0, on every workload, give the stored answers,
and so do the seeded jobs of two more stored seed classes.

Each job runs in-process through ``hlab.cli.main`` with ``--output machine``,
and its report is checked by ``perfbench/checks.check_job`` against
``perfbench/answers.json``, closed-form oracles included.  A changed report
then fails this suite and not only a benchmark run, and every benchmark
argv goes through the CLI's parser.  ``perfbench/`` is only read: its
modules are loaded from their files, as the benchmark imports them.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from hlab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py under its own name (its siblings import it so)."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


gen = _load("gen")
checks = _load("checks")
STORE = checks.load_store()
SEED = 0
GRID = {workload: gen.build(workload, SEED) for workload in ("hrr", "kahler", "hermitian")}
JOBS = [(workload, job) for workload, wl in GRID.items() for job in wl.jobs]


def test_grid_is_the_benchmark_grid():
    assert [len(GRID[w].jobs) for w in ("hrr", "kahler", "hermitian")] == [43, 7, 8]
    for workload, wl in GRID.items():
        for name, tree in wl.docs.items():
            assert checks.sha256(tree) == checks.stored_doc_digest(STORE, workload, SEED, name), name


@pytest.mark.parametrize("workload,job", JOBS, ids=[f"{w}:{job.id}" for w, job in JOBS])
def test_bench_job_gives_the_stored_answer(tmp_path, workload, job):
    paths = {}
    for name, tree in GRID[workload].docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(tree))
    argv = [*job.argv, *(["--input", paths[job.doc]] if job.doc else []), "--output", "machine"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    entry = checks.stored_entry(STORE, workload, SEED, job)
    assert checks.check_job(job, code, out.getvalue(), entry) == []


def test_seeded_jobs_of_other_seed_classes_give_the_stored_answers(tmp_path):
    # class 13 is that of seed 1501 (1501 % SEED_PERIOD)
    failed, ran = {}, 0
    for seed in (7, 13):
        for workload in GRID:
            wl = gen.build(workload, seed)
            paths = {}
            for name, tree in wl.docs.items():
                paths[name] = str(tmp_path / f"{seed}-{workload}-{name}.json")
                Path(paths[name]).write_text(json.dumps(tree))
            for job in (job for job in wl.jobs if job.seeded):
                argv = [*job.argv, *(["--input", paths[job.doc]] if job.doc else []), "--output", "machine"]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                entry = checks.stored_entry(STORE, workload, seed, job)
                ran += 1
                if problems := checks.check_job(job, code, out.getvalue(), entry):
                    failed[f"{seed}:{workload}:{job.id}"] = problems
    assert ran == 78
    assert failed == {}
