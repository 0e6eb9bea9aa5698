"""The benchmark's own checks: a wrong answer must count as a failure.

    python3 -m pytest perfbench/test_checks.py

Run from the repository root.  Jobs run in-process through ``hlab.cli.main``
on the cheapest documents of the stored seed 0.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from hlab import cli  # noqa: E402

STORE = checks.load_store()


def _job(workload, job_id, seed=0):
    wl = gen.build(workload, seed)
    job = next(j for j in wl.jobs if j.id == job_id)
    return wl, job


def _report(wl, job, tmp_path):
    paths = {}
    for name, tree in wl.docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(tree, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(run.job_argv(job, paths)) == 0
    return out.getvalue()


def _entry(workload, job):
    return checks.stored_entry(STORE, workload, 0, job)


def test_stored_answer_passes_and_corruption_fails(tmp_path):
    wl, job = _job("hrr", "line-n3:bounds-t5")
    out = _report(wl, job, tmp_path)
    entry = _entry("hrr", job)
    assert checks.check_job(job, 0, out, entry) == []
    corrupted = ("0" if entry[0] != "0" else "1") + entry[1:]
    assert checks.check_job(job, 0, out, corrupted) == ["results differ from the stored answer"]
    assert checks.check_job(job, 0, out, None) == ["no stored answer"]


def test_wrong_result_fails_the_stored_digest(tmp_path):
    wl, job = _job("hrr", "rank2-n3:genus")
    report = json.loads(_report(wl, job, tmp_path))
    report["results"]["euler_characteristic"] = "12345"
    problems = checks.check_job(job, 0, json.dumps(report), _entry("hrr", job))
    assert problems == ["results differ from the stored answer"]


def test_exit_code_and_garbage_fail():
    _, job = _job("kahler", "gammas-4")
    assert checks.check_job(job, 1, "", "x") == ["exit code 1"]
    assert checks.check_job(job, 0, "not json", "x")[0].startswith("unreadable report")


def test_diagonal_oracle_catches_a_wrong_norm(tmp_path):
    wl, job = _job("kahler", "gammas-4")
    report = json.loads(_report(wl, job, tmp_path))
    entry = _entry("kahler", job)
    assert checks.check_job(job, 0, json.dumps(report), entry) == []
    report["results"]["C"] = str(checks.Fraction(report["results"]["C"]) + 1)
    problems = checks.check_job(job, 0, json.dumps(report), entry)
    assert "diagonal C or C_pq misses max |gamma_J + gamma_K - sum gamma|" in problems


def test_enclosure_missing_its_oracle_fails(tmp_path):
    wl, job = _job("hermitian", "rotated-n2-r1:commutator")
    report = json.loads(_report(wl, job, tmp_path))
    entry = _entry("hermitian", job)
    assert checks.check_job(job, 0, json.dumps(report), entry) == []

    lo, hi = checks.interval(report["results"]["C"])
    shift = hi - lo + checks.TOL
    report["results"]["C"] = [str(lo + shift), str(hi + shift)]
    problems = checks.check_job(job, 0, json.dumps(report), entry)
    assert any("misses the closed form" in p for p in problems)
    assert any("misses the stored" in p for p in problems)


def test_wide_enclosure_fails(tmp_path):
    wl, job = _job("hermitian", "generic-n2-r1:commutator")
    report = json.loads(_report(wl, job, tmp_path))
    entry = _entry("hermitian", job)
    assert checks.check_job(job, 0, json.dumps(report), entry) == []
    lo, hi = checks.interval(report["results"]["C"])
    report["results"]["C"] = [str(lo - 2 * checks.MAX_WIDTH), str(hi)]
    problems = checks.check_job(job, 0, json.dumps(report), entry)
    assert any("wider than 3 tol" in p for p in problems)


def test_lefschetz_oracle_closed_forms():
    powers = gen.lefschetz_powers(4)
    assert [p["sigma_min"] for p in powers] == ["24", "6", "2", "1", "1"]
    assert [p["sigma_max"] for p in powers] == ["24", "6", "6", "2", "1"]


def test_generated_documents_match_the_recorded_inputs():
    for workload in gen.WORKLOADS:
        for seed in (0, gen.SEED_PERIOD + 1):
            for name, tree in gen.build(workload, seed).docs.items():
                assert checks.sha256(tree) == checks.stored_doc_digest(STORE, workload, seed, name)


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(44)])
    assert (value, beyond) == (33.0, 10)
    assert round(pct, 1) == 77.3
