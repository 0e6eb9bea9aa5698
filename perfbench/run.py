"""hlab benchmark: real CLI jobs in a closed loop, checked answers, layer trace.

    python3 perfbench/run.py --workload hrr|kahler|hermitian --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout: the directory that holds ``src/hlab``.
Every job is a fresh ``python3 -m hlab ... --output machine`` process, as a
CLI user runs it: each one pays interpreter start-up, ``import hlab`` and the
rebuild of the ``lru_cache``d operator tables, which an in-process loop
would hide.  One client runs one job at a time and starts the next when the
previous one exits.

Workloads (documents and job lists in ``gen.py``):

* ``hrr`` (43 jobs): genus, kcoeffs, hilbert, ineq and bounds on CP^4, CP^8,
  CP^12 and on seeded formal manifolds.  It drives the ring product in two
  shapes, one generator truncated deep (CP^12) and seven generators truncated
  shallow (n = 5, rank 2); ``ineq``, ``kcoeffs`` and ``bounds`` recompute
  chi_y.  Its bounds jobs use Sturm isolation lightly (degree <= 8).
* ``kahler`` (7 jobs): ``lefschetz-check`` up to n = 4, r = 2 (the sparse
  operator path, spaces up to dimension 512) and three diagonal
  ``commutator --gammas`` jobs, which take the exact path and are mostly
  start-up.
* ``hermitian`` (8 jobs): ``commutator`` on Hermitian curvature, generic
  (irrational roots) and rotated split bundles (rational roots), so both
  branches of ``isolate_real_roots`` run on characteristic polynomials of
  degree up to 12.

The whole run is pinned to one CPU, and fixed stdlib Fraction work in a
fresh interpreter (``CALIBRATION_CODE``) is timed between every two jobs.
The speed of this shared host drifts by up to 1.6x over tens of seconds, in
CPU time as much as in wall time, which no number of passes averages out.
So every job time is also reported host-normalized: multiplied by
``CALIBRATION_REF_S`` over the mean of the two calibrations around the job,
i.e. the time the job would take on a host where the calibration takes
``CALIBRATION_REF_S``.  A change in hlab moves a job's time and not the
calibration, so it moves the normalized time in proportion.

With ``--trace 0`` a run makes floor(seconds / budget) passes (``gen.py``)
and prints the end-to-end metrics: ``norm_wall_s`` (median pass,
host-normalized; ``wall_s`` is the same unnormalized), ``job_p50_s`` and
``job_tail_s`` (median job and the highest percentile with at least ten job
samples beyond it), ``setup_s`` (median host-normalized ``hlab fixture cp
1``, the cost every job pays), ``failed_frac`` and ``peak_rss_mb``.

With ``--trace 1`` it makes one untraced and two traced passes
(``tracer.py``), checks that both traced passes count the same calls, and
prints per-layer metrics, the tracing overhead and each layer's share of
in-process time.  Every job's answer is checked (``checks.py``).  The last stdout line is the JSON result;
the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

import checks
import gen
import tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
HERE = os.path.dirname(os.path.abspath(__file__))

# End-to-end metrics in the JSON result, which BENCHMARK.json bounds.
# wall_s, job_p50_s and job_tail_s are printed but not bounded: on a loaded
# 2-vCPU host the ten-seed spread of wall_s reached 0.28, above the largest
# bound a metric may have (0.25), and the job percentiles spread as much;
# norm_wall_s and setup_s bound the same work, host-normalized.
GATED = ("norm_wall_s", "setup_s", "peak_rss_mb")

# Host speed, not hlab speed: fixed stdlib work in a fresh interpreter, like
# a job -- a 7 x 7 rational characteristic polynomial (Faddeev-LeVerrier) and
# a dict of 15000 Fractions.  A loaded host slows big-rational and dict work
# more than a loop over small Fractions: normalized by such a loop (also in
# a fresh interpreter), the ten-seed spread of norm_wall_s was 0.05-0.11 on
# kahler and hermitian, against 0.04 with this work.
CALIBRATION_CODE = """
from fractions import Fraction
n = 7
A = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(n)] for i in range(n)]
M = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
for k in range(1, n + 1):
    AM = [[sum((A[i][t] * M[t][j] for t in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]
    c = -sum((AM[i][i] for i in range(n)), Fraction(0)) / k
    M = [[AM[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
d = {}
for i in range(15000):
    d[(i, i * i)] = Fraction(i, 7)
"""
# Host-normalized times are scaled to a host on which the calibration takes
# this long: about its median on a shared 2-vCPU x86 container with Python
# 3.11, where it took 0.09-0.15 s.
CALIBRATION_REF_S = 0.1

SETUP_ARGV = ("fixture", "cp", "1")
SETUP_SAMPLES = 11
JOB_TIMEOUT_S = 120.0
# every job is killed at this many seconds into the run, so a run exits
# within 180 s even on a slow host; a job cut short counts as failed
RUN_BUDGET_S = 165.0


@dataclass
class Timed:
    wall_s: float
    exit_code: int
    maxrss_mb: float
    stdout: str
    # CALIBRATION_REF_S over the mean calibration around the job (1 if the
    # runner does not calibrate)
    host_factor: float = 1.0

    @property
    def norm_s(self) -> float:
        return self.wall_s * self.host_factor


@dataclass
class Sample:
    job: gen.Job | None
    timed: Timed
    problems: list[str]
    spans: str | None = None


class Runner:
    """Starts job processes one at a time and times each from spawn to exit.

    With ``calibrated`` every job is preceded and followed by a calibration;
    a calibration between two jobs serves both."""

    def __init__(self, workdir: str, deadline: float, calibrated: bool = True):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
        self.ids = itertools.count()
        self.calibrated = calibrated
        self.calibrations: list[float] = []

    def path(self, stem: str) -> str:
        """A fresh file name in the work directory."""
        return os.path.join(self.workdir, f"{stem}{next(self.ids)}")

    def run(self, argv: list[str]) -> Timed:
        """Time ``python3 <argv>``; calibrate around it if calibrated."""
        timeout = min(JOB_TIMEOUT_S, self.deadline - perf_counter())
        if timeout <= 0:
            return Timed(0.0, -signal.SIGKILL, 0.0, "")
        if not self.calibrated:
            return self.spawn(argv, timeout)
        if not self.calibrations:
            self.calibrations.append(self.calibrate())
        before = self.calibrations[-1]
        timed = self.spawn(argv, timeout)
        self.calibrations.append(self.calibrate())
        timed.host_factor = CALIBRATION_REF_S / ((before + self.calibrations[-1]) / 2)
        return timed

    def calibrate(self) -> float:
        """Seconds from spawn to exit of ``python3 -c CALIBRATION_CODE``."""
        timed = self.spawn(["-c", CALIBRATION_CODE], JOB_TIMEOUT_S)
        if timed.exit_code != 0:
            raise RuntimeError(f"calibration exited with code {timed.exit_code}")
        return timed.wall_s

    def spawn(self, argv: list[str], timeout: float) -> Timed:
        out_path = self.path("job")
        with open(out_path, "wb") as out:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=out, stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        os.remove(out_path)
        return Timed(wall, proc.returncode, usage.ru_maxrss / 1024, stdout)


def job_argv(job: gen.Job, doc_paths: dict[str, str]) -> list[str]:
    argv = list(job.argv)
    if job.doc is not None:
        argv += ["--input", doc_paths[job.doc]]
    return argv + ["--output", "machine"]


def run_pass(runner: Runner, jobs, doc_paths, traced: bool) -> list[Sample]:
    """One pass over the job list; answers are checked after the pass."""
    samples = []
    for job in jobs:
        spans = None
        if traced:
            spans = runner.path("spans")
            argv = [os.path.join(HERE, "tracer.py"), spans, "--", *job_argv(job, doc_paths)]
        else:
            argv = ["-m", "hlab", *job_argv(job, doc_paths)]
        samples.append(Sample(job, runner.run(argv), [], spans))
    return samples


def pass_time(samples: list[Sample], field: str) -> float:
    """A pass's time: the sum of its job times (calibrations excluded)."""
    return sum(getattr(s.timed, field) for s in samples)


def setup_sample(runner: Runner) -> Sample:
    timed = runner.run(["-m", "hlab", *SETUP_ARGV])
    problems = []
    if timed.exit_code != 0:
        problems.append(f"exit code {timed.exit_code}")
    else:
        try:
            if json.loads(timed.stdout) != gen.cp_document(1):
                problems.append("fixture cp 1 differs from CP^1")
        except ValueError:
            problems.append("fixture cp 1 printed no JSON")
    return Sample(None, timed, problems)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count beyond): the highest percentile of the
    samples that still has at least 10 samples above it (the minimum when
    there are fewer than 11)."""
    ordered = sorted(values)
    idx = max(0, len(ordered) - 11)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def source_record() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    head = os.path.join(ROOT, ".git", "HEAD")
    sha = "none (not a git checkout)"
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    sha = fh.read().strip()
    return f"git {sha}, src/hlab sha256 {digest.hexdigest()[:16]}"


# -- per-layer metrics --------------------------------------------------------------

# "<span name>.<field>", field one of calls, total_s, self_s
LAYER_METRICS = (
    "ring.GradedElement.__mul__.calls",
    "ring.GradedElement.__mul__.self_s",
    "ring.elementary_from_power_sums.calls",
    "ring.elementary_from_power_sums.self_s",
    "ring.power_sums_from_elementary.calls",
    "ring.power_sums_from_elementary.self_s",
    "ring.genus_product.calls",
    "ring.genus_product.total_s",
    "genus.chi_y.calls",
    "genus.chi_y.total_s",
    "genus.ch_hodge_sheaf.calls",
    "genus.ch_hodge_sheaf.total_s",
    "genus.todd_class.calls",
    "genus.integrate.calls",
    "genus.hilbert_polynomial.total_s",
    "lefschetz.Operator.compose.calls",
    "lefschetz.Operator.compose.self_s",
    "lefschetz.int_rank.calls",
    "lefschetz.int_rank.self_s",
    "lefschetz.lefschetz_power.self_s",
    "lefschetz.injectivity_scan.self_s",
    "lefschetz.sl2_commutator_check.total_s",
    "lefschetz.operator_build.self_s",
    "lefschetz.commutator_norm.self_s",
    "bounds.isolate_real_roots.calls",
    "bounds.isolate_real_roots.total_s",
    "bounds.count_roots_between.calls",
    "bounds.sturm_chain.self_s",
    "bounds.root_report.total_s",
    "bounds.t4_chain.total_s",
    "bounds.sqrt_enclosure.calls",
    "qpoly.QPoly.__call__.calls",
    "qpoly.QPoly.__call__.self_s",
    "qpoly.QPoly.divmod.self_s",
    "qpoly.QPoly.squarefree_part.self_s",
    "exprparse.parse_expression.calls",
    "exprparse.parse_expression.self_s",
    "inputdoc.load_file.total_s",
    "cli.main.total_s",
    "cli.Reporter.emit.self_s",
)
# metrics summed over several spans
SPAN_GROUPS = {
    "lefschetz.operator_build": (
        "lefschetz.op_L", "lefschetz.op_Lambda", "lefschetz.op_star", "lefschetz.curvature_operator",
    ),
}
FIELD = {"calls": 0, "total_s": 1, "self_s": 2}
NO_SPANS = (0, 0.0, 0.0)
LAYERS = tuple(tracer.TARGETS)


def layer_stats(samples: list[Sample]) -> tuple[dict[str, list], float]:
    """Span statistics summed over a traced pass, and its summed start-up
    time (job wall time minus ``cli.main`` minus the tracer's own cost)."""
    total: dict[str, list] = {}
    startup = 0.0
    for s in samples:
        if s.spans is None or not os.path.exists(s.spans):
            continue
        header, spans = tracer.load(s.spans)
        os.remove(s.spans)
        agg = tracer.aggregate(spans)
        for name, row in agg.items():
            acc = total.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        startup += s.timed.wall_s - agg.get("cli.main", NO_SPANS)[1] - header["overhead_s"]
    return total, startup


def layer_metrics(stats: dict[str, list], startup: float) -> dict[str, float]:
    out = {}
    for metric in LAYER_METRICS:
        span, field = metric.rsplit(".", 1)
        out[metric] = sum(stats.get(n, NO_SPANS)[FIELD[field]] for n in SPAN_GROUPS.get(span, (span,)))
    out["cli.startup_s"] = startup
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            row[2] for name, row in stats.items() if name.split(".")[0] == layer
        )
    return out


def unit(metric: str) -> str:
    return "count" if metric.endswith(".calls") else "s"


# -- entry point -----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hlab", "cli.py")):
        print(f"error: no hlab sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # jobs and calibrations share one CPU; one process runs at a time anyway
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = perf_counter() + RUN_BUDGET_S
    store = checks.load_store()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return measure(args, store, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)


def measure(args, store, workdir, deadline) -> int:
    wl = gen.build(args.workload, args.seed)
    problems = []
    doc_paths = {}
    for name, tree in wl.docs.items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(tree, fh, indent=1, sort_keys=True)
        doc_paths[name] = path
        if checks.sha256(tree) != checks.stored_doc_digest(store, args.workload, args.seed, name):
            problems.append(f"document {name} differs from the recorded input")

    runner = Runner(workdir, deadline)
    if args.trace:
        plan = [False, True, True]
    else:
        plan = [False] * max(1, int(args.seconds / gen.PASS_BUDGET_S[args.workload]))
    # set-up samples are spread over the run, so one slow spell of the host
    # does not decide their median
    chunks = [SETUP_SAMPLES * (i + 1) // (len(plan) + 1) - SETUP_SAMPLES * i // (len(plan) + 1)
              for i in range(len(plan) + 1)]
    setup = [setup_sample(runner) for _ in range(chunks[0])]
    passes = []
    for i, traced in enumerate(plan):
        passes.append((traced, run_pass(runner, wl.jobs, doc_paths, traced)))
        setup += [setup_sample(runner) for _ in range(chunks[i + 1])]

    samples = [s for _, pass_samples in passes for s in pass_samples]
    for s in samples:
        entry = checks.stored_entry(store, args.workload, args.seed, s.job)
        s.problems = checks.check_job(s.job, s.timed.exit_code, s.timed.stdout, entry)
    every = setup + samples
    failed = [s for s in every if s.problems]
    for s in failed:
        name = s.job.id if s.job else "setup"
        print(f"FAILED {name}: {'; '.join(s.problems)}", file=sys.stderr)
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)

    print(f"record: {source_record()}, python {platform.python_version()}, nproc {os.cpu_count()}")
    cal = runner.calibrations
    q = statistics.quantiles(cal, n=4) if len(cal) > 1 else cal * 3
    print(
        f"calibration_s (fixed Fraction work between jobs, {len(cal)} times): min {min(cal):.4f}, "
        f"quartiles {q[0]:.4f} {q[1]:.4f} {q[2]:.4f}, max {max(cal):.4f}"
    )
    print(
        f"workload {args.workload}, seed {args.seed} (inputs {args.seed % gen.SEED_PERIOD}), "
        f"{len(passes)} pass(es) x {len(wl.jobs)} jobs, one client, closed loop"
    )
    print(f"failed_frac = {len(failed) / len(every):.4f} 1 ({len(failed)}/{len(every)} jobs)")
    if args.trace:
        metrics = report_trace(passes, problems)
    else:
        metrics = report_timing(passes, setup, every)
    result = {
        "correct": not failed and not problems,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def report_timing(passes, setup, every) -> dict[str, tuple[float, str]]:
    jobs = [s.timed.wall_s for _, pass_samples in passes for s in pass_samples]
    value, pct, beyond = tail(jobs)
    metrics = {
        "norm_wall_s": (statistics.median(pass_time(p, "norm_s") for _, p in passes), "s"),
        "wall_s": (statistics.median(pass_time(p, "wall_s") for _, p in passes), "s"),
        "job_p50_s": (statistics.median(jobs), "s"),
        "job_tail_s": (value, "s"),
        "setup_s": (statistics.median(s.timed.norm_s for s in setup), "s"),
        "setup_raw_s": (statistics.median(s.timed.wall_s for s in setup), "s"),
        "peak_rss_mb": (max(s.timed.maxrss_mb for s in every), "MB"),
    }
    notes = {
        "norm_wall_s": f"median of {len(passes)} pass(es), host-normalized",
        "wall_s": f"median of {len(passes)} pass(es)",
        "job_p50_s": f"{len(jobs)} job samples",
        "job_tail_s": f"p{pct:.1f} of {len(jobs)} job samples, {beyond} beyond it",
        "setup_s": f"median of {len(setup)} x hlab {' '.join(SETUP_ARGV)}, host-normalized",
        "setup_raw_s": "the same, not normalized",
        "peak_rss_mb": "largest max-RSS of any job process",
    }
    for name, (v, u) in metrics.items():
        print(f"{name} = {v:.4f} {u} ({notes[name]})")
    return {name: metrics[name] for name in GATED}


def report_trace(passes, problems) -> dict[str, tuple[float, str]]:
    (_, plain), *traced = passes
    plain_wall = pass_time(plain, "norm_s")
    per_pass = []
    for _, pass_samples in traced:
        stats, startup = layer_stats(pass_samples)
        per_pass.append((pass_time(pass_samples, "norm_s"), stats, layer_metrics(stats, startup)))
    counts = [{name: row[0] for name, row in stats.items()} for _, stats, _ in per_pass]
    if counts[0] != counts[1]:
        differ = sorted(n for n in set(counts[0]) | set(counts[1]) if counts[0].get(n) != counts[1].get(n))
        problems.append(f"traced passes count different calls: {differ[:5]}")
        print(f"FAILED calls differ between traced passes: {differ[:5]}", file=sys.stderr)
    else:
        print(f"calls identical in both traced passes ({sum(counts[0].values())} spans)")
    metrics = {}
    for name in per_pass[0][2]:
        values = [m[name] for _, _, m in per_pass]
        metrics[name] = (values[0] if name.endswith(".calls") else statistics.median(values), unit(name))
    overhead = statistics.median(w for w, _, _ in per_pass) - plain_wall
    metrics["trace_overhead_s"] = (overhead, "s")
    in_process = metrics["cli.main.total_s"][0]
    print(f"host-normalized untraced pass {plain_wall:.3f} s; traced passes " + ", ".join(f"{w:.3f} s" for w, _, _ in per_pass))
    print(f"trace_overhead_s = {overhead:.3f} s (traced minus untraced, host-normalized)")
    print(f"in-process time (cli.main) = {in_process:.3f} s; self-time share by layer:")
    for layer in LAYERS:
        v = metrics[f"layer.{layer}.self_s"][0]
        print(f"  {layer:10s} {v:8.3f} s  {100 * v / in_process if in_process else 0:5.1f} %")
    for name, (v, u) in metrics.items():
        print(f"{name} = {v:.6g} {u}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
