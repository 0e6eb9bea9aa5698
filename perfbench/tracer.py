"""Run one hlab CLI job with a span around every call into a layer's public API.

    python3 perfbench/tracer.py SPANS_OUT -- <hlab arguments>

Before ``hlab.cli.main`` runs, each name in ``TARGETS`` is replaced by a
wrapper that records a span (name, start, end, parent span).  A function is
rebound in every ``hlab`` module namespace that holds it (``genus`` imports
the Newton identities from ``ring``, ``cli`` imports the bound evaluators),
and a method is replaced on its class.  Spans stay in memory and are written
to SPANS_OUT, with the job's exit code, when the job ends; the report still
goes to stdout, so a traced job is checked like an untraced one.

Per-term scalar helpers (``CQ`` and ``Fraction`` arithmetic,
``RingSpec.weight_of``) are deliberately not wrapped: one call costs less
than the wrapper, so their time is charged to the public function that
called them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

TARGETS = {
    "ring": (
        "GradedElement.__mul__", "GradedElement.__add__", "GradedElement.__sub__",
        "GradedElement.__pow__", "GradedElement.graded_component", "exp", "log",
        "power_sums_from_elementary", "elementary_from_power_sums", "todd_series",
        "genus_product", "Series.__mul__", "Series.reciprocal", "Series.log",
    ),
    "genus": (
        "integrate", "todd_class", "chern_character", "ch_hodge_sheaf", "chi_p", "chi_y",
        "k_coefficients", "k1_formula_check", "k2_surface_formula_check",
        "hilbert_polynomial", "chern_inequality_check", "bundle_power",
    ),
    "lefschetz": (
        "get_basis", "op_L", "op_Lambda", "op_star", "identity_operator",
        "curvature_operator", "Operator.compose", "Operator.power", "Operator.commutator",
        "Operator.adjoint", "Operator.apply", "int_rank", "cq_rank", "lefschetz_power",
        "injectivity_scan", "sl2_commutator_check", "commutator_norm", "flatness_test",
        "diagonal_commutator_eigenvalues",
    ),
    "bounds": (
        "sqrt_enclosure", "forward_difference", "is_integer_valued", "lemma44_search",
        "lemma42_search", "sturm_chain", "count_roots_between", "cauchy_bound",
        "isolate_real_roots", "root_report", "bound_T4", "bound_T2", "bound_T5",
        "bound_C1", "e_theta_interval", "t4_chain",
    ),
    "qpoly": (
        "QPoly.__call__", "QPoly.__add__", "QPoly.__sub__", "QPoly.__mul__",
        "QPoly.divmod", "QPoly.derivative", "QPoly.shift", "QPoly.monic", "QPoly.gcd",
        "QPoly.squarefree_part", "poly_from_values",
    ),
    "exprparse": ("parse_expression", "parse_rational", "parse_monomial_key"),
    "inputdoc": ("load_file", "load_document", "digest", "InputDocument.bounds_input"),
    "cli": ("main", "build_parser", "Reporter.emit", "Reporter.add"),
}


class Recorder:
    """Spans of one process, as parallel lists indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self.stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return spanned

    def install(self):
        """Replace every target in ``TARGETS`` by its spanned wrapper."""
        modules = [m for name, m in list(sys.modules.items()) if name == "hlab" or name.startswith("hlab.")]
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"hlab.{layer}")
            for dotted in names:
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, self.wrap(f"{layer}.{dotted}", cls.__dict__[attr]))
                    continue
                original = getattr(home, dotted)
                wrapper = self.wrap(f"{layer}.{dotted}", original)
                for module in modules:
                    if module.__dict__.get(dotted) is original:
                        setattr(module, dotted, wrapper)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }


def aggregate(spans: dict) -> dict[str, list]:
    """Per span name: [calls, total_s, self_s].

    ``self_s`` is a span's duration minus the durations of its child spans;
    ``total_s`` is inclusive, counting a span nested in a span of the same
    name only once.
    """
    names, name_id, parent = spans["names"], spans["name_id"], spans["parent"]
    dur = [b - a for a, b in zip(spans["start"], spans["end"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    out = {name: [0, 0.0, 0.0] for name in names}
    for i, nid in enumerate(name_id):
        row = out[names[nid]]
        row[0] += 1
        row[2] += dur[i] - child[i]
        p = parent[i]
        while p >= 0 and name_id[p] != nid:
            p = parent[p]
        if p < 0:
            row[1] += dur[i]
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, job_argv = argv[0], argv[2:]
    from hlab import cli

    t0 = perf_counter()
    rec = Recorder()
    rec.install()
    install_s = perf_counter() - t0
    code = 1
    try:
        code = cli.main(job_argv)
    finally:
        sys.stdout.flush()
        t1 = perf_counter()
        text = json.dumps(rec.dump())
        # the tracer's own cost, so the parent can leave it out of start-up
        overhead_s = install_s + perf_counter() - t1
        with open(out_path, "w") as fh:
            fh.write(json.dumps({"exit_code": code, "overhead_s": overhead_s}) + "\n" + text)
    return code


def load(path: str) -> tuple[dict, dict]:
    """(header, spans) as written by a traced job."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        return header, json.loads(fh.readline())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
