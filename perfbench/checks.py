"""Answer checks: closed-form oracles and stored answers.

Every job's machine report is checked twice.

* Oracles need no stored answer: chi^p(CP^n) = (-1)^p, the 0-Hilbert
  polynomial of O(1) on CP^n is C(m+n, n), hard Lefschetz and the
  primitive-decomposition singular values, the diagonal commutator closed
  form, and, for Hermitian curvature that is a rotated split bundle, the
  closed form of the underlying diagonal data.
* Stored answers (``answers.json``) hold the sha256 of the canonical JSON of
  the report's ``results`` object, so fields the report may gain beside
  ``results`` never read as wrong answers.  Enclosure-valued fields (the
  Hermitian ``C`` and ``C_pq``) are left out of the digest and compared by
  overlap with the recorded enclosure plus a width bound, so a better
  certificate may move the endpoints.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from math import ceil, floor

import gen

# commutator_norm's default tolerance.  Its enclosure of sqrt(lambda_max) is
# at most 3 tol wide: the root enclosure of lambda_max is at most tol^2 wide,
# which the square root maps to at most sqrt(tol^2) = tol, and rounding each
# endpoint of the square root outward adds at most tol more.
TOL = Fraction(1, 10**12)
WIDTH_MULTIPLE = 3
MAX_WIDTH = WIDTH_MULTIPLE * TOL

# recorded enclosures are rounded outward to this many decimals, far below
# MAX_WIDTH, so the stored file stays small and the overlap test stays sound
STORE_DECIMALS = 20

STORE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")


def canonical(tree) -> str:
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


def sha256(tree) -> str:
    return hashlib.sha256(canonical(tree).encode()).hexdigest()


def load_store() -> dict:
    with open(STORE_PATH) as fh:
        return json.load(fh)


def interval(value) -> tuple[Fraction, Fraction]:
    """An exact value ("3/2") or an enclosure (["lo", "hi"]) as (lo, hi)."""
    if isinstance(value, list):
        lo, hi = (Fraction(v) for v in value)
    else:
        lo = hi = Fraction(value)
    if lo > hi:
        raise ValueError(f"empty enclosure {value!r}")
    return lo, hi


def split_enclosures(results: dict) -> tuple[dict, dict]:
    """(results with enclosure fields blanked, {field: enclosure value})."""
    if results.get("exact") is not False:
        return results, {}
    stripped = dict(results)
    encs = {"C": results["C"]}
    stripped["C"] = None
    rows = []
    for row in results["C_pq"]:
        encs[f"{row['p']},{row['q']}"] = row["value"]
        rows.append(dict(row, value=None))
    stripped["C_pq"] = rows
    return stripped, encs


def _decimal(x: Fraction, rounding) -> str:
    scaled = rounding(x * 10**STORE_DECIMALS)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(STORE_DECIMALS + 1, "0")
    return f"{sign}{digits[:-STORE_DECIMALS]}.{digits[-STORE_DECIMALS:]}"


def record_entry(results: dict):
    """What the store keeps for one job: a digest, plus outward-rounded
    enclosures when the results hold any."""
    stripped, encs = split_enclosures(results)
    if not encs:
        return sha256(stripped)
    rounded = {}
    for key, value in encs.items():
        lo, hi = interval(value)
        rounded[key] = [_decimal(lo, floor), _decimal(hi, ceil)]
    return {"digest": sha256(stripped), "enclosures": rounded}


def compare_stored(results: dict, entry) -> list[str]:
    """Problems found comparing results with a stored entry."""
    stripped, encs = split_enclosures(results)
    digest, stored = (entry, {}) if isinstance(entry, str) else (entry["digest"], entry["enclosures"])
    problems = []
    if sha256(stripped) != digest:
        problems.append("results differ from the stored answer")
    if set(encs) != set(stored):
        problems.append("enclosure fields differ from the stored answer")
        return problems
    for key, value in encs.items():
        lo, hi = interval(value)
        old_lo, old_hi = interval(stored[key])
        if hi < old_lo or lo > old_hi:
            problems.append(f"enclosure {key} = [{lo}, {hi}] misses the stored [{old_lo}, {old_hi}]")
        if hi - lo > MAX_WIDTH:
            problems.append(f"enclosure {key} is wider than {WIDTH_MULTIPLE} tol")
    return problems


def check_oracle(job: gen.Job, results: dict) -> list[str]:
    """Problems found by the job's closed-form oracle, if it has one."""
    if not job.oracle:
        return []
    kind, *args = job.oracle
    if kind == "cp":
        (n,) = args
        want = [str((-1) ** p) for p in range(n + 1)]
        ok = results["chi_p"] == want and results["euler_characteristic"] == str(n + 1)
        return [] if ok else [f"chi^p(CP^{n}) is not (-1)^p"]
    if kind == "k1":
        return [] if results["k1_closed_form_matches"] is True else ["K_1 misses its closed form"]
    if kind == "cp_hilbert0":
        (n,) = args
        ok = results["coefficients"] == gen.binomial_hilbert(n)
        return [] if ok else [f"0-Hilbert polynomial of CP^{n} is not C(m+{n}, {n})"]
    if kind == "lefschetz":
        n, _ = args
        problems = []
        if results["sl2_commutator"] is not True:
            problems.append("[Lambda, L] is not (n-k) id")
        seen = {(row["p"], row["q"]): row["injective"] for row in results["injectivity"]}
        want = {(p, q): p + q < n for p in range(n + 1) for q in range(n + 1)}
        if seen != want:
            problems.append("L is not injective exactly on bidegrees p+q < n")
        if results["lefschetz_powers"] != gen.lefschetz_powers(n):
            problems.append("Lefschetz powers miss bijectivity or the primitive singular values")
        return problems
    if kind == "diagonal":
        (gammas,) = args
        table = gen.diagonal_table(gammas)
        want_rows = [{"p": p, "q": q, "value": str(v)} for (p, q), v in sorted(table.items())]
        ok = (
            results["C"] == str(max(table.values()))
            and results["exact"] is True
            and results["C_pq"] == want_rows
        )
        return [] if ok else ["diagonal C or C_pq misses max |gamma_J + gamma_K - sum gamma|"]
    if kind == "split":
        (table,) = args
        _, encs = split_enclosures(results)
        want = {f"{p},{q}": v for (p, q), v in table.items()}
        want["C"] = max(table.values())
        if set(want) != set(encs):
            return ["C_pq bidegrees differ from the split-bundle table"]
        problems = []
        for key, value in want.items():
            lo, hi = interval(encs[key])
            if not lo <= value <= hi:
                problems.append(f"enclosure {key} = [{lo}, {hi}] misses the closed form {value}")
        return problems
    raise ValueError(f"unknown oracle {kind!r}")


def check_job(job: gen.Job, exit_code: int, stdout: str, entry) -> list[str]:
    """Every problem with one job's outcome; empty means a correct answer."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    try:
        problems = check_oracle(job, results)
        if entry is None:
            problems.append("no stored answer")
        else:
            problems += compare_stored(results, entry)
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"malformed results: {exc!r}"]
    return problems


def stored_entry(store: dict, workload: str, seed: int, job: gen.Job):
    part = store.get(workload, {})
    if job.seeded:
        return part.get("seeded", {}).get(str(seed % gen.SEED_PERIOD), {}).get(job.id)
    return part.get("fixed", {}).get(job.id)


def stored_doc_digest(store: dict, workload: str, seed: int, name: str):
    return store.get(workload, {}).get("docs", {}).get(str(seed % gen.SEED_PERIOD), {}).get(name)
