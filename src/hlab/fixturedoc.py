"""The builtin documents of ``hlab fixture``.

``hlab fixture cp N`` prints the CP^N document (:func:`cp_fixture`), which
``genus.projective_space`` reads too, so ``hlab verify`` tests the document
users get.  N obeys the dimension rule of every document
(``literals._dimension``).  This module loads no document reader, and no
document reader loads it, so ``hlab fixture`` compiles the flag rules and
this module alone, and no other job compiles the fixture.
"""

from __future__ import annotations

import json
from math import comb

from .errors import DocumentError
from .literals import _dimension


def cp_fixture(n: int) -> dict:
    """The complex projective space document: c(TX) = (1+h)^{n+1}, int h^n = 1."""
    _dimension(n, "cp fixture n")
    chern = {}
    for i in range(1, n + 1):
        coeff = comb(n + 1, i)
        mono = "h" if i == 1 else f"h^{i}"
        chern[f"c{i}"] = mono if coeff == 1 else f"{coeff}*{mono}"
    return {
        "ring": {"generators": [{"name": "h", "weight": 1}], "dimension": n},
        "manifold": {"chern": chern},
        "bundle": {"rank": 1, "chern": {}},
        "fundamental_class": {("h" if n == 1 else f"h^{n}"): "1"},
        "line_bundle": {"c1": "h"},
    }


def run_command(args):
    """``hlab fixture cp N [--out FILE]``: the CP^N document, printed or
    written to FILE."""
    text = json.dumps(cp_fixture(args.n), indent=2, sort_keys=True)
    if not args.out:
        print(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise DocumentError(f"--out: cannot write {args.out}: {exc}") from None
    print(f"wrote {args.out}")
