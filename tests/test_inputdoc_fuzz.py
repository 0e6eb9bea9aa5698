"""Property test of the input boundary: whatever JSON tree it is given,
``load_document`` raises only an input error (``DocumentError`` or
``ExprError``), never anything else."""

import pytest
from conftest import run_hlab, write_doc

from hlab.exprparse import ExprError
from hlab.inputdoc import DocumentError, load_document
from test_input_boundary import _cp2, _with

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

KEYS = st.sampled_from(
    [
        "ring", "generators", "name", "weight", "dimension", "manifold", "chern", "c1", "c2",
        "bundle", "rank", "fundamental_class", "h", "h^2", "line_bundle", "curvature", "gammas",
        "hermitian", "theta", "bounds", "n", "p", "K", "C", "c_n", "a_n", "chi_p", "hilbert",
        "c1sq_L", "chi", "0",
    ]
) | st.text(max_size=6)
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-20, 20)
    | st.floats(allow_nan=True)
    | st.sampled_from(["h", "2*h", "h^2", "1/2", "-3", "x", "", "1/0", "(h", "h^99"])
    | st.text(max_size=8)
)
TREES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=5),
    max_leaves=20,
)
FUZZ = hypothesis.settings(max_examples=300, deadline=None, database=None)


def _load_or_input_error(tree):
    try:
        load_document(tree)
    except (DocumentError, ExprError):
        pass


@FUZZ
@hypothesis.given(TREES)
def test_random_trees_raise_only_input_errors(tree):
    _load_or_input_error(tree)


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


SPLICE_PATHS = [p for p in _paths(_cp2(curvature={"gammas": ["1", "2"]})) if p]


@FUZZ
@hypothesis.given(st.sampled_from(SPLICE_PATHS), TREES)
def test_random_trees_spliced_into_cp2_raise_only_input_errors(path, value):
    _load_or_input_error(_with(path, value, _cp2(curvature={"gammas": ["1", "2"]})))


WHICH = st.sampled_from(["t2", "t4", "t5", "c1", "etheta", "t4chain"])
# the bound inputs with a source rule (K, C and c_n are plain rationals, and a
# large K/C makes t4chain scan a long window)
BOUND_KEYS = st.sampled_from(["n", "p", "a_n", "chi_p", "chi", "c1sq_L", "hilbert"])


@FUZZ
@hypothesis.given(BOUND_KEYS, TREES, WHICH, st.booleans())
def test_bounds_on_random_bound_inputs_exit_through_the_code_map(tmp_path_factory, key, value, which, manifold):
    # every bound input is got by one rule, derived or read; whatever the
    # bounds section holds, the command ends with an exit code, not a traceback
    tree = _cp2() if manifold else {"bounds": {"n": 2, "K": "100", "C": "2", "c_n": "1/10", "p": 0}}
    tree["bounds"][key] = value
    path = write_doc(tmp_path_factory.mktemp("fuzz"), tree)
    assert run_hlab(["bounds", "--which", which, "--input", path])[0] in (0, 1, 2)
