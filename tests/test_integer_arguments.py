"""The integer contract: n, N, L and m may be Python or numpy integers, any
other type with `__index__`, or True, which is 1, and every entry point
computes with them as the Python int each equals; any other value is refused
with a ValueError naming the argument."""

import json
import operator
import re
from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbsent import closed_form, oracle, weyl
from vbsent.checks import run_checks
from vbsent.edges import edge_basis
from vbsent.states import OPEN, PERIODIC, ChainSpec, PureState, open_vbs_state

NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
NON_INTEGERS = (4.0, np.float64(4), "4", None, np.bool_(True), Fraction(4))


class Index:
    """An integer type that is neither int nor numpy: it has only `__index__`."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


def _spectrum(spec):
    return (spec, [type(v) for v in (spec.n, spec.N, spec.L)], spec.floats(),
            repr(spec.entropy()), repr(spec.renyi(2.0)), repr(spec.renyi(0.5 + 1j)))


def _state(state):
    return type(state.n), state.n, state.dims, state.codes.dtype, state.codes.tobytes(), state.scale


def _spec(spec):
    return spec, type(spec.n), type(spec.N)


def _points(points):  # BranchPoint equality would take np.True_ for True
    return [(p, [type(v) for v in (p.alpha, p.m, p.sign, p.residual, p.even_block)]) for p in points]


def _checks(results):
    return [(r, json.dumps(r.worst_at)) for r in results]


def _ring(n_max):
    return st.tuples(st.integers(2, n_max), st.integers(2, 40)).flatmap(
        lambda nN: st.tuples(st.just(nN[0]), st.just(nN[1]), st.integers(1, nN[1])))


DIM, LENGTH, RING, CHAIN = "qudit dimension", "block length", "periodic chain length", "chain length"

# entry point -> (facts of its result, its arguments drawn as Python ints, and
# per argument the phrase its refusal holds, None for an argument that is no integer)
CASES = {
    "open_spectrum": (lambda n, L: _spectrum(closed_form.open_spectrum(n, L)),
                      st.tuples(st.integers(2, 6), st.integers(1, 60)), (DIM, LENGTH)),
    "periodic_spectrum": (lambda n, N, L: _spectrum(closed_form.periodic_spectrum(n, N, L)),
                          _ring(6), (DIM, RING, LENGTH)),
    "transfer_spectrum": (lambda n, L: _spectrum(closed_form.transfer_spectrum(n, L)),
                          st.tuples(st.integers(2, 5), st.integers(1, 20)), (DIM, LENGTH)),
    "open entropies": (lambda n, L: (repr(closed_form.open_entropy(n, L)),
                                     repr(closed_form.open_renyi(n, L, 3.0))),
                       st.tuples(st.integers(2, 6), st.integers(1, 60)), (DIM, LENGTH)),
    "ring entropies": (lambda n, N, L: (repr(closed_form.periodic_entropy(n, N, L)),
                                        repr(closed_form.periodic_renyi(n, N, L, 0.5))),
                       _ring(6), (DIM, RING, LENGTH)),
    "branch_points": (lambda n, L, ms: _points(closed_form.branch_points(n, L, ms)),
                      st.tuples(st.integers(2, 4), st.integers(2, 8),
                                st.lists(st.integers(0, 5), min_size=1, max_size=3)),
                      (DIM, LENGTH, "branch integer")),
    "ChainSpec": (lambda n, N, boundary: _spec(ChainSpec(n, N, boundary)),
                  st.tuples(st.integers(2, 4), st.integers(2, 4), st.sampled_from([OPEN, PERIODIC])),
                  (DIM, CHAIN, None)),
    "PureState": (lambda n, state: _state(PureState(n, state.dims, state.codes, state.scale)),
                  st.integers(2, 3).map(lambda n: (n, open_vbs_state(ChainSpec(n, 2, OPEN)))),
                  (DIM, None)),
    "edge_basis": (lambda n, L: _state(edge_basis(n, L)),
                   st.tuples(st.integers(2, 3), st.integers(1, 3)), (DIM, CHAIN)),
    "weyl": (lambda n: (repr(weyl.phase_fold(n, [(1, -1), (2, 3)])), weyl.u_lm(n, (1, -1)).tobytes(),
                        weyl.bell_vector(n, (2, -1)).tobytes()),
             st.tuples(st.integers(2, 6)), (DIM,)),
    # n is drawn small here rather than capped in the lambda: arithmetic on
    # the drawn argument would not take every integer type
    "swap_identity_residual": (lambda n: repr(weyl.swap_identity_residual(n)),
                               st.tuples(st.integers(2, 3)), (DIM,)),
    "run_checks": (lambda n: _checks(run_checks(only=["saturation", "transfer-matrix"], ns=[n])),
                   st.tuples(st.integers(2, 4)), (DIM,)),
}


def _as(kind, value):
    """value as `kind`, element by element for a list; bool takes only 1."""
    if isinstance(value, list):
        return [_as(kind, v) for v in value]
    if kind is bool:
        return True if value == 1 else value
    return kind(value)


def _draw_case(data):
    name = data.draw(st.sampled_from(sorted(CASES)))
    facts, arguments, phrases = CASES[name]
    return name, facts, tuple(data.draw(arguments)), phrases


# The cases with an integer argument that may be 1, by its position: there
# it is set to 1 (a branch integer list to [1]) and passed as True.
TRUE_CASES = {"branch_points": 2, "edge_basis": 1, "open entropies": 1, "open_spectrum": 1,
              "periodic_spectrum": 2, "ring entropies": 2, "transfer_spectrum": 1}
KINDS = (Index, *NUMPY_INTEGERS)  # every drawn value fits each of them
PAIRS = [(name, kind) for name in sorted(CASES) for kind in KINDS] + [(name, bool) for name in TRUE_CASES]


@pytest.mark.parametrize("name,kind", PAIRS, ids=[f"{name}-{kind.__name__}" for name, kind in PAIRS])
@settings(derandomize=True, max_examples=3, deadline=timedelta(seconds=2))
@given(data=st.data())
def test_integer_arguments_compute_as_python_ints(name, kind, data):
    facts, arguments, phrases = CASES[name]
    args = tuple(data.draw(arguments))
    if kind is bool:
        i = TRUE_CASES[name]
        args = args[:i] + ([1] if isinstance(args[i], list) else 1,) + args[i + 1:]
    drawn = tuple(_as(kind, a) if phrase else a for a, phrase in zip(args, phrases))
    assert facts(*drawn) == facts(*args), (name, drawn)


@settings(derandomize=True, max_examples=200, deadline=timedelta(seconds=2))
@given(data=st.data())
def test_non_integer_arguments_are_refused_by_name(data):
    name, facts, args, phrases = _draw_case(data)
    i = data.draw(st.sampled_from([i for i, phrase in enumerate(phrases) if phrase]))
    bad = data.draw(st.sampled_from(NON_INTEGERS))
    args = args[:i] + ([bad] if isinstance(args[i], list) else bad,) + args[i + 1:]
    with pytest.raises(ValueError, match=re.escape(phrases[i])):
        facts(*args)


def test_saturation_check_runs_at_a_numpy_n():
    # a numpy n reached saturation_envelope, whose int64 powers refused a negative exponent
    (result,) = run_checks(only=["saturation"], ns=[np.int64(2)])
    assert result.passed and result.evaluated > 0
    assert json.loads(json.dumps(result.worst_at))["n"] == 2


@pytest.mark.parametrize("value,want", [(Index(3), 3), (np.uint8(3), 3), (True, 1)], ids=repr)
def test_index_types_come_back_as_python_ints(value, want):
    got = weyl._check_int(value, 1, "block length must be an integer L")
    assert type(got) is int and got == want
    spec = closed_form.open_spectrum(2, value)
    assert type(spec.L) is int and spec == closed_form.open_spectrum(2, want)


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
def test_non_integers_are_refused_with_the_same_message(bad):
    with pytest.raises(ValueError) as refused:
        closed_form.open_spectrum(2, bad)
    assert str(refused.value) == f"block length must be an integer L >= 1, got {bad!r}"
    with pytest.raises(ValueError) as refused:
        weyl._check_dimension(bad)
    assert str(refused.value) == f"qudit dimension must be an integer >= 2, got {bad!r}"


BLOCK_ROUTES = (oracle.exact_block_spectrum, oracle.block_spectrum, oracle.reduced_density)


@pytest.mark.parametrize("route", BLOCK_ROUTES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [1.0, np.float64(1), "0", None], ids=repr)
def test_block_positions_pass_the_integer_contract(route, bad):
    state = open_vbs_state(ChainSpec(2, 3, OPEN))
    with pytest.raises(ValueError, match=re.escape(f"block positions [0, {bad!r}] must be integers")):
        route(state, [0, bad])


@pytest.mark.parametrize("route", BLOCK_ROUTES, ids=lambda f: f.__name__)
def test_integer_block_positions_of_any_type_compute_alike(route):
    state = open_vbs_state(ChainSpec(2, 3, OPEN))
    got, want = route(state, [np.int64(1), Index(2)]), route(state, range(1, 3))
    if route is oracle.reduced_density:
        got, want = got.matrix, want.matrix
    assert np.array_equal(got, want)


# every function that takes a pair label, as a function of n and one label
LABEL_ROUTES = {
    "as_index": weyl.as_index,
    "u_lm": lambda n, a: weyl.u_lm(n, a).tobytes(),
    "bell_vector": lambda n, a: weyl.bell_vector(n, a).tobytes(),
    "compose": lambda n, a: weyl.compose(n, a, (1, 2)),
    "phase_fold": lambda n, a: weyl.phase_fold(n, [(2, 1), a]),
}


@pytest.mark.parametrize("route", sorted(LABEL_ROUTES))
@pytest.mark.parametrize("label", [(0.5, 0), (1.7, 0), (0, 0.9), (np.float64(1), 0), (0, "1"), (None, 0),
                                   (1,), (1, 2, 3), 3, None], ids=repr)
def test_non_integer_labels_are_refused_by_name(route, label):
    # int() truncated a float part: u_lm(2, (0.5, 0)) was the identity, (1.7, 0) was X
    with pytest.raises(ValueError, match=re.escape(f"pair label must be two integers (l, m), got {label!r}")):
        LABEL_ROUTES[route](3, label)


def _label(kind):
    """A pair label of two integers of `kind`, one negative where it holds one."""
    if kind is bool:
        return True, False
    signed = kind is Index or np.issubdtype(kind, np.signedinteger)
    return kind(-1 if signed else 4), kind(5)


@pytest.mark.parametrize("route", sorted(LABEL_ROUTES))
@pytest.mark.parametrize("kind", [Index, bool, *NUMPY_INTEGERS], ids=lambda t: t.__name__)
def test_integer_labels_of_any_type_compute_alike(route, kind):
    label = _label(kind)
    assert LABEL_ROUTES[route](3, label) == LABEL_ROUTES[route](3, tuple(map(operator.index, label)))
    assert [type(part) for part in weyl.as_index(3, label)] == [int, int]
