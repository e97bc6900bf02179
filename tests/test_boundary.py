"""One property over the public surface: every function in `psdk.__all__`,
called with arguments drawn from a pool of small values, raises a PsdkError
or returns only real, finite arrays (a returned tuple, a factor's entries, a
pair's vectors and values and a result's basis included).

A function with at most two required arguments gets every tuple of pool
values; the others get a derandomized hypothesis draw. Integers stay at
most 3 and arrays at most 4 x 4, so no call allocates anything large. A
silent complex cast (numpy's ComplexWarning) is an error here. Of the
classes of `__all__`, `CholFactor` is checked where it is built, so it gets
the property too: built from every pair of pool values, then read (`p`,
`rank`, `matrix`, `pivot_failure()`). `IndexSet` and `RngStream` have their
own tests; `SpectralPair` and `DpcaResult` are plain records, checked by
the functions that take them.
"""

import inspect
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psdk
from psdk import CholFactor, DpcaResult, IndexSet, PsdkError, RngStream, SpectralPair

_FRAME = ((1.0, 0.0), (0.5, 2.0), (0.2, -0.3))


def _factor():
    return CholFactor(np.array(_FRAME), IndexSet((0, 1)))


# Each value is built afresh for every call, so that no call sees what an
# earlier one consumed or changed in place.
_POOL = {
    "None": lambda: None,
    "'abc'": lambda: "abc",
    "{}": dict,
    "[]": list,
    "ragged list": lambda: [[1.0, 2.0], [3.0]],
    "1j": lambda: 1j,
    "complex 2 x 2": lambda: np.array([[2.0, 1j], [-1j, 2.0]]),
    "nan": lambda: np.nan,
    "inf": lambda: np.inf,
    "-1": lambda: -1,
    "0": lambda: 0,
    "1": lambda: 1,
    "2": lambda: 2,
    "3": lambda: 3,
    "0.5": lambda: 0.5,
    "True": lambda: True,
    "empty (0, 0)": lambda: np.zeros((0, 0)),
    "empty (0,)": lambda: np.zeros(0),
    "eye(3)": lambda: np.eye(3),
    "3 x 2 frame": lambda: np.array(_FRAME),
    "nested-list frame": lambda: [list(row) for row in _FRAME],
    "nan 2 x 2": lambda: np.full((2, 2), np.nan),
    "2 x 3": lambda: np.ones((2, 3)),
    "2 x 2 x 2": lambda: np.ones((2, 2, 2)),
    "factor": _factor,
    "stack of 3 factors": lambda: CholFactor(np.stack([_FRAME] * 3), IndexSet((0, 1))),
    "pair": lambda: SpectralPair(np.eye(3)[:, :2], np.array([2.0, 1.0])),
    "stacked pair": lambda: SpectralPair(np.stack([np.eye(3)[:, :2]] * 2),
                                         np.array([[2.0, 1.0], [3.0, 1.0]])),
    "IndexSet((0,))": lambda: IndexSet((0,)),
    "IndexSet((0, 1))": lambda: IndexSet((0, 1)),
    "(0, 1)": lambda: (0, 1),
    "(5,)": lambda: (5,),
    "Generator": lambda: np.random.default_rng(0),
    "RngStream": lambda: RngStream(0, 1),
    "list of factors": lambda: [_factor(), _factor()],
    "iterator of factors": lambda: iter([_factor(), _factor()]),
    "diag(3, 2, 1, 0.5)": lambda: np.diag([3.0, 2.0, 1.0, 0.5]),
}

_FUNCTIONS = {name: getattr(psdk, name) for name in psdk.__all__
              if inspect.isfunction(getattr(psdk, name))}


def _arity(func):
    """The number of required positional arguments; *args counts as one."""
    return sum(p.default is p.empty and p.kind is not p.KEYWORD_ONLY
               for p in inspect.signature(func).parameters.values())


def _arrays(out):
    """The arrays in a return value."""
    if isinstance(out, tuple):
        return [a for item in out for a in _arrays(item)]
    if isinstance(out, CholFactor):
        return [out.entries]
    if isinstance(out, SpectralPair):
        return [out.vectors, out.values]
    if isinstance(out, DpcaResult):
        return [out.basis]
    return [out] if isinstance(out, (np.ndarray, float)) else []


def _fault(func, keys):
    """None if `func` on the pool values `keys` raises a PsdkError or returns
    only real, finite arrays, else what it did."""
    try:
        out = func(*(_POOL[key]() for key in keys))
    except PsdkError:
        return None
    except Exception as err:  # noqa: BLE001 -- any other error is the fault
        return f"{keys}: {type(err).__name__}: {err}"
    if all(np.isrealobj(a) and np.isfinite(a).all() for a in _arrays(out)):
        return None
    return f"{keys}: returned a non-real or non-finite array"


def _faults(func, tuples):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        return [f for f in (_fault(func, keys) for keys in tuples) if f]


def _read_factor(entries, index_set):
    """A CholFactor built from two pool values, and what reading it gives."""
    factor = CholFactor(entries, index_set)
    return factor.p, factor.rank, factor.matrix, factor.pivot_failure()


def test_every_pair_of_pool_values_builds_a_factor_or_raises_a_psdk_error():
    faults = _faults(_read_factor, itertools.product(_POOL, repeat=2))
    assert not faults, f"CholFactor: {len(faults)} faults, first {faults[:3]}"


@pytest.mark.parametrize("name", sorted(n for n, f in _FUNCTIONS.items() if _arity(f) <= 2))
def test_every_tuple_of_pool_values_raises_a_psdk_error_or_gives_finite_arrays(name):
    faults = _faults(_FUNCTIONS[name], itertools.product(_POOL, repeat=_arity(_FUNCTIONS[name])))
    assert not faults, f"{name}: {len(faults)} faults, first {faults[:3]}"


@pytest.mark.parametrize("name", sorted(n for n, f in _FUNCTIONS.items() if _arity(f) > 2))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_drawn_pool_values_raise_a_psdk_error_or_give_finite_arrays(name, data):
    keys = data.draw(st.tuples(*[st.sampled_from(sorted(_POOL))] * _arity(_FUNCTIONS[name])))
    faults = _faults(_FUNCTIONS[name], [keys])
    assert not faults, faults
