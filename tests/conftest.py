"""Shared fixtures."""

import numpy as np
import pytest

from eigenfilter import numerics, qlsp
from eigenfilter.filtering import prepend_ancilla


def dense_hamiltonians(inst):
    """(H0, H1, |0⟩|u0⟩) as dense references: offdiag(B0) and offdiag(B1)
    of qlsp.hamiltonian_blocks, 2N×2N for positive-definite input (4N, 8N
    for the dilations), and the start state. The solvers multiply only the
    blocks."""
    b0, b1, u0 = qlsp.hamiltonian_blocks(inst)
    return qlsp.offdiag(b0), qlsp.offdiag(b1), prepend_ancilla(u0.amps)


class CountedOperator(np.ndarray):
    """A matrix view that counts the np.dot and np.matmul calls it takes
    part in; inside numerics.clenshaw each one is one application of the
    operator, or of a stack of operators. Arrays derived from it, such as
    the kernel's doubled copy (written through out=), share its counter,
    and each product's name ("dot" or "matmul"), (matrix, vector) dtypes
    and (matrix, vector, out) start addresses modulo 64 are kept in order."""

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

    def _count(self, product, operands, out):
        self.counter["matvecs"] += 1
        self.counter.setdefault("products", []).append(product)
        self.counter.setdefault("dtypes", []).append(
            (operands[0].dtype, operands[1].dtype))
        self.counter.setdefault("offsets", []).append(
            tuple(x.ctypes.data % 64 for x in (*operands[:2], out)))

    def __array_function__(self, func, types, args, kwargs):
        if func is np.dot:
            self._count("dot", args, kwargs["out"])
        return super().__array_function__(func, types, args, kwargs)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # np.matmul is a ufunc: count it here, then run every ufunc on
        # plain views and hand back a result derived from this matrix, the
        # out= array included, as a view that shares its counter
        if ufunc is np.matmul:
            self._count("matmul", inputs, kwargs["out"][0])

        def plain(x):
            return x.view(np.ndarray) if isinstance(x, CountedOperator) else x

        if "out" in kwargs:
            kwargs["out"] = tuple(map(plain, kwargs["out"]))
        result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        if not isinstance(result, np.ndarray):
            return result
        view = result.view(CountedOperator)
        view.counter = self.counter
        return view


def counted(ops, counter):
    """ops, one matrix or a tuple of them, as CountedOperator views that
    count into counter["matvecs"]."""
    if isinstance(ops, tuple):
        return tuple(counted(m, counter) for m in ops)
    view = np.asarray(ops).view(CountedOperator)
    view.counter = counter
    return view


@pytest.fixture
def counted_view():
    """counted(ops, counter): counting views to hand the kernel."""
    return counted


@pytest.fixture
def matvec_counter(monkeypatch):
    """Count the operator applications of every numerics.clenshaw call made
    through the module (clenshaw_apply and the filters), at the kernel's
    np.dot calls.

    The time evolution and the inversion baseline bind the recurrence by
    name, so their matvecs (which are not filter queries) stay out of the
    count.
    """
    counter = {"matvecs": 0}
    recurrence = numerics.clenshaw

    def counted_recurrence(c, ops, vec):
        return recurrence(c, counted(ops, counter), vec)

    monkeypatch.setattr(numerics, "clenshaw", counted_recurrence)
    return counter
