"""Shared fixtures."""

import numpy as np
import pytest

from eigenfilter import numerics


class CountedOperator(np.ndarray):
    """A matrix view that counts the np.dot calls it takes part in; inside
    numerics.clenshaw each one is one application of the operator. Arrays
    derived from it, such as the kernel's doubled copy, share its counter,
    and each product's (matrix, vector) dtypes are kept in order."""

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

    def __array_function__(self, func, types, args, kwargs):
        if func is np.dot:
            self.counter["matvecs"] += 1
            self.counter.setdefault("dtypes", []).append(
                (args[0].dtype, args[1].dtype))
        return super().__array_function__(func, types, args, kwargs)


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
