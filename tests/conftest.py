"""Shared fixtures."""

import pytest

from eigenfilter import numerics


@pytest.fixture
def matvec_counter(monkeypatch):
    """Count the operator applications of every clenshaw_apply call.

    The time evolution binds the recurrence by name, so its matvecs (which
    are not filter queries) stay out of the count.
    """
    counter = {"matvecs": 0}
    recurrence = numerics.clenshaw

    def counted(c, matvec, vec):
        def mv(x):
            counter["matvecs"] += 1
            return matvec(x)
        return recurrence(c, mv, vec)

    monkeypatch.setattr(numerics, "clenshaw", counted)
    return counter
