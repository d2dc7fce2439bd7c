"""Shared fixtures."""

import pytest

from eigenfilter import numerics


@pytest.fixture
def matvec_counter(monkeypatch):
    """Count the operator applications of every Clenshaw recurrence run."""
    counter = {"matvecs": 0}
    recurrence = numerics._clenshaw

    def counted(c, matvec, vec):
        def mv(x):
            counter["matvecs"] += 1
            return matvec(x)
        return recurrence(c, mv, vec)

    monkeypatch.setattr(numerics, "_clenshaw", counted)
    return counter
