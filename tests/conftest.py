"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from levelflow import ScalarField


@pytest.fixture
def field_evaluations(monkeypatch):
    """Point counts of every ScalarField evaluation, one entry per call."""
    counts = []
    for name in ("jet", "value", "gradient", "hessian", "laplacian"):
        def counted(self, p, *args, _method=getattr(ScalarField, name), **kwargs):
            counts.append(np.atleast_2d(np.asarray(p, dtype=float)).shape[0])
            return _method(self, p, *args, **kwargs)
        monkeypatch.setattr(ScalarField, name, counted)
    return counts
