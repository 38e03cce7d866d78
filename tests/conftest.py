"""Shared test fixtures."""

import collections

import pytest


@pytest.fixture
def counting(monkeypatch):
    """Wrap ``module.name`` so each call is counted in ``counting.calls[name]``."""
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    count.calls = calls
    return count
