import pytest

import witl.rd as rd


@pytest.fixture
def empty_stores(monkeypatch):
    """A function that gives rd an empty joint plane store (_SWEEP_CACHE) and an
    empty scalar start memo (_START_MEMO) for the rest of the test, so that the
    next search of every query makes its own start."""

    def empty():
        monkeypatch.setattr(rd, "_SWEEP_CACHE", {})
        monkeypatch.setattr(rd, "_START_MEMO", {})

    return empty
