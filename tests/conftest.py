import pytest

from fplab import operators


@pytest.fixture
def force_dense(monkeypatch):
    """A call that sends every solver down its dense path from then on: no
    operator reports birth-death bands or mirror blocks."""

    def apply():
        monkeypatch.setattr(operators.OperatorMatrix, "structure", property(lambda self: None))

    return apply
