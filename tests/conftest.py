import pytest

from fplab import operators


@pytest.fixture
def force_dense(monkeypatch):
    """A call that sends every solver down its dense path from then on: no
    operator reports birth-death bands, and its blocks are the one dense
    matrix under the identity fold."""

    def apply():
        cls = operators.OperatorMatrix
        monkeypatch.setattr(cls, "bands", property(lambda self: None))
        monkeypatch.setattr(cls, "blocks", property(lambda self: operators._whole(self.entries)))

    return apply
