import pytest

from fplab import operators, semigroup, spectra


@pytest.fixture
def force_dense(monkeypatch):
    """A call that sends every solver down its dense path from then on:
    neither the birth-death bands nor the mirror blocks are recognized."""

    def apply():
        for mod in (operators, semigroup, spectra):
            monkeypatch.setattr(mod, "_birth_death", lambda M: None)
            monkeypatch.setattr(mod, "_mirror_blocks", lambda M: None)

    return apply
