"""The API-surface preflight names what is missing."""

import pytest

from perfledger import surface


def test_every_listed_symbol_resolves():
    surface.resolve()


def test_a_missing_import_is_named(monkeypatch):
    gone = "repro.sim.engine:Environment.no_such_method"
    monkeypatch.setattr(surface, "IMPORTS", surface.IMPORTS + (gone,))
    with pytest.raises(surface.MissingSymbol) as caught:
        surface.resolve()
    assert str(caught.value) == gone


def test_a_missing_counter_is_named(monkeypatch):
    reads = {**surface.READS, "Disk": surface.READS["Disk"] + ("seeks",)}
    monkeypatch.setattr(surface, "READS", reads)
    with pytest.raises(surface.MissingSymbol) as caught:
        surface.resolve()
    assert str(caught.value) == "Disk.seeks"


def test_an_unlisted_read_is_refused():
    from repro.sim.engine import Environment

    with pytest.raises(KeyError, match="Environment.events_processed"):
        surface.read(Environment(), "events_processed")
