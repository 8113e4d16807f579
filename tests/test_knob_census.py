"""The knob census (``scripts/knob_census.py``) pinned at zero.

A config field that no caller sets to a second value, or a defaulted
parameter that no call passes, is a setting with no behaviour behind
it (DESIGN §5 item 7).  These tests run the census over the tree and
fail when one comes back, naming it.
"""
import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "knob_census", ROOT / "scripts" / "knob_census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


@pytest.fixture
def at_root(monkeypatch):
    """The census reads its roots relative to the repository root."""
    monkeypatch.chdir(ROOT)


def test_no_config_field_has_one_value(at_root):
    configs = census.config_fields()
    single = census.one_value_fields(configs, census.config_setters(configs))
    assert {cls: fields for cls, fields in single.items() if fields} == {}


def test_every_defaulted_parameter_is_passed(at_root):
    unpassed = census.unpassed_parameters(census.defaulted_parameters())
    assert [(name, arg) for _path, name, arg in unpassed] == []


BASE = """
class Daemon:
    def __init__(self, interval, until=None):
        pass
"""


@pytest.mark.parametrize("subclass, unpassed", [
    # ``super().__init__`` inside ``class Scrub(Daemon)`` calls Daemon.
    ("class Scrub(Daemon):\n"
     "    def __init__(self):\n"
     "        super().__init__(1.0, until=5.0)\n", []),
    # The same call outside a subclass names no class at all.
    ("def scrub(daemon):\n"
     "    super().__init__(1.0, until=5.0)\n", [("Daemon", "until")]),
], ids=["in-a-subclass", "outside-a-class"])
def test_super_init_is_a_call_of_the_base(subclass, unpassed):
    files = [("snippet.py", ast.parse(BASE + subclass))]
    params = census.defaulted_parameters(files)
    assert [(name, arg) for _path, name, arg in
            census.unpassed_parameters(params, files)] == unpassed
