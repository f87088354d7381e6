"""The functions ``perfbench/tracer.py`` patches still exist in chevlab.

The tracer reads its targets from the ``HOT`` and ``SPANS`` tables and
looks each one up in its module's ``__dict__`` (a ``Class.method`` entry in
the class's ``__dict__``), so a deletion or rename in chevlab breaks
``perfbench/run.py --trace 1``.  The tables are read here with ``ast``;
perfbench is neither imported nor changed.
"""

import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")


def tracer_tables():
    """The literal tuples the tracer assigns to HOT, SPANS and MODULES."""
    with open(TRACER) as f:
        tree = ast.parse(f.read(), TRACER)
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in (
                        "HOT", "SPANS", "MODULES"):
                    tables[target.id] = ast.literal_eval(node.value)
    return tables


TABLES = tracer_tables()


def test_tracer_tables_are_read():
    assert set(TABLES) == {"HOT", "SPANS", "MODULES"}
    assert TABLES["HOT"] and TABLES["SPANS"]


@pytest.mark.parametrize("module", TABLES["MODULES"])
def test_tracer_module_is_a_chevlab_module(module):
    importlib.import_module(f"chevlab.{module}")


@pytest.mark.parametrize(
    "module,attr", [entry[:2] for entry in TABLES["HOT"] + TABLES["SPANS"]],
    ids=[f"{m}.{a}" for m, a, _ in TABLES["HOT"] + TABLES["SPANS"]])
def test_tracer_target_resolves(module, attr):
    assert module in TABLES["MODULES"]
    owner = importlib.import_module(f"chevlab.{module}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = vars(owner)[cls_name]
        assert isinstance(owner, type)
    assert callable(vars(owner)[attr])
