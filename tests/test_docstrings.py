"""Documentation-coverage meta-test.

Every public module, class and function in the library must carry a
docstring — the deliverable is a documented public API, and this test
keeps it that way.  The design documents may name only modules and
members that exist.
"""

import importlib
import inspect
import os
import pkgutil
import re

import pytest

import repro


def walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


ALL_MODULES = list(walk_modules())

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__, f"module {module.__name__} lacks a docstring"


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_members_documented(module):
    undocumented = []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        if not inspect.getdoc(member):
            undocumented.append(name)
        elif inspect.isclass(member):
            for meth_name, meth in vars(member).items():
                if meth_name.startswith("_"):
                    continue
                if inspect.isfunction(meth) and not inspect.getdoc(meth):
                    undocumented.append(f"{name}.{meth_name}")
    assert not undocumented, (
        f"{module.__name__}: undocumented public members: {undocumented}"
    )


#: Documents whose backticked ``repro.…`` names must stay real.
DOCS = ["DESIGN.md", "README.md"] + sorted(
    os.path.join("docs", name)
    for name in os.listdir(os.path.join(ROOT, "docs"))
    if name.endswith(".md")
)

DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def resolve(name: str):
    """Import the longest module prefix of ``name``, then look up the
    rest as attributes; raises if any part does not exist."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as error:
            if error.name != module_name:
                raise
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(name)


def test_docs_name_real_modules():
    """Every `repro.…` name in the design docs imports or resolves."""
    stale = []
    for doc in DOCS:
        with open(os.path.join(ROOT, doc), encoding="utf-8") as handle:
            names = set(DOTTED_NAME.findall(handle.read()))
        assert names or doc.startswith("docs"), f"{doc} names no modules"
        for name in sorted(names):
            try:
                resolve(name)
            except (ImportError, AttributeError):
                stale.append(f"{doc}: {name}")
    assert not stale, f"docs name modules that do not exist: {stale}"
