"""The benchmark's traced run wraps layers by (module, attribute) name.

``perfbench/fedbench/tracing.py`` patches each ``PATCH_SITES`` entry at
run time, so renaming a function, or importing it under another name
at a patched call site, would only surface in a traced benchmark run.
These checks make that a tier-1 failure: every site must resolve, and
every module-level function site must still be called by that name in
its module (the traced run's expected-active check needs the calls).
"""

import importlib
import inspect
import pathlib
import sys

import pytest

sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

from fedbench.tracing import PATCH_SITES  # noqa: E402


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize(
    "module_name,attr", [(site[0], site[1]) for site in PATCH_SITES], ids=str
)
def test_patch_site_resolves(module_name, attr):
    assert callable(_resolve(module_name, attr))


@pytest.mark.parametrize(
    "module_name,attr",
    [(site[0], site[1]) for site in PATCH_SITES if "." not in site[1]],
    ids=str,
)
def test_imported_function_is_called_by_name(module_name, attr):
    """A function patched on an importing module must be called there
    through that module attribute, not through another alias."""
    source = inspect.getsource(importlib.import_module(module_name))
    assert f"{attr}(" in source
