"""The benchmark tracer (perfbench/tracer.py) and the scripts under scripts/
bind package names, private ones included. A name they use that is deleted or
renamed must fail here, not first in a traced benchmark run or a script run
(neither is part of this suite)."""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines names only; installs nothing
    missing = [f"{module}.{fn}"
               for module, fns in tracer.TRACED.items() for fn in fns
               if not callable(getattr(
                   importlib.import_module(f"gompertz.{module}"), fn, None))]
    assert tracer.TRACED
    assert missing == []


def _missing_package_names(source: str) -> list[str]:
    """Names that a script imports from gompertz, or reaches as an attribute
    chain (module.function.attr) from an imported gompertz module, and that
    do not exist; a chain is reported up to its first missing link."""
    tree = ast.parse(source)
    modules: dict[str, ModuleType] = {}  # local name -> gompertz module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "gompertz":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if not hasattr(module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(value, ModuleType):
                    modules[alias.asname or alias.name] = value
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in modules:
            value = modules[node.id]
            path = value.__name__
            for attr in reversed(chain):
                path += f".{attr}"
                if not hasattr(value, attr):
                    missing.append(path)
                    break
                value = getattr(value, attr)
    return missing


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_package_names_resolve(script):
    assert _missing_package_names(script.read_text()) == []


def test_script_check_catches_stale_names():
    stale = ("from gompertz import verify, no_such_function\n"
             "from gompertz.verify import _no_such_helper\n"
             "verify._no_such_cache.cache_clear()\n"
             "verify.digamma_series_rhs.cache_clear()\n"
             "verify.digamma_series_coeff(1, 2)\n")
    assert _missing_package_names(stale) == [
        "gompertz.no_such_function", "gompertz.verify._no_such_helper",
        "gompertz.verify._no_such_cache",
        "gompertz.verify.digamma_series_rhs.cache_clear"]
