"""The benchmark tracer (perfbench/tracer.py), the scripts under scripts/ and
README's library example bind package names, private ones included, and
README names the package's records and, in "What is inside", its
functions. A name they use that is deleted or
renamed must fail here, not first in a traced benchmark run, a script run
(neither is part of this suite) or a reader's session."""

import ast
import importlib
import importlib.util
import pkgutil
import re
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


def test_readme_library_example_runs(capsys):
    # the block a reader copies first: a removed or renamed export fails here
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("0.596347362323")


def test_readme_records_are_the_exported_records():
    # README's records sentence names every exported named tuple, and no more
    readme = (ROOT / "README.md").read_text()
    sentence = readme.split("\nThe records (", 1)[1].split(")", 1)[0]
    package = importlib.import_module("gompertz")
    exported = {name for name, value in vars(package).items()
                if isinstance(value, type) and issubclass(value, tuple)
                and hasattr(value, "_fields")}
    assert exported
    assert set(re.findall(r"`(\w+)`", sentence)) == exported


def test_readme_inside_names_resolve():
    # every snake_case name that README's "What is inside" puts in
    # backticks, bare or as module.name, is defined on a package module
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## What is inside\n", 1)[1].split("\n## ", 1)[0]
    package = importlib.import_module("gompertz")
    modules = {info.name: importlib.import_module(f"gompertz.{info.name}")
               for info in pkgutil.iter_modules(package.__path__)}
    names = re.findall(r"`(?:(\w+)\.)?([a-z]\w*_\w*)[`(]", section)
    assert names
    missing = [f"{owner}.{name}".lstrip(".") for owner, name in names
               if not any(hasattr(module, name)
                          for key, module in modules.items()
                          if owner in ("", key))]
    assert missing == []
