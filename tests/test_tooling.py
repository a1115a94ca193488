"""The benchmark tracer (perfbench/tracer.py) binds the functions it wraps by
name. A traced public function that is deleted or renamed must fail here, not
first in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
