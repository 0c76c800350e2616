"""The benchmark tracer's (module, function) names exist in the package.

perfbench/tracing.py wraps each name in TRACED by getattr at run time, so a
renamed or deleted function would only fail a traced benchmark run.  The
file imports only the standard library and is loaded here by its path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [
        f"cachecast.{module}.{name}"
        for module, name in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"cachecast.{module}"), name, None))
    ]
    assert missing == []
