"""The benchmark's per-layer tracer finds every name it wraps.

``perfbench/spans.py`` lists its targets as (module, attribute path,
span name, attrs) in ``TARGETS`` and looks each one up with ``getattr``
on ``poincarelab.<module>`` when a traced run starts, so a name dropped
or renamed in the library breaks ``perfbench/run.py --trace 1``.  This
test reads the file's source and runs it in a namespace of its own,
without importing it as a module, so nothing is written under
``perfbench/`` (no bytecode cache), and resolves every target the way
``Tracer.install`` does.
"""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_namespace() -> dict:
    namespace = {"__name__": "spans_under_test"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def test_every_trace_target_resolves():
    spans = _spans_namespace()
    targets, modules = spans["TARGETS"], spans["MODULES"]
    assert targets
    for mod_name in modules:
        importlib.import_module(f"poincarelab.{mod_name}")
    missing = []
    for mod_name, path, _name, _attrs in targets:
        assert mod_name in modules, mod_name
        owner = importlib.import_module(f"poincarelab.{mod_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"poincarelab.{mod_name}.{path}")
                break
        else:
            assert callable(owner), f"poincarelab.{mod_name}.{path}"
    assert not missing, f"trace targets not found: {missing}"
