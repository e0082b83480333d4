"""The benchmark tracer patches lefhom by (module, attribute) name; every
name it patches must exist, or a traced run stops with AttributeError."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    # executed from source, so nothing is written next to the benchmark
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_binding_exists():
    tracing = _tracing_module()
    bindings = [(module, (attr,)) for module, attr, _, _ in tracing.FUNCTIONS]
    bindings += [(module, (cls, attr)) for module, cls, attr, _, _ in tracing.METHODS]
    bindings += [("lefhom.homology", ("profile_from_boundaries",)),
                 ("lefhom.simplicial", ("profile_from_boundaries",)),
                 ("lefhom.cli", ("search_converse",))]
    missing = []
    for module, path in bindings:
        owner = importlib.import_module(module)
        for attr in path:
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(".".join((module,) + path))
    assert len(bindings) > 30
    assert missing == []
