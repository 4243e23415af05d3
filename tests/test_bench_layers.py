"""The benchmark's traced layers (nhkbench/spans.py) name functions that
exist: a rename or deletion in the library fails here, not only in a
traced benchmark run (``nhkbench/run.py --trace 1``)."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "nhkbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("nhkbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, name):
    owner = module
    for part in name.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_layer_name_resolves():
    spans = _load_spans()
    missing = []
    for mod, names in spans.LAYERS.items():
        module = importlib.import_module(f"nhk.{mod}")
        for name in names:
            try:
                _resolve(module, name)
            except AttributeError:
                missing.append(f"nhk.{mod}.{name}")
    assert missing == []


def test_the_tracer_installs_and_uninstalls_cleanly():
    spans = _load_spans()
    modules = {mod: importlib.import_module(f"nhk.{mod}")
               for mod in spans.LAYERS}
    before = {(mod, name): _resolve(modules[mod], name)
              for mod, names in spans.LAYERS.items() for name in names}
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (mod, name), original in before.items():
            wrapped = _resolve(modules[mod], name)
            assert wrapped is not original, f"nhk.{mod}.{name}"
            assert wrapped.__wrapped__ is original, f"nhk.{mod}.{name}"
    finally:
        tracer.uninstall()
    for (mod, name), original in before.items():
        assert _resolve(modules[mod], name) is original, f"nhk.{mod}.{name}"
