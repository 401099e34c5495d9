"""The benchmark's traced pass still finds every function it wraps."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_every_layer_target_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import clifbundle  # noqa: F401
    import clifbundle.cli  # noqa: F401
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        for module_name, attr in tracer.LAYER_TARGETS:
            owner = sys.modules[module_name]
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert hasattr(owner, "__perfbench_original__"), f"{module_name}.{attr}"
        patched = len(t._patched)
    finally:
        t.uninstall()
    assert patched >= len(tracer.LAYER_TARGETS)
    assert tracer.leftover_wrappers() == []
