"""The traced benchmark run wraps oporder functions by name
(``perfbench/hooks.py``); a target that is renamed or deleted drops its
metrics from the traced result, so every target must still resolve."""
import importlib.util
import sys

import oporder.cli  # noqa: F401  (the tracer wraps what is imported)
from oporder import spectral, verify
from util import REPO_ROOT


def _load_hooks(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_hooks",
                                                  REPO_ROOT / "perfbench" / "hooks.py")
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its class's module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(monkeypatch):
    hooks = _load_hooks(monkeypatch)
    originals = (spectral.loewner_compare, verify.gen_unordered_tuple,
                 spectral.HermitianMatrix.__dict__["decomposition"])
    tracer = hooks.Tracer().install()
    try:
        assert tracer.missing == []
        assert spectral.loewner_compare is not originals[0]
    finally:
        tracer.uninstall()
    assert (spectral.loewner_compare, verify.gen_unordered_tuple,
            spectral.HermitianMatrix.__dict__["decomposition"]) == originals
