"""Every name the benchmark's tracer patches exists in the package.

``perfbench/tracer.py`` wraps package functions and methods by name, so a
rename in ``src/`` would otherwise fail only in the traced benchmark runs.
"""

import importlib.util
from pathlib import Path

from adgstego import adg, lm

from conftest import zipf4096_eos_first

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_layer_and_restores_it():
    tracer_module = load_perfbench("tracer")
    provider = load_perfbench("zipf_provider").ZipfProvider
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install_layers(tracer, [lm.NGramLM, provider])
        patches = list(tracer._patches)
        assert patches
        assert all(vars(owner)[attr] is not original for owner, attr, original in patches)
        # implicit_q groups each internal node through the spanned equal_group.
        adg.implicit_q(zipf4096_eos_first(0.01, seed=1))
        assert tracer.calls["adg.implicit_q"] == 1 and tracer.calls["adg.equal_group"] > 1
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in patches)
