"""The benchmark tracer (`benchmarks/harness.py`) wraps every call it names and puts the originals back.

`patch_public_calls` looks each name up in `widir`; a renamed function or
method then fails this test, not only a traced benchmark run.
"""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _harness():
    spec = importlib.util.spec_from_file_location("bench_harness", ROOT / "benchmarks" / "harness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every attribute of every loaded widir module and of the classes each one defines."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "widir" or name.startswith("widir.")):
            continue
        for key, value in vars(mod).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update(((name, key, attr), v) for attr, v in vars(value).items())
    return out


def test_patch_public_calls_wraps_every_name_and_restore_puts_the_originals_back():
    harness = _harness()
    # every module the tracer patches, loaded before the bindings are taken
    from widir import evaluation, features, generator, inference, manifest, model, pipeline, serving, training  # noqa: F401

    before = _bindings()
    tracer = harness.Tracer()
    try:
        harness.patch_public_calls(tracer)  # a name that does not resolve raises here
        patched = list(tracer._patches)
        assert patched
        for owner, key, original in patched:
            assert getattr(owner, key).__wrapped__ is original, key
        # every by-name import of a patched function holds the wrapper
        originals = {id(original) for _, _, original in patched}
        left = [k for k, v in _bindings().items() if id(v) in originals and len(k) == 2]
        assert left == []
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
