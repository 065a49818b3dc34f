"""The package's public API: each module's __all__, republished."""

import importlib

import dualdetect

# The modules the package republishes, in the order of its __all__.
MODULES = ("signal_model", "decision_rules", "fusion", "optimize", "simulator", "harness")
# Module attributes that the package does not republish.
MODULE_ONLY = {
    "harness": ("CONFIG_KEYS", "parse_value", "make_output_dir", "SWEEP_PARAMS",
                "SWEEP_CSV_HEADER", "SCATTER_CSV_HEADER"),
    "signal_model": ("CODES",),
}


def test_package_all_is_the_union_of_module_all():
    modules = [importlib.import_module(f"dualdetect.{name}") for name in MODULES]
    names = dualdetect.__all__
    assert len(names) == len(set(names))
    assert names == [name for module in modules for name in module.__all__] + ["__version__"]
    for module in modules:
        for name in module.__all__:
            assert getattr(dualdetect, name) is getattr(module, name), name
    star = {}
    exec("from dualdetect import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == sorted(names)
    for module, attrs in MODULE_ONLY.items():
        for attr in attrs:
            assert hasattr(importlib.import_module(f"dualdetect.{module}"), attr), attr
            assert attr not in names, attr
