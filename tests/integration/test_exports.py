"""Every name a ``repro`` module exports in ``__all__`` resolves.

A deletion that leaves its name behind in a package's ``__all__``
breaks only ``from repro.x import *`` and whoever reads the listing,
so this imports every module of the package and checks each exported
name.
"""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    names = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        for item in getattr(module, "__all__", ()):
            if not hasattr(module, item):
                missing.append(f"{name}.{item}")
    assert not missing
