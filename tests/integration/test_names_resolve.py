"""Every global name a ``repro`` module reads resolves at run time.

A deleted import whose name is still used on an error path raises
``NameError`` only when that path runs, which a test may never do.
Linters catch this (undefined-name checks); this test does the same
with the standard library alone: it imports every module of the
package, walks the module's symbol tables, and checks that each global
name a scope reads is an attribute of the imported module or a
builtin.
"""

import builtins
import importlib
import inspect
import pkgutil
import symtable

import repro


def _global_reads(table: symtable.SymbolTable):
    """Names read as globals anywhere in ``table`` and its children."""
    module_scope = table.get_type() == "module"
    for symbol in table.get_symbols():
        if not symbol.is_referenced():
            continue
        if module_scope or symbol.is_global():
            yield symbol.get_name()
    for child in table.get_children():
        yield from _global_reads(child)


def _unresolved(module) -> set[str]:
    source = inspect.getsource(module)
    table = symtable.symtable(source, module.__file__, "exec")
    return {
        name
        for name in _global_reads(table)
        if not hasattr(module, name) and not hasattr(builtins, name)
    }


def test_every_global_name_resolves():
    names = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing.extend(f"{name}: {item}" for item in sorted(_unresolved(module)))
    assert not missing
