import importlib
import pkgutil

import nls_lab


def test_every_all_entry_resolves():
    """Each name in nls_lab.__all__ and in every module's __all__ exists,
    so `from ... import *` cannot fail on a stale entry."""
    names = ["nls_lab"] + [f"nls_lab.{m.name}" for m in pkgutil.iter_modules(nls_lab.__path__)]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
