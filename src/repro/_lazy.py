"""Module attributes imported on first use (PEP 562), so that each
``repro`` command, a fresh process, loads only the modules it runs."""

import sys
from importlib import import_module
from typing import Callable, Dict, Iterable


def lazy_exports(module: str, exports: Dict[str, Iterable[str]]) -> Callable:
    """The ``__getattr__`` of ``module``: a name in ``exports[source]``
    is read from ``source`` (a module name, relative to ``module`` when
    it starts with a dot) when first asked for, then kept as an
    attribute of ``module``."""
    home = {name: src for src, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(
                f"module {module!r} has no attribute {name!r}")
        value = getattr(import_module(home[name], module), name)
        setattr(sys.modules[module], name, value)
        return value

    return __getattr__
