"""numpy bound at import and imported at its first use.

``classify``, ``oracle`` and ``order`` run their finite-field kernels on
numpy, but the exact commands (classify, verify, orbits) never call them,
so binding numpy lazily keeps its import out of those commands' start-up.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_numpy():
    """The numpy module: ``sys.modules["numpy"]`` when it is imported
    already, else a module registered there whose first attribute access
    runs numpy's import (``importlib.util.LazyLoader``).  A missing numpy
    raises ``ModuleNotFoundError`` here, at the caller's import."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module
