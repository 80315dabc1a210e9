"""numpy for the whole package, loaded on first use (the
`importlib.util.LazyLoader` recipe), so the closed forms, which touch no
array, run without it.  A numpy imported already is bound as it is; else a
lazy module is registered in `sys.modules` and bound."""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:  # the error a plain `import numpy` raises
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
