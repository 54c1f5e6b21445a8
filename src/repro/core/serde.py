"""Callable serialization for process execution and model pickling.

Operators occasionally capture small user functions — the paper's own text
pipeline is built with ``TermFrequency(x => 1)`` — and lambdas defeat the
standard pickle machinery.  Shipping work to spawn-based worker processes
(:class:`~repro.core.backends.actors.ActorBackend`) and persisting
fitted pipelines both need those operators to round-trip, so this module
packs a callable as:

- the callable itself, when plain pickle already handles it (module-level
  functions, builtins, callable instances); or
- its marshalled code object plus name/defaults/closure-cell values, for
  lambdas and nested functions whose captured values are themselves
  picklable.

Reconstruction resolves globals through the function's defining module
when importable (falling back to builtins only), which covers the simple
weighting/feature functions pipelines actually use.  Functions closing
over unpicklable state still fail — with an error naming the fix.
"""

from __future__ import annotations

import importlib
import marshal
import pickle
import types
from typing import Any, Tuple

#: tags for the two wire formats
_PLAIN = "pickle"
_CODE = "code"


def pack_callable(fn: Any) -> Tuple[str, Any]:
    """Pack ``fn`` into a picklable ``(tag, payload)`` pair.

    Plain-picklable callables pass through untouched; pure-Python
    functions (lambdas included) fall back to a marshalled code object.
    """
    try:
        pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
        return (_PLAIN, fn)
    except Exception:
        pass
    if not isinstance(fn, types.FunctionType):
        raise TypeError(
            f"cannot serialize callable {fn!r}: not picklable and not a "
            "pure-Python function; use a module-level callable instead")
    cells = ()
    if fn.__closure__:
        try:
            cells = tuple(pickle.loads(pickle.dumps(
                [c.cell_contents for c in fn.__closure__])))
        except Exception as exc:
            raise TypeError(
                f"cannot serialize {fn.__name__!r}: it closes over "
                f"unpicklable state ({exc}); use a module-level function "
                "or close over plain data only") from None
    payload = (marshal.dumps(fn.__code__), fn.__name__, fn.__defaults__,
               fn.__module__, cells, fn.__kwdefaults__)
    return (_CODE, payload)


def unpack_callable(packed: Tuple[str, Any]) -> Any:
    """Inverse of :func:`pack_callable`."""
    tag, payload = packed
    if tag == _PLAIN:
        return payload
    code_bytes, name, defaults, module, cell_values, kwdefaults = payload
    code = marshal.loads(code_bytes)
    fn_globals = {"__builtins__": __builtins__}
    if module:
        try:
            fn_globals = importlib.import_module(module).__dict__
        except Exception:
            pass
    closure = tuple(types.CellType(v) for v in cell_values) or None
    fn = types.FunctionType(code, fn_globals, name, defaults, closure)
    fn.__kwdefaults__ = kwdefaults
    return fn
