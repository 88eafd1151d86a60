"""The observer slot: where the lifecycle tracer and ChunkSan attach.

Two module attributes, both ``None`` unless a block runs under an
observer:

* ``tracer`` — a :class:`repro.obs.Tracer`; every instrumented site
  emits its span/point records to it;
* ``chunksan`` — a :class:`repro.analysis.ChunkSan`; checkpoint capture
  and each migration pre-copy round audit chunk stamps through it.

Instrumented code reads ``hooks.tracer`` / ``hooks.chunksan`` at call
time, as an attribute of this module (never ``from repro.hooks import
tracer``, which would copy the value at import), so an observer entered
after a class or object was built still sees every call.  A ``None``
slot costs one attribute read per site.  This module imports nothing:
the instrumented packages depend on it, never on ``repro.obs`` or
``repro.analysis``.

:func:`observing` is the only writer; :func:`repro.obs.traced` and
:func:`repro.analysis.sanitized` build their observer and enter it.
"""

from contextlib import contextmanager

__all__ = ["tracer", "chunksan", "observing"]

tracer = None
chunksan = None


@contextmanager
def observing(**observers):
    """Set the named slots (``tracer=`` and/or ``chunksan=``) for the
    block and restore their previous values on exit, so nested
    observers unwind cleanly."""
    slots = globals()
    unknown = set(observers) - {"tracer", "chunksan"}
    if unknown:
        raise TypeError(f"no observer slot named {sorted(unknown)}")
    prev = {name: slots[name] for name in observers}
    slots.update(observers)
    try:
        yield
    finally:
        slots.update(prev)
