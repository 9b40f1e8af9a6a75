"""Shared utilities: units, random-number streams, ASCII rendering, fitting.

These helpers are deliberately dependency-light; everything in
:mod:`repro.utils` is usable without importing the physics packages.
Submodule exports resolve lazily (PEP 562) so that importing, say, the
pure-python table renderer never drags in numpy via the RNG module —
the run engine's cache-served CLI path depends on that.
"""

from repro._lazy import lazy_exports

#: Lazily exported names and the submodule each lives in.
_LAZY_EXPORTS = {
    "append_line": "repro.utils.io",
    "atomic_write_text": "repro.utils.io",
    "read_json_lines": "repro.utils.io",
    "RandomStream": "repro.utils.rng",
    "format_series": "repro.utils.tables",
    "format_table": "repro.utils.tables",
    "sparkline": "repro.utils.tables",
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__ = lazy_exports("repro.utils", globals(), _LAZY_EXPORTS)
