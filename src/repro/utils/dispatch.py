"""Implementation dispatch for the batched simulation core.

Hot paths in the detection and timebin layers ship two
implementations: a ``"loop"`` reference (the original,
obviously-correct Python loop, kept as an equivalence oracle) and a
``"vectorized"`` fast path (numpy ``searchsorted``/stacked-array batch
processing) that is bit-identical to it.  Every switchable function
takes an ``impl`` keyword validated here, so a typo fails with the
supported names instead of silently running the slow path.

Pure stdlib on purpose: validation must be importable without numpy.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: The reference implementation: original Python loops, kept as an oracle.
LOOP = "loop"

#: The batched fast path: numpy vectorized, bit-identical to the loop.
VECTORIZED = "vectorized"

#: All recognised implementation names.
IMPLEMENTATIONS = (LOOP, VECTORIZED)


def validate_impl(impl: str, where: str = "impl") -> str:
    """Validate an ``impl`` switch value and return it.

    Parameters
    ----------
    impl:
        The requested implementation name.
    where:
        Context used in the error message (e.g. the function name).
    """
    if impl not in IMPLEMENTATIONS:
        raise ConfigurationError(
            f"{where} must be one of {list(IMPLEMENTATIONS)}, got {impl!r}"
        )
    return impl
