"""Counter-based seeded random-number streams.

Every stochastic component in the library draws from a
:class:`RandomStream` so that experiments are reproducible end-to-end
from a single integer seed.  Child streams are derived
deterministically by hashing a label, which keeps independent
subsystems (e.g. the two detectors of a coincidence setup)
statistically independent while remaining replayable.

A stream is *counter-based* (the Philox idiom of splittable PRNGs): it
is fully described by a 128-bit key, and draw number ``i`` of the
stream is a pure function of ``(key, i)``.  A stream keeps a cursor
that advances by the number of uniforms consumed, so pickling a stream
stores only ``(seed, label, key, cursor)`` and the clone resumes at
exactly the next draw.

Every sampler consumes **exactly one uniform per output element** and
maps it through the distribution's inverse CDF (the
``*_from_uniforms`` helpers below), so the cursor advances by the
output size no matter which values come out.  These per-draw samplers
remain only so that a seed keeps producing the same records: swapping
in numpy's own samplers would change every draw and require a
``CACHE_SCHEMA`` bump.
"""

from __future__ import annotations

import hashlib
import secrets

import numpy as np

#: Philox-4x64 emits four 64-bit words per counter increment, and
#: ``Philox.advance(n)`` skips *blocks*, not words.  Positioning at an
#: arbitrary draw index therefore advances ``index // 4`` blocks and
#: discards ``index % 4`` draws from the wrapping generator (each
#: ``Generator.random()`` double consumes exactly one 64-bit word).
_PHILOX_BLOCK = 4

#: Smallest positive double.  Uniform draws live on ``[0, 1)`` and can
#: be exactly ``0.0``; the discrete inverse CDFs (``poisson.ppf``,
#: ``binom.ppf``) return ``-1`` at ``0.0`` and ``ndtri`` returns
#: ``-inf``, so samplers clamp to this subnormal first.
_MIN_UNIFORM = 5e-324

# Lazily-imported scipy callables (scipy.stats is slow to import and
# the light CLI paths never sample distributions).
_NDTRI = None
_POISSON_PPF = None
_BINOM_PPF = None


def _ndtri():
    """The standard-normal inverse CDF, imported on first use."""
    global _NDTRI
    if _NDTRI is None:
        from scipy.special import ndtri

        _NDTRI = ndtri
    return _NDTRI


def _poisson_ppf():
    """``scipy.stats.poisson.ppf``, imported on first use."""
    global _POISSON_PPF
    if _POISSON_PPF is None:
        from scipy.stats import poisson

        _POISSON_PPF = poisson.ppf
    return _POISSON_PPF


def _binom_ppf():
    """``scipy.stats.binom.ppf``, imported on first use."""
    global _BINOM_PPF
    if _BINOM_PPF is None:
        from scipy.stats import binom

        _BINOM_PPF = binom.ppf
    return _BINOM_PPF


def derive_seed(base_seed: int, label: str) -> int:
    """Derive a child seed from ``base_seed`` and a human-readable label.

    The derivation is stable across processes and Python versions (it uses
    SHA-256, not ``hash()``).
    """
    digest = hashlib.sha256(f"{base_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_key(base_seed: int, label: str) -> int:
    """The 128-bit Philox key for a seeded stream ``(base_seed, label)``.

    Like :func:`derive_seed` this is stable across processes: the key is
    the first 16 bytes (little-endian) of ``sha256(f"{seed}:{label}")``,
    so a stream's draws are a pure function of the seed and the full
    slash-joined label path.
    """
    digest = hashlib.sha256(f"{base_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def _fold_key(parent_key: int, label: str) -> int:
    """Fold a child ``label`` into a realized parent key.

    Used for unseeded streams, whose root key comes from OS entropy:
    children derive from the parent's *realized* key rather than from
    fresh entropy, so one unseeded run is still internally
    self-consistent (sibling streams are replayable relative to each
    other within the process, and a pickled stream replays exactly).
    """
    material = parent_key.to_bytes(16, "little") + b"/" + label.encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:16], "little")


# ---------------------------------------------------------------------------
# Inverse-CDF samplers: one uniform in, one value out, per position.
# ---------------------------------------------------------------------------

def uniform_from_uniforms(u, low=0.0, high=1.0):
    """Map unit uniforms onto ``[low, high)``."""
    return low + u * (high - low)


def exponential_from_uniforms(u, scale=1.0):
    """Map unit uniforms to exponential draws with mean ``scale``."""
    return -scale * np.log1p(-u)


def normal_from_uniforms(u, loc=0.0, scale=1.0):
    """Map unit uniforms to Gaussian draws via the inverse CDF."""
    return loc + scale * _ndtri()(np.clip(u, _MIN_UNIFORM, None))


def poisson_from_uniforms(u, lam):
    """Map unit uniforms to Poisson draws via the inverse CDF."""
    values = _poisson_ppf()(np.clip(u, _MIN_UNIFORM, None), lam)
    return np.asarray(values).astype(np.int64)


def binomial_from_uniforms(u, n, p):
    """Map unit uniforms to binomial draws via the inverse CDF."""
    values = _binom_ppf()(np.clip(u, _MIN_UNIFORM, None), n, p)
    return np.asarray(values).astype(np.int64)


def integers_from_uniforms(u, low, high):
    """Map unit uniforms to integer draws on ``[low, high)``."""
    return (low + np.floor(u * (high - low))).astype(np.int64)


def choice_cdf(p) -> np.ndarray:
    """The normalized inclusive CDF of a probability vector ``p``.

    The normalization makes ``cdf[-1] == 1.0`` exactly, so every
    uniform on ``[0, 1)`` maps to a valid index.
    """
    cdf = np.cumsum(np.asarray(p, dtype=float))
    if cdf.size == 0 or not cdf[-1] > 0:
        raise ValueError("choice probabilities must have positive mass")
    return cdf / cdf[-1]


def choice_indices_from_uniforms(u, cdf):
    """Map unit uniforms to indices distributed per ``choice_cdf(p)``."""
    return np.searchsorted(cdf, u, side="right")


def _as_shape(size) -> tuple[int, ...] | None:
    """Normalize a numpy-style ``size`` argument to a shape tuple."""
    if size is None:
        return None
    if np.ndim(size) == 0:
        return (int(size),)
    return tuple(int(s) for s in size)


class RandomStream:
    """A labelled, seedable, counter-based random stream.

    Parameters
    ----------
    seed:
        Base seed.  ``None`` draws a root key from OS entropy
        (non-reproducible across runs); see :meth:`child` for the
        within-run self-consistency contract.
    label:
        Optional label mixed into the key so sibling streams differ.

    A stream is defined by a 128-bit Philox key; draw position ``i`` is
    a pure function of ``(key, i)``.  Draws advance an internal cursor.
    Streams pickle cheaply (key, label, seed, cursor) for use with
    process pools, and an unpickled stream resumes at the saved cursor.
    """

    def __init__(self, seed: int | None = 0, label: str = "root") -> None:
        self.seed = seed
        self.label = label
        if seed is None:
            self._key = secrets.randbits(128)
        else:
            self._key = derive_key(seed, label)
        self._pos = 0
        self._live: np.random.Generator | None = None

    @property
    def key(self) -> int:
        """The stream's 128-bit Philox key."""
        return self._key

    @property
    def position(self) -> int:
        """The sequential cursor: how many draws have been consumed."""
        return self._pos

    def child(self, label: str) -> "RandomStream":
        """Create an independent child stream identified by ``label``.

        Seeded parents derive the child key from ``(seed, joined
        label)``, so children are replayable across processes from the
        base seed alone.  Unseeded parents (``seed=None``) fold the
        label into their *realized* entropy instead of drawing fresh
        entropy per child: the run as a whole is not reproducible, but
        within it sibling children are deterministic functions of the
        root key, so pickled streams replay consistently.
        """
        child = RandomStream.__new__(RandomStream)
        child.seed = self.seed
        child.label = f"{self.label}/{label}"
        if self.seed is None:
            child._key = _fold_key(self._key, label)
        else:
            child._key = derive_key(self.seed, child.label)
        child._pos = 0
        child._live = None
        return child

    # ------------------------------------------------------------------
    # Sequential cursor
    # ------------------------------------------------------------------
    def _generator_at(self, position: int) -> np.random.Generator:
        """A generator whose next draw is stream position ``position``.

        The cursor rebuilds its live generator through this, which is
        how an unpickled stream resumes mid-block.
        """
        bit_generator = np.random.Philox(key=self._key)
        blocks, remainder = divmod(int(position), _PHILOX_BLOCK)
        if blocks:
            bit_generator.advance(blocks)
        generator = np.random.Generator(bit_generator)
        if remainder:
            generator.random(remainder)  # discard to mid-block alignment
        return generator

    def _uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms, advancing the cursor."""
        if count < 0:
            raise ValueError(f"draw count must be >= 0, got {count}")
        if self._live is None:
            self._live = self._generator_at(self._pos)
        values = self._live.random(count)
        self._pos += count
        return values

    def _mapped(self, size, params, mapper):
        """Draw one uniform per output element and map it.

        ``size=None`` broadcasts the parameter shapes (matching numpy's
        Generator semantics); scalar parameters then yield a scalar.
        """
        shape = _as_shape(size)
        if shape is None:
            shape = np.broadcast_shapes(*(np.shape(p) for p in params))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = self._uniforms(count).reshape(shape)
        values = mapper(u, *params)
        return values[()] if shape == () else values

    # ------------------------------------------------------------------
    # Distribution draws. Keeping the surface small makes it easy to
    # audit which distributions are sampled; each consumes exactly one
    # uniform position per output element.
    # ------------------------------------------------------------------
    def poisson(self, lam, size=None):
        """Poisson draw(s) with mean ``lam``."""
        return self._mapped(size, (lam,), poisson_from_uniforms)

    def uniform(self, low=0.0, high=1.0, size=None):
        """Uniform draw(s) on [low, high)."""
        return self._mapped(size, (low, high), uniform_from_uniforms)

    def normal(self, loc=0.0, scale=1.0, size=None):
        """Gaussian draw(s)."""
        return self._mapped(size, (loc, scale), normal_from_uniforms)

    def exponential(self, scale=1.0, size=None):
        """Exponential draw(s) with the given scale (mean)."""
        return self._mapped(size, (scale,), exponential_from_uniforms)

    def choice(self, options, size=None, p=None):
        """Draw from ``options`` with optional probabilities ``p``."""
        values = np.asarray(options)
        if values.ndim == 0:
            values = np.arange(int(options))
        if p is None:
            indices = self._mapped(
                size, (0, values.size), integers_from_uniforms
            )
        else:
            cdf = choice_cdf(p)
            shape = _as_shape(size) or ()
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            u = self._uniforms(count).reshape(shape)
            indices = choice_indices_from_uniforms(u, cdf)
            indices = indices[()] if shape == () else indices
        return values[indices]

    def binomial(self, n, p, size=None):
        """Binomial draw(s)."""
        return self._mapped(size, (n, p), binomial_from_uniforms)

    def random(self, size=None):
        """Uniform draw(s) on [0, 1)."""
        if size is None:
            return float(self._uniforms(1)[0])
        shape = _as_shape(size)
        count = int(np.prod(shape, dtype=np.int64))
        return self._uniforms(count).reshape(shape)

    def integers(self, low, high=None, size=None):
        """Integer draw(s) in [low, high) (or [0, low) like numpy)."""
        if high is None:
            low, high = 0, low
        return self._mapped(size, (low, high), integers_from_uniforms)

    def multinomial(self, n, pvals):
        """One multinomial draw as an ``int64`` array of counts.

        Decomposed into conditional binomials via the inverse CDF, so
        it consumes exactly ``len(pvals) - 1`` uniform positions no
        matter which counts come out.
        """
        pvals = np.asarray(pvals, dtype=float)
        counts = np.zeros(pvals.size, dtype=np.int64)
        if pvals.size == 0:
            return counts
        u = self._uniforms(pvals.size - 1)
        remaining = int(n)
        rest = float(pvals.sum())
        for i in range(pvals.size - 1):
            rest -= float(pvals[i])
            total = float(pvals[i]) + max(rest, 0.0)
            conditional = float(pvals[i]) / total if total > 0.0 else 0.0
            draw = int(
                binomial_from_uniforms(
                    np.asarray(u[i]), remaining, min(max(conditional, 0.0), 1.0)
                )
            )
            counts[i] = draw
            remaining -= draw
        counts[-1] = remaining
        return counts

    # ------------------------------------------------------------------
    # Pickling: a stream is (key, label, seed, cursor); the live
    # generator is rebuilt lazily at the saved cursor position.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "label": self.label,
            "key": self._key,
            "pos": self._pos,
        }

    def __setstate__(self, state: dict[str, object]) -> None:
        self.seed = state["seed"]
        self.label = state["label"]
        self._key = state["key"]
        self._pos = state["pos"]
        self._live = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RandomStream(seed={self.seed!r}, label={self.label!r}, "
            f"position={self._pos})"
        )
