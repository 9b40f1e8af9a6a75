"""repro — integrated quantum frequency comb simulator.

A from-scratch Python reproduction of Reimer et al., *Generation of
Complex Quantum States via Integrated Frequency Combs* (DATE 2017): a
high-Q Hydex microring resonator that, depending only on how it is
pumped, emits heralded single photons, cross-polarized photon pairs,
time-bin entangled pairs and four-photon entangled states on a 200 GHz
telecom comb.

Quick start::

    from repro import QuantumCombSource, run_experiment

    source = QuantumCombSource.paper_device()
    print(source.device_summary())
    result = run_experiment("E2", quick=True)   # CAR + pair-rate table
    print(result.to_text())

Sub-packages
------------
``repro.quantum``
    Discrete-variable quantum optics: states, tomography, CHSH.
``repro.photonics``
    Materials, waveguides, microrings, SFWM, OPO, pump configurations.
``repro.detection``
    Detectors, time tags, coincidence counting, CAR.
``repro.timebin``
    Time-bin encoding, analysis interferometers, fringe scans.
``repro.core``
    The quantum comb source, device presets and calibrations.
``repro.experiments``
    One driver per quantitative claim of the paper (E1..E9).
"""

from repro.errors import (
    ConfigurationError,
    DimensionMismatchError,
    FitError,
    PhysicsError,
    ReproError,
    StateValidationError,
    TomographyError,
)

__version__ = "1.0.0"

from repro._lazy import lazy_exports

#: Lazily exported names (PEP 562) and the module each lives in.  The
#: physics stack costs ~1s of numpy-heavy imports; deferring it keeps
#: cache-served CLI invocations (`repro sweep`, `repro archive`)
#: near-instant while `from repro import QuantumCombSource` still works.
_LAZY_EXPORTS = {
    "QuantumCombSource": "repro.core.source",
    "hydex_ring_high_q": "repro.core.device",
    "hydex_ring_type_ii": "repro.core.device",
    "HeraldedSingleScheme": "repro.core.schemes",
    "MultiPhotonScheme": "repro.core.schemes",
    "TimeBinScheme": "repro.core.schemes",
    "TypeIIScheme": "repro.core.schemes",
    "EXPERIMENTS": "repro.experiments.registry",
    "run_experiment": "repro.experiments.registry",
}

__getattr__ = lazy_exports("repro", globals(), _LAZY_EXPORTS)

__all__ = [
    "EXPERIMENTS",
    "ConfigurationError",
    "DimensionMismatchError",
    "FitError",
    "HeraldedSingleScheme",
    "MultiPhotonScheme",
    "PhysicsError",
    "QuantumCombSource",
    "ReproError",
    "StateValidationError",
    "TimeBinScheme",
    "TomographyError",
    "TypeIIScheme",
    "__version__",
    "hydex_ring_high_q",
    "hydex_ring_type_ii",
    "run_experiment",
]
