"""Single-photon measurement chain substrate.

Monte-Carlo models of everything between the ring's drop port and the
numbers in the paper: single-photon detectors (efficiency, dark counts,
timing jitter, dead time), a time-to-digital converter, coincidence
counting with CAR extraction, heralded autocorrelation, and passive
components (filters, demux, polarizing beam splitter).
"""

from repro.detection.spd import DetectorModel
from repro.detection.timetags import BiphotonSource, PairStream
from repro.detection.tdc import TimeToDigitalConverter
from repro.detection.coincidence import (
    CoincidenceResult,
    car_from_tags,
    count_coincidences,
)
from repro.detection.herald import heralded_g2_from_tags, heralding_efficiency
from repro.detection.components import (
    BandpassFilter,
    DWDMDemux,
    PolarizingBeamSplitter,
)

__all__ = [
    "BandpassFilter",
    "BiphotonSource",
    "CoincidenceResult",
    "DWDMDemux",
    "DetectorModel",
    "PairStream",
    "PolarizingBeamSplitter",
    "TimeToDigitalConverter",
    "car_from_tags",
    "count_coincidences",
    "heralded_g2_from_tags",
    "heralding_efficiency",
]
