"""Unit tests for heralded g2 and the polarizing beam splitter."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.detection.components import PolarizingBeamSplitter
from repro.detection.herald import heralded_g2_from_tags, split_on_beamsplitter
from repro.detection.timetags import BiphotonSource, thin_stream, uncorrelated_stream


class TestBeamsplitterSplit:
    def test_balanced_split(self, rng):
        times = np.sort(rng.uniform(0, 1, 50_000))
        a, b = split_on_beamsplitter(times, rng)
        assert abs(a.size - b.size) < 1500
        assert a.size + b.size == times.size

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            split_on_beamsplitter(np.array([1.0]), rng, transmission=1.0)


class TestHeraldedG2:
    def test_single_photons_g2_small(self, rng):
        # Low-gain pair source: heralded arm is nearly a single photon.
        src = BiphotonSource(pair_rate_hz=20_000.0, linewidth_hz=110e6)
        stream = src.generate(50.0, rng.child("pairs"))
        herald = thin_stream(stream.idler_times_s, 0.3, rng.child("h"))
        arm1, arm2 = split_on_beamsplitter(
            thin_stream(stream.signal_times_s, 0.5, rng.child("s")),
            rng.child("bs"),
        )
        g2 = heralded_g2_from_tags(herald, arm1, arm2, window_s=3e-9)
        assert g2 < 0.5

    def test_coherent_light_g2_near_one(self, rng):
        # Uncorrelated Poisson streams: g2_h should be ~1.  Rates and
        # window are chosen so hundreds of triples accumulate (otherwise
        # the estimator is dominated by Poisson noise).
        herald = uncorrelated_stream(50_000.0, 20.0, rng.child("h"))
        arm1 = uncorrelated_stream(50_000.0, 20.0, rng.child("a"))
        arm2 = uncorrelated_stream(50_000.0, 20.0, rng.child("b"))
        g2 = heralded_g2_from_tags(herald, arm1, arm2, window_s=400e-9)
        assert 0.85 < g2 < 1.15

    def test_no_heralds_rejected(self):
        with pytest.raises(ConfigurationError):
            heralded_g2_from_tags(np.empty(0), np.array([1.0]), np.array([2.0]), 1e-9)

    def test_zero_when_no_triples(self):
        herald = np.array([0.0, 100.0])
        arm1 = np.array([0.0])
        arm2 = np.array([100.0])
        assert heralded_g2_from_tags(herald, arm1, arm2, 1e-9) == 0.0


class TestPBS:
    def test_routes_by_polarization(self, rng):
        pbs = PolarizingBeamSplitter(extinction_ratio_db=30.0, insertion_loss_db=0.0)
        times = np.sort(rng.uniform(0, 1, 100_000))
        te_port, tm_port = pbs.split(times, "TE", rng)
        assert te_port.size > 0.99 * times.size
        assert tm_port.size < 0.01 * times.size

    def test_tm_routing_mirrored(self, rng):
        pbs = PolarizingBeamSplitter(extinction_ratio_db=30.0, insertion_loss_db=0.0)
        times = np.sort(rng.uniform(0, 1, 100_000))
        te_port, tm_port = pbs.split(times, "TM", rng)
        assert tm_port.size > te_port.size

    def test_insertion_loss_applies(self, rng):
        pbs = PolarizingBeamSplitter(extinction_ratio_db=30.0, insertion_loss_db=3.0)
        times = np.sort(rng.uniform(0, 1, 100_000))
        te_port, tm_port = pbs.split(times, "TE", rng)
        total = te_port.size + tm_port.size
        assert abs(total / times.size - 0.501) < 0.02

    def test_wrong_port_probability(self):
        pbs = PolarizingBeamSplitter(extinction_ratio_db=20.0)
        assert np.isclose(pbs.wrong_port_probability, 0.01 / 1.01, rtol=1e-6)

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            PolarizingBeamSplitter(extinction_ratio_db=0.0)
        with pytest.raises(ConfigurationError):
            PolarizingBeamSplitter().split(np.array([1.0]), "diag", rng)
