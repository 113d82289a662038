"""Radar-sensing quality of channel-coded communications signals.

Simulation and analysis toolkit for single-carrier and OFDM sensing with
coded communications payloads: block generation (systematic polar / LDPC /
repetition encoders, parity interleaving, Gray-mapped constellations),
correlation sidelobe metrics, analytic tail bounds, range-Doppler processing
against an FMCW reference, threshold detection, and seeded experiment
drivers with a CSV-emitting CLI.
"""

__version__ = "0.1.0"
