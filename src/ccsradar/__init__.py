"""Radar-sensing quality of channel-coded communications signals.

Simulation and analysis toolkit for single-carrier and OFDM sensing with
coded communications payloads: block generation (systematic polar / LDPC /
repetition encoders, parity interleaving, Gray-mapped constellations),
correlation sidelobe metrics, analytic tail bounds, range-Doppler processing
against an FMCW reference, threshold detection, and seeded experiment
drivers with a CSV-emitting CLI.
"""

__version__ = "0.1.0"

from .bounds import (EmpiricalTail, TailBoundSpec, autocorr_tail_lb,
                     autocorr_tail_ub, crosscorr_tail_ub, empirical_tail,
                     median_pslr_from_bound, median_suppression_from_bound,
                     ofdm_tail_ub)
from .coding import (CODE_KINDS, CodeConfig, encode, interleave_codeword,
                     parity_check_matrix, polar_info_set,
                     repetition_bit_correlation)
from .config import ConfigError, ExperimentConfig, ResultTable, load_config
from .correlation import (CorrelationProfile, autocorr, crosscorr, idft_ratio,
                          pslr, suppression_metric)
from .detection import RocCurves, make_eta_grid, summarize_map, threshold_sweep
from .experiments import (run_interleaver_study, run_near_far, run_pslr_sweep,
                          run_suppression_sweep, run_tail_bound_check)
from .modulation import (Constellation, LabelFrame, constellation, generate_ccs_blocks,
                         generate_ccs_labels, map_bits, product_bound_b, ratio_bound_b)
from .receiver import (RangeDopplerMap, fmcw_range_doppler, mf_bank,
                       ofdm_range_doppler, sc_range_doppler)
from .scene import (Path, TargetScene, apply_channel_ofdm, apply_channel_sc, awgn,
                    chirp, read_frame_bin, synth_frame, write_frame_bin)

__all__ = [name for name in dir() if not name.startswith("_")]
