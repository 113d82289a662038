"""Golden fingerprints: output bytes pinned across commits.

Each test runs an experiment at a small config through the CLI and hashes its
output the way the benchmark checker does: CSV data lines (every line not
starting with '#', so the wall-time and config-hash meta lines stay out) and
binary dumps whole, file by file in name order.  A speed-up that changes any
output byte, or a random stream, changes the hash; a deliberate change must
re-record it and say so.
"""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from ccsradar import cli, experiments
from ccsradar.config import load_config
from ccsradar.detection import summarize_map
from ccsradar._rng import as_rng, random_bits
from ccsradar.coding import encode, interleave_codeword
from ccsradar.modulation import LabelFrame, constellation, generate_ccs_blocks, gray_labels
from ccsradar.scene import synth_frame

NEARFAR_128_INI = """\
[signal]
n_fast = 128
m_slow = 128
codes = polar
rates = 120/1024:qpsk

[scene]
n_max = 16
near_range_bin = 7
near_doppler_bin = 65
far_range_bin = 13
far_doppler_bin = 66
intf_range_bin = 14
intf_doppler_bin = 66
"""

# recorded at seed 0, 3 trials
NEARFAR_128_SHA256 = "d28a7c24376596cb69c5e404f12c9fc562bd8906fcef2bfcfde1b7f2e8ffe459"

SWEEP_INI = """\
[signal]
n_list = 256, 512
codes = uncoded, polar, ldpc
rates = 120/1024:qpsk, 682.5/1024:256qam
sidelobe_window = 32
"""

BOUNDS_INI = """\
[signal]
codes = uncoded, polar
rates = 120/1024:qpsk

[bounds]
n_list = 256, 1024
"""

# recorded at seed 0: case -> (command, config text, trials, sha256).  The
# 300-trial sweeps run one full 256-row batch and a partial one, so the batch
# boundary and the concatenation across batches are pinned too.
GOLDEN = {
    # Re-recorded when correlation._aperiodic took one FFT product order at
    # every size: 16 x 256 products (128 KiB) had kept the written order, and
    # the 16-trial suppress and interleave rows still print the same digits.
    # One row moved, in its last digits:
    # ldpc,120/1024,qpsk,256 median_pslr_db ...316318 -> ...31632 and p75_db
    # ...376495 -> ...3765.
    "pslr": ("pslr", SWEEP_INI, 16,
             "22026ef9b5cb15debf7711d42cacc864f71b0f1d5cf7ee6f6ac67322e068cb0a"),
    "suppress": ("suppress", SWEEP_INI, 16,
                 "749873958c65129c78e295fcb42b0397e61b2de4902bac9ab336fb0ddbf6105b"),
    "interleave": ("interleave", SWEEP_INI, 16,
                   "0233bcef6ae99d4c94c871d2725d805d9c5295fb3883e74ac0e057e04b7166d6"),
    "bounds": ("bounds", BOUNDS_INI, 200,
               "bceb13683e9f4fe8e7b81ec6f190436cc5045572bbfcdf196ecc224828f4fe2a"),
    "pslr-300": ("pslr", SWEEP_INI, 300,
                 "6c8755924334dfc3585061de8c31f80a989637fe63195b2b40e81fdae4e1e0c2"),
    "suppress-300": ("suppress", SWEEP_INI, 300,
                     "33242711a399b1d4b24c079463a936e7dbf8a5cb1d50555742fd77ed0a8fd16b"),
    "interleave-300": ("interleave", SWEEP_INI, 300,
                       "caabbccadfcf3d913fd80b4dbcca30fdcb29c54ef5b7c0d439f590a088f40f24"),
}


def output_fingerprint(out_dir) -> str:
    total = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".csv":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"#"))
        total.update(f"{path.name}:{hashlib.sha256(data).hexdigest()}\n".encode())
    return total.hexdigest()


def _run_cli(tmp_path, capsys, command, ini, trials):
    cfg = tmp_path / f"{command}.ini"
    cfg.write_text(ini, encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(cfg), "--seed", "0", "--trials", str(trials),
                   "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    return out


def test_nearfar_golden_fingerprint(tmp_path, capsys):
    out = _run_cli(tmp_path, capsys, "nearfar", NEARFAR_128_INI, 3)
    names = sorted(p.name for p in out.iterdir())
    assert {"nearfar_summary.csv", "roc_curves.csv", "map_ccs_sc.bin",
            "map_ccs_ofdm.csv", "frame_ccs_sc.bin"} <= set(names)
    got = output_fingerprint(out)
    assert got == NEARFAR_128_SHA256, f"nearfar output changed: got {got}"


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_driver_golden_fingerprint(tmp_path, capsys, case):
    command, ini, trials, want = GOLDEN[case]
    out = _run_cli(tmp_path, capsys, command, ini, trials)
    assert any(out.iterdir())
    got = output_fingerprint(out)
    assert got == want, f"{case} output changed: got {got}"


def test_nearfar_trial_runs_alone(tmp_path):
    # trial 1 computed on its own equals trial 1 of a two-trial run, so
    # trials can be merged in any order
    cfg = tmp_path / "nearfar.ini"
    cfg.write_text(NEARFAR_128_INI, encoding="utf-8")
    config = dataclasses.replace(load_config(cfg), kind="nearfar", seed=0, trials=2)
    _table, _roc, levels = experiments.run_near_far(config)
    frame = synth_frame(config.n_fast, config.m_slow)
    _s1, maps = experiments._near_far_trial(config, 1, frame)
    for v in experiments.NEARFAR_VARIANTS:
        alone = summarize_map(maps[v], config.target_bins())
        assert alone.tobytes() == levels[v][1].tobytes()
        assert alone.tobytes() != levels[v][0].tobytes()


@pytest.mark.parametrize("mod", ["bpsk", "qpsk", "16qam", "256qam"])
def test_nearfar_label_frames_match_complex_frames(tmp_path, monkeypatch, mod):
    # the trial holds its c.c.s frames as labels; the same trial fed the mapped
    # complex frames through the same channel and receiver calls gives the same bytes
    cfg = tmp_path / "nearfar.ini"
    cfg.write_text(NEARFAR_128_INI.replace("120/1024:qpsk", f"120/1024:{mod}"),
                   encoding="utf-8")
    config = dataclasses.replace(load_config(cfg), kind="nearfar", seed=0, trials=1)
    frame = synth_frame(config.n_fast, config.m_slow)
    s1, maps = experiments._near_far_trial(config, 0, frame)
    assert s1.labels.dtype == np.uint8

    def mapped(*args):
        labelled = generate_ccs_blocks(*args)
        return labelled.points.take(labelled.labels)

    monkeypatch.setattr(experiments, "generate_ccs_blocks", mapped)
    s1_complex, want = experiments._near_far_trial(config, 0, frame)
    assert s1_complex.dtype == np.complex128
    assert np.asarray(s1).tobytes() == s1_complex.tobytes()
    for v in experiments.NEARFAR_VARIANTS:
        assert maps[v].values.tobytes() == want[v].values.tobytes(), v


def test_nearfar_trial_peak_memory(tmp_path):
    # One trial's traced peak at the 128 x 128 config, the FMCW frame included,
    # in frames of M x N complex samples (256 KiB): 5.43 frames with complex
    # symbol frames and a tiled FMCW frame, 2.36 with label frames, a broadcast
    # chirp and, without a run's buffer, one received frame per variant
    # (numpy 2.4).  The bound sits between the two.
    cfg = tmp_path / "nearfar.ini"
    cfg.write_text(NEARFAR_128_INI, encoding="utf-8")
    config = dataclasses.replace(load_config(cfg), kind="nearfar", seed=0, trials=1)
    frame_bytes = 16 * config.n_fast * config.m_slow
    # fill the code caches first
    experiments._near_far_trial(config, 0, synth_frame(config.n_fast, config.m_slow))
    tracemalloc.start()
    try:
        frame = synth_frame(config.n_fast, config.m_slow)
        experiments._near_far_trial(config, 0, frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * frame_bytes, f"peak {peak / frame_bytes:.2f} frames"


def _named_batch_blocks(code, const, n_blocks, rng, interleaver_rng):
    # generate_ccs_blocks with its interleaved codeword batch bound to a name,
    # which keeps the batch alive through the uint8 label copy
    msgs = random_bits(as_rng(rng), (n_blocks, code.n_msg_bits))
    codewords = interleave_codeword(encode(msgs, code), code, as_rng(interleaver_rng))
    words = gray_labels(codewords, const)
    return LabelFrame(words.astype(np.uint8), const.points)


@pytest.mark.parametrize("generate,within", [(generate_ccs_blocks, True),
                                             (_named_batch_blocks, False)],
                         ids=["generate_ccs_blocks", "named_batch_mutant"])
def test_frame_generator_peak_memory(tmp_path, generate, within):
    # The traced peak of one 128 x 128 frame of the golden scene (polar
    # 120/1024, QPSK) in label frames of M x N bytes (numpy 2.4): 4.68, and
    # 5.31 when a name holds the codeword batch through the label copy.  At
    # the reference 1024 x 1024 that batch cost 1.1 MiB of near-far peak RSS.
    cfg = tmp_path / "nearfar.ini"
    cfg.write_text(NEARFAR_128_INI, encoding="utf-8")
    config = load_config(cfg)
    num, den, mod = config.rates[0]
    code = config.code_config("polar", num, den, config.n_fast, mod)
    const = constellation(mod)
    generate(code, const, config.m_slow, 0, 1)  # fill the code caches first
    tracemalloc.start()
    try:
        frame = generate(code, const, config.m_slow, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.labels.shape == (config.m_slow, config.n_fast)
    frames = peak / frame.labels.nbytes
    assert (frames < 5.0) == within, f"peak {frames:.2f} label frames"


def test_nearfar_run_receives_into_one_buffer(tmp_path, monkeypatch):
    # every variant of every trial writes the run's one receive buffer
    cfg = tmp_path / "nearfar.ini"
    cfg.write_text(NEARFAR_128_INI, encoding="utf-8")
    config = dataclasses.replace(load_config(cfg), kind="nearfar", seed=0, trials=2)
    received = []
    for name in ("apply_channel_sc", "apply_channel_ofdm"):
        def channel(*args, _channel=getattr(experiments, name), **kwargs):
            received.append(_channel(*args, **kwargs))
            return received[-1]
        monkeypatch.setattr(experiments, name, channel)
    experiments.run_near_far(config)
    assert len(received) == 2 * len(experiments.NEARFAR_VARIANTS)
    assert all(np.shares_memory(y, received[0]) for y in received)
    assert {y.shape[1] for y in received} == {config.n_fast, config.n_fast + config.n_max}


def test_nearfar_run_peak_memory(tmp_path):
    # A 3-trial run with its dumps at the 128 x 128 config, in frames of
    # M x N complex samples (numpy 2.4): 2.53, of which the receive buffer is
    # 1.125 (N + n_max = 144 columns); a fresh received frame per variant
    # peaks the same, one being alive at a time.  3.39 if the buffer sat
    # beside a whole-frame dump of the own frame, so dumps go out by row tiles.
    cfg = tmp_path / "nearfar.ini"
    cfg.write_text(NEARFAR_128_INI, encoding="utf-8")
    config = dataclasses.replace(load_config(cfg), kind="nearfar", seed=0, trials=3)
    frame_bytes = 16 * config.n_fast * config.m_slow
    (tmp_path / "warm").mkdir()
    experiments.run_near_far(config, dump_dir=tmp_path / "warm")
    tracemalloc.start()
    try:
        experiments.run_near_far(config, dump_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * frame_bytes, f"peak {peak / frame_bytes:.2f} frames"
