"""Config loading, result tables and the CLI."""

import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ccsradar import cli, experiments
from ccsradar.config import (ConfigError, ExperimentConfig, ResultTable, load_config,
                             result_meta)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# -- INI loading --------------------------------------------------------------

GOOD_INI = """\
[experiment]
kind = pslr
seed = 42
trials = 50
out_dir = results

[signal]
n_list = 64, 128
codes = uncoded, polar
rates = 120/1024:qpsk
sidelobe_window = 16

[scene]
snr_db = 3.0
near_range_bin = 5

[bounds]
u_points = 7
n_list = 128
"""


def test_load_config_reads_all_sections(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(GOOD_INI, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.kind == "pslr"
    assert cfg.seed == 42 and cfg.trials == 50
    assert cfg.out_dir == "results"
    assert cfg.n_list == (64, 128)
    assert cfg.codes == ("uncoded", "polar")
    assert cfg.rates == ((120.0, 1024, "qpsk"),)
    assert cfg.sidelobe_window == 16
    assert cfg.snr_db == 3.0 and cfg.near_range_bin == 5
    assert cfg.u_points == 7
    assert cfg.bounds_n_list == (128,)
    # untouched keys keep their defaults
    assert cfg.m_slow == 1024 and cfg.sir_db == -11.0


ALL_KEYS_INI = """\
[experiment]
kind = bounds
seed = 7
trials = 9
out_dir = elsewhere

[signal]
n_list = 32, 64
n_fast = 512
m_slow = 256
codes = ldpc
rates = 1/2:bpsk, 3/4:16qam
code_seed = 5
sidelobe_window = 8

[scene]
n_max = 16
snr_db = -3.5
sir_db = 2.0
far_gain_db = -6.0
near_range_bin = 3
near_doppler_bin = 100
far_range_bin = 7
far_doppler_bin = 101
intf_range_bin = 9
intf_doppler_bin = 102

[detection]
eta_points = 50

[bounds]
u_min = 0.02
u_max = 0.3
u_points = 11
n_list = 512
"""


def test_load_config_sets_every_field(tmp_path):
    want = ExperimentConfig(
        kind="bounds", seed=7, trials=9, out_dir="elsewhere", n_list=(32, 64), n_fast=512,
        m_slow=256, codes=("ldpc",), rates=((1.0, 2, "bpsk"), (3.0, 4, "16qam")),
        code_seed=5, sidelobe_window=8, n_max=16, snr_db=-3.5, sir_db=2.0,
        far_gain_db=-6.0, near_range_bin=3, near_doppler_bin=100, far_range_bin=7,
        far_doppler_bin=101, intf_range_bin=9, intf_doppler_bin=102, eta_points=50,
        u_min=0.02, u_max=0.3, u_points=11, bounds_n_list=(512,))
    # every field differs from its default, so a field no INI key sets fails here
    assert [f.name for f in fields(ExperimentConfig)
            if getattr(want, f.name) == f.default] == []
    assert load_config(_write(tmp_path, ALL_KEYS_INI)) == want


@pytest.mark.parametrize("text, where", [
    ("[scene]\nn_list = 64\n", "[scene] n_list"),
    ("[signal]\nu_points = 3\n", "[signal] u_points"),
    ("[bounds]\nbounds_n_list = 256\n", "[bounds] bounds_n_list"),
    ("[experiment]\neta_points = 50\n", "[experiment] eta_points"),
])
def test_load_config_key_in_wrong_section(tmp_path, text, where):
    with pytest.raises(ConfigError, match=re.escape(f"unknown config key {where}")):
        load_config(_write(tmp_path, text))


def test_load_config_inline_comments(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nseed = 3  # master seed\n", encoding="utf-8")
    assert load_config(path).seed == 3


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[scene]\ntypo_key = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\[scene\] typo_key"):
        load_config(path)


def test_load_config_bad_value(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[signal]\nn_fast = twelve\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


def test_load_config_bad_rate_spec(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[signal]\nrates = 120:qpsk\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\[signal\] rates"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.ini")


def test_load_config_malformed(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("seed = 3\n", encoding="utf-8")  # key before any section
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path)


# -- derived config pieces ----------------------------------------------------

def test_seed_and_trial_defaults():
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError, match="seed is mandatory"):
        cfg.require_seed()
    assert ExperimentConfig(seed=9).require_seed() == 9
    for kind, want in (("pslr", 1000), ("suppress", 1000), ("interleave", 1000),
                       ("bounds", 10000), ("nearfar", 100)):
        assert ExperimentConfig(kind=kind).resolved_trials() == want
    assert ExperimentConfig(kind="pslr", trials=7).resolved_trials() == 7
    assert ExperimentConfig(kind="???").resolved_trials() == 100


def test_gains_and_noise():
    cfg = ExperimentConfig()
    near, far, direct = cfg.gains()
    assert near == 1.0
    assert far == pytest.approx(10 ** (-12 / 20))
    assert direct == pytest.approx(10 ** (11 / 20))
    assert cfg.noise_var() == pytest.approx(1.0)
    assert ExperimentConfig(snr_db=10.0).noise_var() == pytest.approx(0.1)


def test_scene_assembly():
    cfg = ExperimentConfig()
    sc = cfg.scene()
    assert [(p.range_bin, p.doppler_bin) for p in sc.targets] == [(14, 516), (27, 518)]
    assert len(sc.interference) == 1 and len(sc.interference[0]) == 1
    assert sc.interference[0][0].gain == pytest.approx(10 ** (11 / 20))
    assert sc.noise_var == pytest.approx(1.0)
    quiet = cfg.scene(with_interference=False)
    assert quiet.interference == ()
    assert cfg.target_bins() == ((14, 516), (27, 518))


def test_code_config_construction():
    cfg = ExperimentConfig()
    un = cfg.code_config("uncoded", 1.0, 1, 256, "qpsk")
    assert (un.kind, un.n_code_bits, un.n_msg_bits) == ("uncoded", 512, 512)
    pol = cfg.code_config("polar", 120.0, 1024, 1024, "qpsk")
    assert (pol.n_code_bits, pol.n_msg_bits) == (2048, 240)
    qam = cfg.code_config("ldpc", 682.5, 1024, 256, "256qam")
    assert (qam.n_code_bits, qam.n_msg_bits) == (2048, 1365)


def test_code_config_fractional_bits():
    # 682.5/1024 at N = 256 QPSK symbols asks for 341.25 message bits
    with pytest.raises(ConfigError, match="fractional bit count"):
        ExperimentConfig().code_config("polar", 682.5, 1024, 256, "qpsk")


def test_u_grid():
    grid = ExperimentConfig(u_min=0.1, u_max=0.2, u_points=3).u_grid()
    assert np.allclose(grid, [0.1, 0.15, 0.2])
    with pytest.raises(ConfigError, match="u_min = 0 must be positive"):
        ExperimentConfig(u_min=0.0).u_grid()
    with pytest.raises(ConfigError, match="u_min = 0.3 must be below u_max = 0.2"):
        ExperimentConfig(u_min=0.3, u_max=0.2).u_grid()


def test_canonical_text_and_hash():
    cfg = ExperimentConfig(kind="pslr", seed=1)
    text = cfg.canonical_text()
    names = [line.split(" = ")[0] for line in text.strip().splitlines()]
    assert names == sorted(names) and "seed = 1" in text
    h = cfg.config_hash()
    assert re.fullmatch(r"[0-9a-f]{12}", h)
    assert h == ExperimentConfig(kind="pslr", seed=1).config_hash()
    assert h != ExperimentConfig(kind="pslr", seed=2).config_hash()
    assert h != ExperimentConfig(kind="pslr", seed=1, n_fast=512).config_hash()


@pytest.mark.parametrize("name, want", [
    (None, "eaa00f26fb23"), ("pslr", "5810b8efd44b"), ("suppress", "8c028c68d447"),
    ("interleave", "79fb921b32c8"), ("bounds", "3a687be8a975"), ("nearfar", "fb7bb72dff72"),
])
def test_config_hash_pinned(name, want):
    # the '# config_hash:' line of every result file; golden digests skip it
    cfg = ExperimentConfig() if name is None else load_config(CONFIGS / f"{name}.ini")
    assert cfg.config_hash() == want


def test_config_hash_ignores_out_dir():
    # where results go is not part of what they are
    a = ExperimentConfig(kind="nearfar", seed=0, out_dir="out/a")
    b = ExperimentConfig(kind="nearfar", seed=0, out_dir="elsewhere/b")
    assert a.config_hash() == b.config_hash() == ExperimentConfig(
        kind="nearfar", seed=0).config_hash()
    assert "out_dir = 'out/a'" in a.canonical_text()
    assert a.config_hash() != ExperimentConfig(kind="nearfar", seed=1,
                                               out_dir="out/a").config_hash()
    assert a.config_hash() != ExperimentConfig(kind="nearfar", seed=0, n_fast=512,
                                               out_dir="out/a").config_hash()


def test_cli_config_hash_same_across_out_dirs(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_PSLR_INI)
    hashes = []
    for name in ("a", "b"):
        assert cli.main(["pslr", "--config", str(cfg), "--seed", "5",
                         "--out", str(tmp_path / name)]) == 0
        text = (tmp_path / name / "pslr_sweep.csv").read_text(encoding="utf-8")
        hashes += [l for l in text.splitlines() if l.startswith("# config_hash:")]
    capsys.readouterr()
    assert len(hashes) == 2 and hashes[0] == hashes[1]


# -- validation -----------------------------------------------------------------

# two targets on the only two cells at range 1..n_max
TWO_CELL_SCENE = {"n_fast": 64, "m_slow": 2, "n_max": 1, "near_range_bin": 1,
                  "near_doppler_bin": 1, "far_range_bin": 1, "far_doppler_bin": 2,
                  "intf_range_bin": 1, "intf_doppler_bin": 1}


@pytest.mark.parametrize("overrides,message", [
    ({"kind": "pslr", "n_list": (256, 384), "codes": ("polar",)}, "power of two"),
    ({"kind": "bounds", "bounds_n_list": (768,)}, "power of two"),
    ({"kind": "pslr", "codes": ("ldpc",), "n_list": (100,)}, "fractional bit count"),
    ({"kind": "interleave", "codes": ("ldpc",), "rates": ((8.0, 1024, "qpsk"),),
      "n_list": (256,)}, "ldpc rate too low"),
    ({"kind": "suppress", "codes": ("turbo",)}, "unknown code kind"),
    ({"kind": "nearfar", "rates": ((1.0, 1, "8psk"),)}, "unknown constellation"),
    ({"kind": "nearfar", "n_max": 2000}, "n_max = 2000"),
    ({"kind": "nearfar", "n_max": 1024}, "n_max = 1024"),
    ({"kind": "nearfar", "n_max": 20}, "far_range_bin = 27 outside"),
    ({"kind": "nearfar", "intf_range_bin": -1}, "intf_range_bin = -1 outside"),
    ({"kind": "nearfar", "near_doppler_bin": 0}, "near_doppler_bin = 0 outside"),
    ({"kind": "nearfar", "m_slow": 512}, "near_doppler_bin = 516 outside"),
    ({"kind": "interleave", "codes": ("ldpc",), "code_seed": -1}, "code_seed = -1 must"),
    ({"kind": "nearfar", "eta_points": 0}, "eta_points = 0 must be at least 2"),
    ({"kind": "nearfar", "eta_points": 1}, "eta_points = 1 must be at least 2"),
    ({"kind": "bounds", "u_points": 1}, "u_points = 1 must be at least 2"),
    ({"kind": "bounds", "u_points": 0}, "u_points = 0 must be at least 2"),
    ({"kind": "bounds", "u_min": 0.0}, "u_min = 0 must be positive"),
    ({"kind": "bounds", "u_min": -0.1}, "u_min = -0.1 must be positive"),
    ({"kind": "bounds", "u_min": 0.25}, "u_min = 0.25 must be below u_max = 0.25"),
    ({"kind": "bounds", "u_min": 0.3, "u_max": 0.2}, "u_min = 0.3 must be below u_max = 0.2"),
    ({"kind": "pslr", "n_list": (256, 256)}, "^n_list = .* repeats an entry"),
    ({"kind": "suppress", "codes": ("polar", "polar")}, "^codes = .* repeats an entry"),
    ({"kind": "interleave", "rates": ((120.0, 1024, "qpsk"),) * 2},
     "^rates = .* repeats an entry"),
    ({"kind": "bounds", "bounds_n_list": (256, 1024, 256)},
     "^bounds_n_list = .* repeats an entry"),
    # no cell at range 1..n_max is left for the false-alarm search
    ({"kind": "nearfar", "n_max": 0, "near_range_bin": 0, "far_range_bin": 0,
      "intf_range_bin": 0}, "^n_max = 0 leaves no false-alarm cell"),
    ({"kind": "nearfar", **TWO_CELL_SCENE}, "^n_max = 1 leaves no false-alarm cell"),
])
def test_validate_rejects(overrides, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(seed=0, **overrides).validate()


def test_validate_accepts_reference_configs():
    for name in ("pslr", "suppress", "interleave", "bounds", "nearfar"):
        load_config(CONFIGS / f"{name}.ini").validate()
    # the scene is only checked where it is used, and so are the lists
    ExperimentConfig(kind="pslr", n_max=5000, m_slow=16).validate()
    ExperimentConfig(kind="bounds", n_list=(256, 256), codes=("polar", "polar")).validate()


# -- result tables ------------------------------------------------------------

def test_result_table_csv(tmp_path):
    table = ResultTable(columns=("name", "n", "val"),
                        rows=[("a", 8, 0.5), ("b", 16, 0.25)],
                        meta={"seed": 3, "config_hash": "abc"})
    path = tmp_path / "t.csv"
    table.write_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# config_hash: abc"   # meta keys sorted
    assert lines[1] == "# seed: 3"
    assert lines[2] == "name,n,val"
    assert lines[3] == "a,8,0.5"
    assert table.select(name="b") == [("b", 16, 0.25)]


def test_result_meta_keys():
    cfg = ExperimentConfig(kind="bounds", seed=5)
    meta = result_meta(cfg, 1.25)
    assert meta["seed"] == 5 and meta["kind"] == "bounds"
    assert meta["config_hash"] == cfg.config_hash()
    assert meta["version"].startswith("ccsradar-v")
    assert meta["wall_time_s"] == "1.250"


# -- the reference scene -------------------------------------------------------

def test_default_bins_match_desk_geometry():
    # README's reference-scene table: 0.15 m range bins (c / 2B at B = 1 GHz),
    # lambda B / (2 M N) ~ 1.02 m/s Doppler bins at a 140 GHz carrier, zero
    # speed at bin M / 2, closing speeds in mph
    cfg = ExperimentConfig()
    range_step = 3.0e8 / (2 * 1.0e9)
    for distance_m, rbin in ((2.05, cfg.near_range_bin), (4.0, cfg.far_range_bin),
                             (4.3, cfg.intf_range_bin)):
        assert math.ceil(distance_m / range_step) == rbin
    speed_step = 3.0e8 / 140.0e9 * 1.0e9 / (2 * cfg.m_slow * cfg.n_fast)
    for mph, dbin in ((10, cfg.near_doppler_bin), (15, cfg.far_doppler_bin)):
        assert cfg.m_slow // 2 + math.floor(mph * 0.44704 / speed_step) == dbin


# -- CLI ----------------------------------------------------------------------

SMALL_PSLR_INI = """\
[experiment]
trials = 16

[signal]
n_list = 64, 128
codes = uncoded
rates = 1/1:qpsk
sidelobe_window = 16
"""


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parser_shape():
    parser = cli.build_parser()
    assert parser.prog == "ccsradar"
    for cmd in ("pslr", "suppress", "interleave", "bounds", "nearfar"):
        args = parser.parse_args([cmd, "--seed", "0"])
        assert args.command == cmd and args.seed == 0
    with pytest.raises(SystemExit) as exc:  # figures come from scripts/plot_results.py
        parser.parse_args(["pslr", "--seed", "0", "--plot-script"])
    assert exc.value.code == 2


def test_cli_requires_seed(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_PSLR_INI)
    rc = cli.main(["pslr", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = _write(tmp_path, "[scene]\nbogus = 1\n")
    rc = cli.main(["pslr", "--config", str(cfg), "--seed", "0"])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_rejects_missing_config(tmp_path, capsys):
    rc = cli.main(["pslr", "--config", str(tmp_path / "nope.ini"), "--seed", "0"])
    assert rc == 2
    capsys.readouterr()


def test_cli_rejects_non_utf8_config(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_bytes(b"# caf\xff\n[experiment]\ntrials = 4\n")
    out = tmp_path / "o"
    rc = cli.main(["pslr", "--config", str(cfg), "--seed", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith(f"config error: cannot read config {cfg}")
    assert not out.exists()


def test_cli_rejects_nonpositive_trials(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_PSLR_INI)
    rc = cli.main(["pslr", "--config", str(cfg), "--seed", "0", "--trials", "0",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "trials" in capsys.readouterr().err


def test_cli_rejects_non_power_of_two_polar(tmp_path, capsys):
    cfg = _write(tmp_path, "[signal]\nn_list = 384\ncodes = polar\n")
    out = tmp_path / "o"
    rc = cli.main(["pslr", "--config", str(cfg), "--seed", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "power of two" in err and "N = 384" in err
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize("command", ["pslr", "suppress", "interleave"])
@pytest.mark.parametrize("window", [0, -1])
def test_cli_rejects_empty_sidelobe_window(tmp_path, capsys, command, window):
    cfg = _write(tmp_path, f"[signal]\nn_list = 256\nsidelobe_window = {window}\n")
    out = tmp_path / "o"
    rc = cli.main([command, "--config", str(cfg), "--seed", "0", "--trials", "4",
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert f"sidelobe_window = {window}" in err
    assert not out.exists()


@pytest.mark.parametrize("command,signal,message,seed", [
    pytest.param("pslr", "n_list = 1\ncodes = uncoded", "n_list entry 1 ", "0", id="pslr-n1"),
    pytest.param("pslr", "n_list = 0", "n_list entry 0 ", "0", id="pslr-n0"),
    pytest.param("pslr", "n_list = 256, -4", "n_list entry -4 ", "0", id="pslr-n-4"),
    pytest.param("suppress", "n_list = 1\ncodes = uncoded", "n_list entry 1 ", "0",
                 id="suppress-n1"),
    pytest.param("interleave", "n_list = 64, 1", "n_list entry 1 ", "0", id="interleave-n1"),
    pytest.param("pslr", "rates = 1/0:qpsk", "1/0 needs a positive denominator", "0",
                 id="pslr-rate-1/0"),
    pytest.param("pslr", "codes = uncoded\nrates = 1/0:qpsk",
                 "1/0 needs a positive denominator", "0", id="pslr-uncoded-rate-1/0"),
    pytest.param("suppress", "rates = 120/-1024:qpsk", "-1024 needs a positive denominator",
                 "0", id="suppress-rate-120/-1024"),
    pytest.param("bounds", "rates = 1/0:qpsk", "1/0 needs a positive denominator", "0",
                 id="bounds-rate-1/0"),
    pytest.param("nearfar", "rates = 1/0:qpsk", "1/0 needs a positive denominator", "0",
                 id="nearfar-rate-1/0"),
    # the [signal] text may open further sections; seed None leaves --seed out
    pytest.param("pslr", "n_list = 64", "seed = -1 must be nonnegative", "-1",
                 id="pslr-seed-1"),
    pytest.param("bounds", "n_list = 64\n\n[experiment]\nseed = -1",
                 "seed = -1 must be nonnegative", None, id="bounds-config-seed-1"),
    pytest.param("interleave", "codes = ldpc\ncode_seed = -1", "code_seed = -1 must", "0",
                 id="interleave-ldpc-code-seed-1"),
    pytest.param("nearfar", "n_list = 64\n\n[detection]\neta_points = 0",
                 "eta_points = 0 must be at least 2", "0", id="nearfar-eta-points-0"),
    pytest.param("bounds", "n_list = 64\n\n[bounds]\nu_points = 1",
                 "u_points = 1 must be at least 2", "0", id="bounds-u-points-1"),
    pytest.param("bounds", "n_list = 64\n\n[bounds]\nu_min = 0",
                 "u_min = 0 must be positive", "0", id="bounds-u-min-0"),
    pytest.param("bounds", "n_list = 64\n\n[bounds]\nu_min = 0.3\nu_max = 0.2",
                 "u_min = 0.3 must be below u_max = 0.2", "0", id="bounds-u-min-above-u-max"),
    # non-finite numbers fail in load_config, before validate
    pytest.param("nearfar", "n_list = 64\n\n[scene]\nsnr_db = nan",
                 "bad value for [scene] snr_db: 'nan'", "0", id="nearfar-snr-nan"),
    pytest.param("bounds", "n_list = 64\n\n[bounds]\nu_max = inf",
                 "bad value for [bounds] u_max: 'inf'", "0", id="bounds-u-max-inf"),
    pytest.param("pslr", "rates = inf/1024:qpsk", "bad value for [signal] rates", "0",
                 id="pslr-rate-inf"),
    pytest.param("pslr", "rates = 1e308/1024:qpsk", "rate 1e+308/1024 is above 1", "0",
                 id="pslr-rate-1e308"),
    # finite dB values whose linear form overflows fail in validate
    pytest.param("nearfar", "n_list = 64\n\n[scene]\nsnr_db = -4000",
                 "snr_db = -4000 overflows", "0", id="nearfar-snr-db-overflow"),
    pytest.param("nearfar", "n_list = 64\n\n[scene]\nsir_db = -8000",
                 "sir_db = -8000 overflows", "0", id="nearfar-sir-db-overflow"),
    pytest.param("nearfar", "n_list = 64\n\n[scene]\nfar_gain_db = 8000",
                 "far_gain_db = 8000 overflows", "0", id="nearfar-far-gain-db-overflow"),
    # a block too short for the analytic bound the driver reads
    pytest.param("bounds", "rates = 4/1024:qpsk\n\n[bounds]\nn_list = 256",
                 "polar 4/1024:qpsk at N = 256: autocorrelation bound needs", "0",
                 id="bounds-one-message-symbol"),
    pytest.param("bounds", "rates = 1024/1024:qpsk\n\n[bounds]\nn_list = 1, 256",
                 "at N = 1: autocorrelation bound needs", "0", id="bounds-n1"),
    pytest.param("pslr", "codes = polar\nrates = 2/1024:qpsk\nn_list = 512",
                 "polar 2/1024:qpsk at N = 512: autocorrelation bound needs", "0",
                 id="pslr-polar-one-message-symbol"),
    # a config written for another command; one with no kind runs under any
    # a repeated list entry would write duplicate rows
    pytest.param("pslr", "codes = polar\nrates = 120/1024:qpsk\nn_list = 256, 256",
                 "n_list = (256, 256) repeats an entry", "0", id="pslr-n-list-repeated"),
    pytest.param("bounds", "n_list = 64\n\n[bounds]\nn_list = 256, 256",
                 "bounds_n_list = (256, 256) repeats an entry", "0",
                 id="bounds-n-list-repeated"),
    pytest.param("pslr", "n_list = 256\n\n[experiment]\nkind = nearfar",
                 "kind = nearfar is for the nearfar command, not pslr", "0",
                 id="pslr-kind-nearfar"),
])
def test_cli_rejects_bad_block_length_or_rate(tmp_path, capsys, command, signal, message,
                                              seed):
    cfg = _write(tmp_path, f"[signal]\n{signal}\n")
    out = tmp_path / "o"
    rc = cli.main([command, "--config", str(cfg), "--trials", "4", "--out", str(out)]
                  + ([] if seed is None else ["--seed", seed]))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("below", [None, "sub"])
def test_cli_rejects_uncreatable_out_dir(tmp_path, capsys, below):
    # --out names an existing file, or a directory beneath one
    cfg = _write(tmp_path, SMALL_PSLR_INI)
    blocker = _write(tmp_path, "keep\n", name="F")
    out = blocker if below is None else blocker / below
    rc = cli.main(["pslr", "--config", str(cfg), "--seed", "0", "--trials", "4",
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert err.startswith(f"config error: cannot create output directory {out}: ")
    assert blocker.read_text(encoding="utf-8") == "keep\n"


def test_cli_rejects_nearfar_n_max_beyond_block(tmp_path, capsys):
    text = (CONFIGS / "nearfar.ini").read_text(encoding="utf-8")
    assert "n_max = 32\n" in text
    cfg = _write(tmp_path, text.replace("n_max = 32\n", "n_max = 2000\n"))
    out = tmp_path / "o"
    rc = cli.main(["nearfar", "--config", str(cfg), "--seed", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "n_max = 2000" in err
    assert not out.exists()


def _nearfar_ini(scene):
    """A near-far config that sets each key of scene in its INI section."""
    signal = {k: v for k, v in scene.items() if k in ("n_fast", "m_slow")}
    return "\n".join(["[signal]", *(f"{k} = {v}" for k, v in signal.items()), "[scene]",
                      *(f"{k} = {v}" for k, v in scene.items() if k not in signal)]) + "\n"


@pytest.mark.parametrize("scene", [
    pytest.param({"n_max": 0, "near_range_bin": 0, "far_range_bin": 0, "intf_range_bin": 0},
                 id="n-max-0"),
    pytest.param(TWO_CELL_SCENE, id="targets-fill-n-max-1"),
])
def test_cli_rejects_nearfar_without_false_alarm_cells(tmp_path, capsys, scene):
    cfg = _write(tmp_path, _nearfar_ini(scene))
    out = tmp_path / "o"
    rc = cli.main(["nearfar", "--config", str(cfg), "--seed", "0", "--trials", "2",
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert err.startswith(f"config error: n_max = {scene['n_max']} leaves no false-alarm cell")
    assert not out.exists()


def test_cli_nearfar_one_false_alarm_cell_runs(tmp_path, capsys):
    # one Doppler bin more than TWO_CELL_SCENE leaves one cell to search
    cfg = _write(tmp_path, _nearfar_ini({**TWO_CELL_SCENE, "m_slow": 3}))
    out = tmp_path / "o"
    rc = cli.main(["nearfar", "--config", str(cfg), "--seed", "0", "--trials", "2",
                   "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert (out / "nearfar_summary.csv").exists()


# every path at range bin 0 and noise below the signal's last bit: the
# zero-forced map of ccs_ofdm_nointf is exactly sparse, its off-target maximum 0.0
EXACTLY_SPARSE_INI = """\
[signal]
n_fast = 16
m_slow = 4
codes = uncoded

[scene]
n_max = 3
snr_db = 4000
near_range_bin = 0
near_doppler_bin = 4
far_range_bin = 0
far_doppler_bin = 4
intf_range_bin = 0
intf_doppler_bin = 4
"""


def test_cli_nearfar_exactly_sparse_map_runs(tmp_path, capsys):
    cfg = _write(tmp_path, EXACTLY_SPARSE_INI)
    out = tmp_path / "o"
    rc = cli.main(["nearfar", "--config", str(cfg), "--seed", "0", "--trials", "1",
                   "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    rows = [line.split(",") for line in
            (out / "nearfar_summary.csv").read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]
    other_max = {r[0]: r[rows[0].index("max_other_max")] for r in rows[1:]}
    assert other_max["ccs_ofdm_nointf"] == "0.0"


def test_cli_pslr_run_writes_csv(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_PSLR_INI)
    out = tmp_path / "out"
    rc = cli.main(["pslr", "--config", str(cfg), "--seed", "11",
                   "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    lines = (out / "pslr_sweep.csv").read_text(encoding="utf-8").splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# config_hash:") for l in meta)
    assert any(l == "# seed: 11" for l in meta)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header.startswith("code,rate,modulation,n,trials,median_pslr_db")
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 2  # uncoded qpsk at N in {64, 128}


@pytest.mark.parametrize("command", ["pslr", "interleave"])
@pytest.mark.parametrize("n, mod", [(32, "256qam"), (8, "16qam")])
def test_cli_short_qam_blocks_run(tmp_path, capsys, command, n, mod):
    # a short QAM block's realized energy lands far from 1 in some trials;
    # PSLR divides by that peak, so the sweep runs through
    cfg = _write(tmp_path, f"[signal]\nn_list = {n}\ncodes = uncoded\nrates = 1/1:{mod}\n")
    rc = cli.main([command, "--config", str(cfg), "--seed", "0", "--trials", "1000",
                   "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert rc == 0


def test_cli_deterministic_given_seed(tmp_path):
    cfg = _write(tmp_path, SMALL_PSLR_INI)
    out = tmp_path / "out"
    texts = []
    for _ in range(2):  # same out dir, so the full config (and its hash) repeats
        assert cli.main(["pslr", "--config", str(cfg), "--seed", "5",
                         "--out", str(out)]) == 0
        body = (out / "pslr_sweep.csv").read_text(encoding="utf-8")
        texts.append([l for l in body.splitlines()
                      if not l.startswith("# wall_time_s")])
    assert texts[0] == texts[1]


def test_cli_seed_changes_rows(tmp_path):
    cfg = _write(tmp_path, SMALL_PSLR_INI)
    rows = []
    for seed in ("5", "6"):
        out = tmp_path / f"s{seed}"
        assert cli.main(["pslr", "--config", str(cfg), "--seed", seed,
                         "--out", str(out)]) == 0
        body = (out / "pslr_sweep.csv").read_text(encoding="utf-8")
        rows.append([l for l in body.splitlines() if not l.startswith("#")][1:])
    assert rows[0] != rows[1]


def test_cli_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "check_pslr",
                        lambda table, config: [("rigged", False, "forced")])
    cfg = _write(tmp_path, SMALL_PSLR_INI)
    rc = cli.main(["pslr", "--config", str(cfg), "--seed", "0",
                   "--out", str(tmp_path / "o"), "--check"])
    assert rc == 3
    assert "[check] rigged: FAIL (forced)" in capsys.readouterr().out


def test_cli_bounds_check_passes(tmp_path, capsys):
    ini = """\
[signal]
rates = 120/1024:qpsk
codes = uncoded, polar

[bounds]
n_list = 256
u_points = 5
"""
    cfg = _write(tmp_path, ini)
    out = tmp_path / "out"
    rc = cli.main(["bounds", "--config", str(cfg), "--seed", "0",
                   "--trials", "400", "--out", str(out), "--check"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "[check] upper_bounds_dominate: PASS" in captured
    assert "[check] lower_bound_witness: PASS" in captured
    assert (out / "tail_bounds.csv").exists()


TWO_QPSK_RATES_INI = """\
[experiment]
trials = 16

[signal]
n_list = 256, 512
codes = uncoded, polar, ldpc
rates = 120/1024:qpsk, 512/1024:qpsk
sidelobe_window = 16
"""


@pytest.mark.parametrize("command", ["pslr", "suppress", "interleave"])
def test_cli_check_names_unique(tmp_path, capsys, command):
    # two rates share qpsk: every coded-curve check must say which rate it judges
    cfg = _write(tmp_path, TWO_QPSK_RATES_INI)
    rc = cli.main([command, "--config", str(cfg), "--seed", "0",
                   "--out", str(tmp_path / "o"), "--check"])
    names = re.findall(r"^\[check\] (\S+):", capsys.readouterr().out, flags=re.M)
    assert rc in (0, 3) and names
    assert len(names) == len(set(names)), names
    if command != "interleave":
        assert any("_polar_120/1024_qpsk" in n for n in names)
        assert any("_polar_512/1024_qpsk" in n for n in names)


def test_check_fails_on_incomplete_curve():
    config = ExperimentConfig(kind="pslr", seed=0, trials=16, n_list=(64, 128, 256),
                              codes=("uncoded",), rates=((1.0, 1, "qpsk"),),
                              sidelobe_window=16)
    table = experiments.run_pslr_sweep(config)
    table.rows = [r for r in table.rows if r[table.columns.index("n")] != 256]
    (name, ok, detail), = experiments.check_pslr(table, config)
    assert name == "slope_uncoded_qpsk" and not ok and "want [64, 128, 256]" in detail


def test_check_fails_on_incomplete_bounds_table():
    config = ExperimentConfig(kind="bounds", seed=0, trials=64, codes=("uncoded", "polar"),
                              rates=((120.0, 1024, "qpsk"),), bounds_n_list=(256,),
                              u_points=5)
    table = experiments.run_tail_bound_check(config)
    assert all(ok for _, ok, _ in experiments.check_bounds(table, config))
    table.rows = table.rows[1:]
    verdict = dict((n, ok) for n, ok, _ in experiments.check_bounds(table, config))
    assert verdict == {"upper_bounds_dominate": False, "lower_bound_witness": True}


def test_cli_nearfar_small_scene(tmp_path, capsys):
    ini = """\
[experiment]
trials = 3

[signal]
n_fast = 128
m_slow = 16
codes = uncoded
rates = 1/1:qpsk

[scene]
n_max = 16
near_range_bin = 3
near_doppler_bin = 10
far_range_bin = 9
far_doppler_bin = 11
intf_range_bin = 11
intf_doppler_bin = 11

[detection]
eta_points = 40
"""
    cfg = _write(tmp_path, ini)
    out = tmp_path / "out"
    rc = cli.main(["nearfar", "--config", str(cfg), "--seed", "0",
                   "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert (out / "nearfar_summary.csv").exists()
    roc = (out / "roc_curves.csv").read_text(encoding="utf-8").splitlines()
    header = [l for l in roc if not l.startswith("#")][0]
    assert header == "eta,pd,pf,ci_lo,ci_hi,waveform"
    for v in ("ccs_sc", "ccs_sc_nointf", "ccs_ofdm", "ccs_ofdm_nointf", "fmcw"):
        assert (out / f"map_{v}.bin").exists()
    assert (out / "frame_ccs_sc.bin").exists()
    assert (out / "frame_fmcw.bin").exists()
