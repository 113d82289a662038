"""The command line never ends in a traceback.

Hypothesis draws small configs of all five kinds, valid or not: block lengths
up to 64, up to 16 slow-time blocks, up to 3 trials (5 for bounds), dB values
up to +-4000 and scene bins from -1 to one past their range.  cli.main must
return 0, 2 or 3, and a config error (2) must print one `config error:` line
and create no output directory.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from ccsradar import cli
from test_harness import EXACTLY_SPARSE_INI

KINDS = ("pslr", "suppress", "interleave", "bounds", "nearfar")
# fields that may take an out-of-range or malformed value, per kind
_ODD = {"signal": ("code_seed", "rates", "codes", "n"),
        "sweep": ("sidelobe_window",),
        "bounds": ("u_min", "u_max", "u_points"),
        "nearfar": ("n_max", "snr_db", "sir_db", "far_gain_db", "eta_points",
                    *(f"{name}_{axis}_bin" for name in ("near", "far", "intf")
                      for axis in ("range", "doppler")))}
_MODS = st.sampled_from(("bpsk", "qpsk", "16qam", "256qam"))
_RATES = st.builds("{}:{}".format, st.sampled_from(("1/2", "1/4", "3/4", "1/1", "120/1024")),
                   _MODS)
_CODES = st.sampled_from(("uncoded", "polar", "ldpc", "repetition"))
_N = st.sampled_from((2, 4, 8, 16, 32, 64))


def _csv(values):
    return ", ".join(str(v) for v in values)


@st.composite
def configs(draw):
    """(command, INI text, seed, trials, --check) of one small run.

    Up to two fields take an odd value (a bad rate, an unknown code or
    constellation, a block length that is no power of two, a dB value of
    +-400, +-4000 or nan, a bin one outside its range, ...); the rest stay in
    range, so about a third of the runs reach a driver.
    """
    kind = draw(st.sampled_from(KINDS))
    group = kind if kind in ("bounds", "nearfar") else "sweep"
    odd = draw(st.sets(st.sampled_from(_ODD["signal"] + _ODD[group]), max_size=2))

    def pick(name, usual, *odd_values):
        return draw(st.sampled_from(odd_values) if name in odd else usual)

    def n():
        return pick("n", _N, 0, 1, 3, 12, 48)

    rate = pick("rates", _RATES, "2/1:qpsk", "1/0:qpsk", "0/1:qpsk", "-1/2:qpsk",
                "1/2:8psk", "682.5/1024:256qam")
    signal = {"rates": _csv([rate] + draw(st.lists(_RATES, max_size=1))),
              "code_seed": pick("code_seed", st.integers(0, 3), -1)}
    codes = st.lists(_CODES, min_size=1, max_size=3, unique=True)
    codes = draw(codes.map(lambda c: c + ["turbo"]) if "codes" in odd else codes)
    sections = {"signal": signal}
    if kind == "nearfar":
        n_fast, m_slow = n(), draw(st.integers(1, 16))
        n_max = pick("n_max", st.integers(0, min(max(n_fast - 1, 0), 24)), n_fast, n_fast + 1)
        signal.update(n_fast=n_fast, m_slow=m_slow, codes=_csv(codes))
        scene = {"n_max": n_max}
        for name in ("snr_db", "sir_db", "far_gain_db"):
            scene[name] = pick(name, st.floats(-30, 30), -4000, 4000, -400, 400, "nan")
        for name in ("near", "far", "intf"):
            scene[f"{name}_range_bin"] = pick(f"{name}_range_bin", st.integers(0, n_max),
                                              -1, n_max + 1)
            scene[f"{name}_doppler_bin"] = pick(f"{name}_doppler_bin",
                                                st.integers(1, m_slow), -1, 0, m_slow + 1)
        sections.update(scene=scene, detection={
            "eta_points": pick("eta_points", st.integers(2, 20), 0, 1)})
    elif kind == "bounds":
        sections["bounds"] = {
            "n_list": _csv(dict.fromkeys(n() for _ in range(draw(st.integers(1, 2))))),
            "u_min": pick("u_min", st.sampled_from((0.01, 0.05)), -0.1, 0.0, 0.3),
            "u_max": pick("u_max", st.sampled_from((0.1, 0.25, 0.5)), 0.0, 0.01),
            "u_points": pick("u_points", st.integers(2, 6), 0, 1)}
    else:
        signal.update(n_list=_csv(dict.fromkeys(n() for _ in range(draw(st.integers(1, 3))))),
                      codes=_csv(codes),
                      sidelobe_window=pick("sidelobe_window", st.integers(1, 8), 0, -1))
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())
    trials = draw(st.integers(1, 5 if kind == "bounds" else 3))
    return kind, text, draw(st.integers(0, 7)), trials, draw(st.booleans())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(configs())
# every path at range bin 0 with noise below the last bit: an off-target maximum of 0.0
@example(("nearfar", EXACTLY_SPARSE_INI, 0, 1, False))
def test_cli_never_raises(run):
    kind, text, seed, trials, check = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "exp.ini", Path(tmp) / "out"
        cfg.write_text(text, encoding="utf-8")
        argv = [kind, "--config", str(cfg), "--seed", str(seed), "--trials", str(trials),
                "--out", str(out)] + (["--check"] if check else [])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        assert rc in (0, 2, 3), text
        if rc == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error: "), lines
            assert not out.exists()
        else:
            assert out.is_dir()
