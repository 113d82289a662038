"""Golden fingerprints: output bytes pinned across commits.

Each test runs an experiment at a small config through the CLI and hashes its
output the way the benchmark checker does: CSV data lines (every line not
starting with '#', so the wall-time and config-hash meta lines stay out) and
binary dumps whole, file by file in name order.  A speed-up that changes any
output byte, or a random stream, changes the hash; a deliberate change must
re-record it and say so.
"""

import hashlib

from ccsradar import cli

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


def output_fingerprint(out_dir) -> str:
    total = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".csv":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"#"))
        total.update(f"{path.name}:{hashlib.sha256(data).hexdigest()}\n".encode())
    return total.hexdigest()


def test_nearfar_golden_fingerprint(tmp_path, capsys):
    cfg = tmp_path / "nearfar128.ini"
    cfg.write_text(NEARFAR_128_INI, encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["nearfar", "--config", str(cfg), "--seed", "0", "--trials", "3",
                   "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert {"nearfar_summary.csv", "roc_curves.csv", "map_ccs_sc.bin",
            "map_ccs_ofdm.csv", "frame_ccs_sc.bin"} <= set(names)
    assert output_fingerprint(out) == NEARFAR_128_SHA256
