"""Fixed-seed CLI runs must reproduce their committed digest bit for bit.

Every subcommand runs once (keygen twice) through ``cli.main`` at tiny desk
settings.  The digest covers each run's exit code and the bytes of every
file it writes: ``manifest.json`` and each CSV or log.  A change to the
parser, the subcommands or the session code that claims to keep outputs
unchanged must keep this digest.
"""

import hashlib
from pathlib import Path

from chankey.cli import main

TABLE1_CFG = Path(__file__).resolve().parents[1] / "configs" / "80211a.cfg"

# (tag, argv without --out)
RUNS = (
    ("capacity-sweep", ["capacity-sweep", "--config", TABLE1_CFG,
                        "--seed", 3, "--set", "snr_db=-inf,0,20"]),
    ("rssi-compare", ["rssi-compare", "--seed", 7, "--set", "samples=20000",
                      "--set", "snr_db=10", "--set", "bins=2,5"]),
    ("magphase", ["magphase", "--seed", 10, "--set", "samples=100000",
                  "--set", "snr_db=10"]),
    ("corr-matrix", ["corr-matrix", "--config", TABLE1_CFG, "--seed", 6,
                     "--set", "realizations=1000"]),
    ("ldpc-waterfall", ["ldpc-waterfall", "--seed", 8, "--trials", 2,
                        "--set", "blocks=10", "--set", "rates=0.5",
                        "--set", "snr_db=10,16"]),
    ("keygen-soft", ["keygen", "--config", TABLE1_CFG, "--seed", 4,
                     "--trials", 3, "--set", "blocks=10",
                     "--set", "snr_db=12"]),
    ("keygen-4hard", ["keygen", "--seed", 5, "--trials", 2,
                      "--set", "blocks=10", "--set", "levels=4",
                      "--set", "mode=hard", "--set", "rate=0.75",
                      "--noise", 0.02]),
    ("phase-demo", ["phase-demo", "--seed", 9, "--trials", 2,
                    "--set", "blocks=4", "--set", "grid=4"]),
)

EXPECTED_SHA256 = (
    "07c816e059922d128724366674cbcb1378131630461d58fcbb6f877eb4876c6d")


def golden_records(tmp_path: Path) -> list[str]:
    records = []
    for tag, argv in RUNS:
        out = tmp_path / tag
        code = main([str(a) for a in argv] + ["--out", str(out)])
        records.append(f"{tag}|exit={code}")
        for path in sorted(out.iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            records.append(f"{tag}|{path.name}|{digest}")
    return records


def test_golden_cli_digest(tmp_path):
    records = golden_records(tmp_path)
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == EXPECTED_SHA256
