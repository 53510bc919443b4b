"""Fixed-seed CLI runs must reproduce their committed digests bit for bit.

Every subcommand runs once (keygen twice) through ``cli.main`` at tiny desk
settings.  The full digest covers each run's exit code and the bytes of
every file it writes: ``manifest.json`` and each CSV or log.  The bodies
digest covers the exit codes and every file except ``manifest.json``, each
without its ``# manifest:`` first line, so it holds the results alone and
survives a change that only renames or adds manifest parameters.  A change
to the parser, the subcommands or the session code that claims to keep
outputs unchanged must keep both digests.
"""

import hashlib
from pathlib import Path

import pytest

from chankey.cli import main

pytestmark = pytest.mark.golden

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
                      "--set", "snr_db=16.989700043360187"]),
    ("phase-demo", ["phase-demo", "--seed", 9, "--trials", 2,
                    "--set", "blocks=4", "--set", "grid=4"]),
)

EXPECTED_SHA256 = (
    "4b15ca51e609b9e3a6c2269887a709b0203f10f72443832e6039cddc66f0b711")
EXPECTED_BODIES_SHA256 = (
    "49913588bb888678a87aba6b7d23c339b5f7567355ae3c3d3ccb918051ec8c7d")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(tag, exit code, written files) for each run in ``RUNS``."""
    root = tmp_path_factory.mktemp("golden_cli")
    runs = []
    for tag, argv in RUNS:
        out = root / tag
        code = main([str(a) for a in argv] + ["--out", str(out)])
        runs.append((tag, code, sorted(out.iterdir())))
    return runs


def _digest(outputs, body) -> str:
    records = []
    for tag, code, paths in outputs:
        records.append(f"{tag}|exit={code}")
        for path in paths:
            data = body(path)
            if data is not None:
                digest = hashlib.sha256(data).hexdigest()
                records.append(f"{tag}|{path.name}|{digest}")
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def _without_manifest(path: Path):
    if path.name == "manifest.json":
        return None
    first, _, rest = path.read_bytes().partition(b"\n")
    assert first.startswith(b"# manifest: "), path
    return rest


def test_golden_cli_digest(outputs):
    assert _digest(outputs, Path.read_bytes) == EXPECTED_SHA256


def test_golden_cli_bodies_digest(outputs):
    assert _digest(outputs, _without_manifest) == EXPECTED_BODIES_SHA256
