"""Byte-identity of the CLI's JSON on the shipped data.

Every command's output (`--delta 2`, and `--seed 7` for the commands that
read a seed; other options at their defaults) is pinned by its sha256.  A change that moves any byte of any
artifact fails here; if the change is meant to alter the output, say why and
update the hash in the same change.
"""

import hashlib
from pathlib import Path

import pytest

from padnet.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"
SEEDED = {"decompose", "verify", "padding-estimate"}

GOLDEN = {
    ("net", "grid4"): "ee3413feb65000d4819b1c9268f224ddcffe70fc5c8537fea5c647e376fff43c",
    ("decompose", "grid4"): "4fe7e0ebc41dcfa3f8bd1736f359114bbf6c1b0944946418679ae48a88641d2e",
    ("cover", "grid4"): "8223a843bb01a558c88c6ccb02a266aad9ae629f6fb0fc23a0aa8d144bcbb956",
    ("partition-cover", "grid4"): "659cb837a741eed5a49b995c75096479066ecf931cecc47aee0bb749a305e9e8",
    ("padding-estimate", "grid4"): "c18ca398220fa4f190399af924c8ca99e7482887345a712a71dfa97a420b6830",
    ("verify", "grid4"): "06414aa6824297492819bc538440f03e5faf65127aba2e983d74c6b3f78cfd86",
    ("net", "path8"): "c7191a6bbcb4ef54e19c934595b7fbd3cf0a4ab2c80a376a5e1a9c4d72b577cf",
    ("decompose", "path8"): "0362fd0475db668c353f3163cf7d32af16e2817e117a37275adb35cccecbbf3e",
    ("cover", "path8"): "a9a06718c9d0980d576002865794ab8eec090f678cb7ee1636d66d43d76bc036",
    ("partition-cover", "path8"): "2e18789415daf41ddccdee149cc5cb81283f2e269b9c6a468b75a5dea14585e3",
    ("padding-estimate", "path8"): "39a4610d05fb5ddf31b5e080d663ed74a7c996ed5f7a06702c5adee768788a0f",
    ("verify", "path8"): "4468bfb9f0c792608c005f008bf2ea723d31c71d5610413c15376a475afad982",
}


@pytest.mark.parametrize("command, data", sorted(GOLDEN), ids=lambda x: x)
def test_cli_json_bytes_pinned(command, data, tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = [command, "--graph", str(DATA / f"{data}.gr"), "--td", str(DATA / f"{data}.td")]
    argv += ["--seed", "7"] if command in SEEDED else []
    assert main(argv + ["--delta", "2", "--out", str(out)]) == 0
    capsys.readouterr()  # verify prints its table; only the JSON is pinned
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[command, data]


# `decompose --trials 50 --seed 7 --delta 2`: the seed sweep, fifty partitions in one artifact
GOLDEN_TRIALS = {
    "grid4": "e9ae35a23dc7775f24ee6cb30295b32eb223ae6d5e1963b8b05b3028aa88d176",
    "path8": "8c534792b33622a3fc6d17d33d2b6253fe04e33dc045f315c7c1b73ec2e9b9f1",
}


@pytest.mark.parametrize("data", sorted(GOLDEN_TRIALS))
def test_decompose_trials_json_bytes_pinned(data, tmp_path):
    out = tmp_path / "out.json"
    argv = ["decompose", "--graph", str(DATA / f"{data}.gr"), "--td", str(DATA / f"{data}.td")]
    argv += ["--seed", "7", "--trials", "50", "--delta", "2", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_TRIALS[data]
