"""Byte-identity of the CLI's JSON on the shipped data.

Every command's output (`--delta 2 --seed 7`, other options at their
defaults) is pinned by its sha256.  A change that moves any byte of any
artifact fails here; if the change is meant to alter the output, say why and
update the hash in the same change.
"""

import hashlib
from pathlib import Path

import pytest

from padnet.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"

GOLDEN = {
    ("net", "grid4"): "ee3413feb65000d4819b1c9268f224ddcffe70fc5c8537fea5c647e376fff43c",
    ("decompose", "grid4"): "26a4ba1389574cc390ab0bd1d13b863d981fa2491bffe9270d8bdd66cdd41496",
    ("cover", "grid4"): "8223a843bb01a558c88c6ccb02a266aad9ae629f6fb0fc23a0aa8d144bcbb956",
    ("partition-cover", "grid4"): "659cb837a741eed5a49b995c75096479066ecf931cecc47aee0bb749a305e9e8",
    ("padding-estimate", "grid4"): "c18ca398220fa4f190399af924c8ca99e7482887345a712a71dfa97a420b6830",
    ("verify", "grid4"): "46847d494357d35e983297f7a97639d4b3ce27bb83d8ad3bff6d0784f65b02b4",
    ("net", "path8"): "c7191a6bbcb4ef54e19c934595b7fbd3cf0a4ab2c80a376a5e1a9c4d72b577cf",
    ("decompose", "path8"): "8484ebe8f2bade84f3531718e3c5226df7d21917be3d7b54351840ea58c31287",
    ("cover", "path8"): "a9a06718c9d0980d576002865794ab8eec090f678cb7ee1636d66d43d76bc036",
    ("partition-cover", "path8"): "2e18789415daf41ddccdee149cc5cb81283f2e269b9c6a468b75a5dea14585e3",
    ("padding-estimate", "path8"): "39a4610d05fb5ddf31b5e080d663ed74a7c996ed5f7a06702c5adee768788a0f",
    ("verify", "path8"): "0dd2685bbf5cb87f3264750f50e3f9f4cbd8feffa847c4e5d06ce0babf2a3a26",
}


@pytest.mark.parametrize("command, data", sorted(GOLDEN), ids=lambda x: x)
def test_cli_json_bytes_pinned(command, data, tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = [command, "--graph", str(DATA / f"{data}.gr"), "--td", str(DATA / f"{data}.td")]
    assert main(argv + ["--delta", "2", "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()  # verify prints its table; only the JSON is pinned
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[command, data]
