"""The CLI runs on numpy alone.

scipy (+33 MiB RSS) and networkx (+18 MiB) are installed for the tests but
are not runtime dependencies, and numpy.ma (+1.2 MiB) loads only when a numpy
routine asks for it (`np.unique` does).  Any of them imported on the CLI's
path counts against the benchmark's peak_rss_mb bound.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from padnet.cli import main

files = ["--graph", sys.argv[1], "--td", sys.argv[2], "--out", sys.argv[3]]
commands = ["convert", "net", "decompose", "cover", "partition-cover", "verify", "padding-estimate"]
for command in commands:
    delta = [] if command == "convert" else ["--delta", "2"]
    assert main([command, *files, *delta]) == 0, command
print(json.dumps(sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("scipy", "networkx") or m == "numpy.ma" or m.startswith("numpy.ma.")
)))
"""


def test_cli_commands_import_no_heavy_modules(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "data" / "grid4.gr"),
         str(ROOT / "data" / "grid4.td"), str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == []
