import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from padnet.cli import FLAGS, HANDLERS, build_parser, main
from padnet.decomposition import DecompositionParams
from padnet.graph import parse_edge_list
from padnet.ordered_net import build_tree_ordered_net
from padnet.trees import load_tree_decomposition, td_to_tree_partition
from padnet.verify import sampler_ks_check

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
SCHEMAS = ROOT / "schemas"

PATH_ARGS = ["--graph", str(DATA / "path8.gr"), "--td", str(DATA / "path8.td")]
GRID_ARGS = ["--graph", str(DATA / "grid4.gr"), "--td", str(DATA / "grid4.td")]


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate(payload: dict, schema_name: str):
    schema = json.loads((SCHEMAS / f"{schema_name}.schema.json").read_text())
    jsonschema.validate(payload, schema)


def test_convert(capsys):
    code, out = run(capsys, "convert", *PATH_ARGS)
    assert code == 0
    payload = json.loads(out)
    validate(payload, "convert")
    assert payload["width"]["tp_width"] == payload["width"]["td_width"] + 1
    assert payload["isometry"] == "pass"


def test_net(capsys, tmp_path):
    out_file = tmp_path / "net.json"
    code, _ = run(capsys, "net", *PATH_ARGS, "--delta", "2", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    validate(payload, "net")
    assert payload["parameters"]["tau_bound"] == 2**4 + 2**2


def test_decompose_params_block(capsys):
    code, out = run(capsys, "decompose", *GRID_ARGS, "--delta", "2", "--seed", "11")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "decompose")
    p = payload["params"]
    assert p["alpha"] == 3.0
    assert p["gamma_max"] == 1 / 16
    assert p["diameter_bound"] == 4 * 2.0
    assert p["padding_beta"] == pytest.approx(32 * math.log(2 * p["tau"]))
    assert len(payload["samples"]) == 1
    assert set(payload["samples"][0]["original_assignment"]) == {str(v) for v in range(16)}


def test_cover_and_partition_cover(capsys):
    code, out = run(capsys, "cover", *GRID_ARGS, "--delta", "2")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "cover")
    assert payload["guarantees"]["padding_ratio"] == 6.0

    code, out = run(capsys, "partition-cover", *GRID_ARGS, "--delta", "2")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "partition_cover")
    assert payload["guarantees"]["padding_ratio"] == 12.0
    assert payload["guarantees"]["partition_count"] <= payload["tau_emp"]


def test_projection_matches_brute_force():
    g = parse_edge_list((DATA / "grid4.gr").read_text())
    emb = td_to_tree_partition(g, load_tree_decomposition((DATA / "grid4.td").read_text(), g))
    designated = set(emb.forward.tolist())
    others = [h for h in range(emb.host.n) if h not in designated]
    assert others  # the host has copies that stand for no input vertex
    rng = np.random.default_rng(4)
    member_sets = [set(), set(others), set(range(emb.host.n))]
    member_sets += [
        set(rng.choice(emb.host.n, size=size, replace=False).tolist())
        for size in rng.integers(1, emb.host.n, size=30)
    ]
    for members in member_sets:
        brute = sorted(v for v in range(g.n) if int(emb.forward[v]) in members)
        assert emb.original_members(frozenset(members)) == brute
    assignment = rng.integers(0, 5, size=emb.host.n)
    brute = [assignment[int(emb.forward[v])] for v in range(g.n)]
    assert emb.original_assignment(assignment).tolist() == brute


def test_verify_exits_zero_and_validates(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out = run(
        capsys, "verify", *PATH_ARGS, "--delta", "2", "--trials", "400",
        "--oracle-cap", "64", "--out", str(out_file),
    )
    assert code == 0
    assert "pass" in out  # human-readable table on stdout
    payload = json.loads(out_file.read_text())
    validate(payload, "verify")
    assert payload["ok"] is True


def test_verify_at_too_few_trials_warns_and_exits_zero(capsys, tmp_path):
    # at 2 trials even 2 of 2 padded bound the rate at 2 / (2 + z^2) ~ 0.27,
    # below gamma_max/4's target of ~0.32 on path8: the input is valid
    out_file = tmp_path / "report.json"
    code, _ = run(capsys, "verify", *PATH_ARGS, "--delta", "2", "--trials", "2",
                  "--out", str(out_file))
    payload = json.loads(out_file.read_text())
    assert code == 0 and payload["ok"] is True
    padding = [c for c in payload["checks"] if c["name"].startswith("padding-lcb-gamma-")]
    assert [c["status"] for c in padding] == ["warn", "pass", "pass"]
    assert padding[0]["witness"].endswith("; 3 trials can")


def test_padding_estimate(capsys):
    code, out = run(
        capsys, "padding-estimate", *PATH_ARGS, "--delta", "2", "--trials", "300",
        "--gamma", "0.03125", "--gamma", "0.0625",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "padding_estimate")
    assert [e["gamma"] for e in payload["estimates"]] == [0.03125, 0.0625]
    assert all(e["satisfied"] for e in payload["estimates"])


def test_byte_identical_outputs(capsys):
    for cmd in (["net"], ["cover"], ["partition-cover"], ["decompose", "--seed", "5"]):
        _, out1 = run(capsys, cmd[0], *PATH_ARGS, "--delta", "2", *cmd[1:])
        _, out2 = run(capsys, cmd[0], *PATH_ARGS, "--delta", "2", *cmd[1:])
        assert out1 == out2, cmd


def test_decompose_seed_changes_output(capsys):
    _, out1 = run(capsys, "decompose", *PATH_ARGS, "--delta", "2", "--seed", "1")
    _, out2 = run(capsys, "decompose", *PATH_ARGS, "--delta", "2", "--seed", "2")
    assert out1 != out2


def test_bad_graph_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p ge 2 1\ne 1 5 1.0\n")
    code = main(["convert", "--graph", str(bad), "--td", str(DATA / "path8.td")])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_bad_td_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.td"
    bad.write_text("s td 1 2 8\nb 1 1 2\n")
    code = main(["convert", "--graph", str(DATA / "path8.gr"), "--td", str(bad)])
    assert code == 2
    assert "no bag" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suffix, text, message",
    [
        (".gr", "p ge 1000000 0\n", "graph is not connected"),
        (".td", "s td 100000 2 8\nb 1 1 2\nb 2 2 3\n1 2\n", "bag 3 is not defined"),
    ],
    ids=["gr", "td"],
)
def test_inflated_header_exit_2(tmp_path, capsys, suffix, text, message):
    bad = tmp_path / f"bad{suffix}"
    bad.write_text(text)
    files = {".gr": str(DATA / "path8.gr"), ".td": str(DATA / "path8.td"), suffix: str(bad)}
    code = main(["net", "--graph", files[".gr"], "--td", files[".td"], "--delta", "2"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    code = main(["convert", "--graph", "/nonexistent.gr", "--td", str(DATA / "path8.td")])
    assert code == 2


@pytest.mark.parametrize("cmd", ["net", "verify"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exit_2(capsys, tmp_path, cmd, target):
    # exit 1 means "verification failed": a write error is bad input, not that
    out = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    trials = ["--trials", "10"] if cmd == "verify" else []
    code = main([cmd, *PATH_ARGS, "--delta", "2", *trials, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {out}: ")
    assert "Traceback" not in err


def test_oracle_cap_refusal_message(capsys):
    code = main(["verify", *GRID_ARGS, "--delta", "2", "--trials", "10", "--oracle-cap", "5"])
    assert code == 2
    assert "oracle-cap" in capsys.readouterr().err


def test_over_cap_outputs_pinned(capsys):
    # grid4 has 16 vertices and a 60-vertex host; each size is named by itself
    code, out = run(capsys, "convert", *GRID_ARGS, "--oracle-cap", "5")
    assert code == 0
    assert json.loads(out)["isometry"] == "skipped: oracle cap 5 exceeded: |restrict| = 16"
    code = main(["verify", *GRID_ARGS, "--delta", "2", "--oracle-cap", "20"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: oracle cap 20 exceeded: |restrict| = 60; raise --oracle-cap (graph or host larger than cap)\n"
    )


def test_verify_delta_must_be_positive(capsys):
    code = main(["verify", *PATH_ARGS, "--delta", "-1", "--trials", "10"])
    assert code == 2


@pytest.mark.parametrize("delta", ["nan", "inf", "0"])
def test_delta_not_finite_and_positive_exit_2(capsys, delta):
    # a NaN delta once left the core carving looping forever
    for cmd in ("net", "decompose"):
        code = main([cmd, *PATH_ARGS, "--delta", delta])
        assert code == 2, cmd
        assert "delta" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["inf", "nan"])
@pytest.mark.parametrize("cmd", ["net", "cover"])
def test_alpha_not_finite_exit_2(capsys, cmd, alpha):
    # an infinite alpha once exited 0 with "alpha": Infinity in the JSON
    code = main([cmd, *GRID_ARGS, "--delta", "2", "--alpha", alpha])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"alpha must be finite and > 0, got {alpha}" in captured.err


@pytest.mark.parametrize(
    "cmd, args, radius",
    [
        # each once exited 0 with Infinity in its JSON, or warned of an
        # overflow in the sampler's multiply
        ("decompose", ["--delta", "1e308"], "(alpha+1)*delta"),
        ("cover", ["--delta", "2", "--alpha", "1e308"], "(alpha+1)*delta"),
        ("net", ["--delta", "2", "--alpha", "1e308"], "(alpha+1)*delta"),
        ("padding-estimate", ["--delta", "1e308", "--trials", "10"], "(alpha+1)*delta"),
        ("verify", ["--delta", "1e308", "--trials", "10"], "(alpha+1)*delta"),
        # 4*delta stays finite here; only 2*alpha*delta = 6*delta overflows
        ("cover", ["--delta", "4e307"], "2*alpha*delta"),
        # alpha < 1: only max(alpha, 3)*delta overflows
        ("net", ["--delta", "1e308", "--alpha", "0.5"], "max(alpha, 3)*delta"),
    ],
)
def test_overflowing_radius_exit_2(capsys, cmd, args, radius):
    code = main([cmd, *PATH_ARGS, *args])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"radius {radius} overflows" in captured.err


@pytest.mark.parametrize("weight", ["9e307", "1e308"])
@pytest.mark.parametrize(
    "cmd", ["convert", "net", "decompose", "cover", "partition-cover", "verify", "padding-estimate"]
)
def test_overflowing_total_weight_exit_2(capsys, tmp_path, cmd, weight):
    # every weight is finite but the path's length is not: verify once raised
    # OverflowError (exit 1) drawing from uniform(0, inf), and the other
    # commands exited 0
    gr, td = tmp_path / "heavy.gr", tmp_path / "heavy.td"
    gr.write_text(f"p ge 3 2\ne 1 2 {weight}\ne 2 3 {weight}\n")
    td.write_text("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    delta = [] if cmd == "convert" else ["--delta", "1"]
    trials = ["--trials", "10"] if cmd in ("decompose", "verify", "padding-estimate") else []
    code = main([cmd, "--graph", str(gr), "--td", str(td), *delta, *trials])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {gr}: total edge weight overflows a float\n"


def test_oracle_cap_below_one_exit_2(capsys):
    for cmd, flags in (("convert", []), ("verify", ["--delta", "2", "--trials", "10"])):
        for cap in ("0", "-1"):
            code = main([cmd, *GRID_ARGS, *flags, "--oracle-cap", cap])
            captured = capsys.readouterr()
            assert code == 2, (cmd, cap)
            assert captured.err == f"error: oracle_cap must be >= 1, got {cap}\n"
            assert captured.out == ""


@pytest.mark.parametrize("cmd", ["decompose", "padding-estimate", "verify"])
def test_seed_beyond_64_bits_exit_2(capsys, cmd):
    code = main([cmd, *PATH_ARGS, "--delta", "2", "--trials", "10",
                 "--seed", "99999999999999999999999"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_decompose_trials_equal_single_seed_runs(capsys):
    # --trials N draws seeds seed..seed+N-1 in one sweep; each sample is the
    # one a single-trial run at that seed writes
    code, out = run(capsys, "decompose", *GRID_ARGS, "--delta", "2", "--seed", "5", "--trials", "3")
    assert code == 0
    samples = json.loads(out)["samples"]
    assert [s["seed"] for s in samples] == [5, 6, 7]
    for sample in samples:
        code, one = run(capsys, "decompose", *GRID_ARGS, "--delta", "2", "--seed", str(sample["seed"]))
        assert code == 0
        assert json.loads(one)["samples"] == [sample]


def test_decompose_trials_past_64_bits_exit_2(capsys):
    # the first two seeds fit, the third does not: no partial output, and the
    # message names the flags the user gave, not the first seed out of range
    code = main(["decompose", *PATH_ARGS, "--delta", "2", "--seed", str(2**64 - 2), "--trials", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --seed {2**64 - 2} with --trials 3 runs past seed 2**64 - 1\n"


def refused_before_reading_input(capsys, command, seed, trials) -> str:
    """The error of a run on input files that do not exist, which must exit
    2 before opening them."""
    code = main([command, "--graph", "missing.gr", "--td", "missing.td", "--delta", "2",
                 "--seed", str(seed), "--trials", str(trials)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.endswith("\n")
    return captured.err[len("error: "):-1]


@pytest.mark.parametrize(
    "seed,trials,message",
    [
        (2**64 - 1, 2, f"--seed {2**64 - 1} with --trials 2 runs past seed 2**64 - 1"),
        (0, 0, "--trials must be >= 1"),
        (2**64 - 1, -1, "--trials must be >= 1"),
        (-1, 1, "--seed must lie in [0, 2**64), got -1"),
        (2**64, 1, f"--seed must lie in [0, 2**64), got {2**64}"),
    ],
)
def test_decompose_checks_its_seed_sweep_before_reading_input(capsys, seed, trials, message):
    # the sweep is checked first: the graph file is never opened
    assert refused_before_reading_input(capsys, "decompose", seed, trials) == message


@pytest.mark.parametrize(
    "seed,trials,message",
    [
        (0, 0, "--trials must be >= 1"),
        (2**64 - 1, -1, "--trials must be >= 1"),
        (-1, 10, "--seed must lie in [0, 2**64), got -1"),
        (2**64, 10, f"--seed must lie in [0, 2**64), got {2**64}"),
    ],
)
def test_padding_estimate_checks_trials_and_seed_before_reading_input(capsys, seed, trials, message):
    # every trial draws from the one seed, so --seed 2**64 - 1 has no sweep to run past
    assert refused_before_reading_input(capsys, "padding-estimate", seed, trials) == message


@pytest.mark.parametrize(
    "seed,trials,message",
    [
        (-1, 10, "--seed must lie in [0, 2**64), got -1"),
        (2**64, 10, f"--seed must lie in [0, 2**64), got {2**64}"),
        (0, 0, "--trials must be >= 1"),
    ],
)
def test_verify_checks_trials_and_seed_before_reading_input(capsys, seed, trials, message):
    assert refused_before_reading_input(capsys, "verify", seed, trials) == message


def test_decompose_sweep_ending_at_the_last_seed_runs(capsys):
    code, out = run(capsys, "decompose", *PATH_ARGS, "--delta", "2", "--seed", str(2**64 - 2),
                    "--trials", "2")
    assert code == 0
    assert [s["seed"] for s in json.loads(out)["samples"]] == [2**64 - 2, 2**64 - 1]


def test_verify_sweep_ending_at_the_last_seed_runs(capsys):
    # verify samples the one partition of --seed, so the last seed runs too
    code, out = run(capsys, "verify", *PATH_ARGS, "--delta", "2", "--trials", "10",
                    "--seed", str(2**64 - 1))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_padding_estimate_gamma_out_of_range_exit_2(capsys):
    code = main(["padding-estimate", *PATH_ARGS, "--delta", "2", "--trials", "10",
                 "--gamma", "0.5"])
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_verify_exit_one_on_hard_failure(capsys, monkeypatch):
    from padnet import cli
    from padnet.verify import CheckResult, VerificationReport

    failing = VerificationReport([CheckResult("net-covering", "fail", witness="vertex 0")])
    monkeypatch.setattr(cli, "full_report", lambda *a, **k: failing)
    code = main(["verify", *PATH_ARGS, "--delta", "2"])
    assert code == 1


@pytest.mark.parametrize("alpha", ["1.5", "2"])
def test_verify_alpha_at_most_two_skips_partition_cover(capsys, alpha):
    # the partition cover needs alpha > 2; the rest of the report still runs
    code, out = run(
        capsys, "verify", *GRID_ARGS, "--delta", "1", "--alpha", alpha, "--trials", "400"
    )
    payload = json.loads(out)
    validate(payload, "verify")
    assert code == 0 and payload["ok"] is True
    by_name = {c["name"]: c for c in payload["checks"]}
    skipped = by_name.pop("partition-cover-skipped")
    assert skipped["status"] == "warn" and "alpha > 2" in skipped["witness"]
    assert not any(name.startswith("partition-cover") for name in by_name)
    for name in ("net-covering", "partition-total-disjoint", "cover-strong-diameter"):
        assert name in by_name
    assert sum(name.startswith("padding-lcb-gamma-") for name in by_name) == 3
    assert all(c["status"] == "pass" for c in by_name.values())


def data_params(name: str, delta: float, alpha: float = 3.0) -> DecompositionParams:
    g = parse_edge_list((DATA / f"{name}.gr").read_text())
    emb = td_to_tree_partition(g, load_tree_decomposition((DATA / f"{name}.td").read_text(), g))
    net = build_tree_ordered_net(emb.host, emb.tree_partition, delta, alpha=alpha)
    return DecompositionParams.from_net(net, delta)


def test_sampler_ks_passes_at_alpha_near_one():
    # the rate `verify --delta 1 --alpha 1.01` draws at on grid4; the sampler
    # must not collapse onto the interval's end
    params = data_params("grid4", 1.0, alpha=1.01)
    assert params.lam == pytest.approx(921, abs=1)
    ks = sampler_ks_check(params.lam, 1.0, params.beta_internal)
    assert ks.status == "pass"
    assert math.isfinite(ks.measured)


def test_verify_passes_on_a_seed_whose_ks_draws_fail(capsys):
    # at seed 157 the sampler's KS statistic is past its 1% bound, as it is at
    # any rate; the report certifies the instance, so the valid path passes
    params = data_params("path8", 2.0)
    assert sampler_ks_check(params.lam, 1.0, params.beta_internal, seed=157).status == "fail"
    code = main(["verify", *PATH_ARGS, "--delta", "2", "--seed", "157"])
    captured = capsys.readouterr()
    assert code == 0 and json.loads(captured.out)["ok"] is True


def flags_read(capsys, command: str, argv: list[str]) -> set[str]:
    """The attributes `command`'s handler reads from its parsed arguments."""
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            if not name.startswith("_"):
                read.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args([command, *argv], namespace=Recording())
    read.clear()  # argparse reads the defaults while parsing
    assert args.handler(args) == 0
    capsys.readouterr()
    return read - {"handler"}


@pytest.mark.parametrize("command", sorted(HANDLERS))
def test_each_command_reads_exactly_its_flags(capsys, tmp_path, command):
    declared = {
        spec.get("dest", flag[2:].replace("-", "_"))
        for flag, spec, readers in FLAGS
        if command in readers
    }
    argv = [*PATH_ARGS, "--out", str(tmp_path / "out.json")]
    argv += ["--delta", "2"] if "delta" in declared else []
    argv += ["--trials", "10"] if "trials" in declared else []
    assert flags_read(capsys, command, argv) == declared


def test_python_m_padnet_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "padnet", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: padnet") and "partition-cover" in run.stdout
