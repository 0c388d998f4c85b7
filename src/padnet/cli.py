"""Command-line pipeline: load graph + tree decomposition, convert, build the
net, then decompose / cover / verify / estimate, emitting JSON artifacts.

Identical invocations produce byte-identical JSON (seeded randomness only).
Exit codes: 0 ok, 1 verification failure, 2 unusable input or configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .covers import build_partition_cover, build_sparse_cover
from .decomposition import (
    DecompositionParams,
    padded_trial_counts,
    padding_estimates,
    sample_padded_decompositions,
)
from .graph import GraphFormatError, parse_edge_list
from .ordered_net import build_tree_ordered_net, packing_profile
from .trees import TdValidationError, load_tree_decomposition, td_to_tree_partition
from .verify import OracleCapError, full_report, verify_embedding


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}")


def _load_inputs(args):
    text = _read(args.graph)
    try:
        g = parse_edge_list(text)
    except GraphFormatError as exc:
        raise CliError(f"{args.graph}: {exc}")
    td_text = _read(args.td)
    try:
        td = load_tree_decomposition(td_text, g)
    except (GraphFormatError, TdValidationError) as exc:
        raise CliError(f"{args.td}: {exc}")
    return g, td


def _build_net(g, td, delta: float, alpha: float):
    emb = td_to_tree_partition(g, td)
    net = build_tree_ordered_net(emb.host, emb.tree_partition, delta, alpha=alpha)
    return emb, net


def _check_sampling(args) -> None:
    """Refuse --trials and --seed before any input is read."""
    if args.trials < 1:
        raise CliError("--trials must be >= 1")
    if not 0 <= args.seed < 2**64:
        raise CliError(f"--seed must lie in [0, 2**64), got {args.seed}")


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise CliError(f"{args.out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def _original_ids(emb) -> dict[int, int]:
    """Host vertex -> the input vertex whose designated copy it is."""
    return {h: v for v, h in enumerate(emb.forward.tolist())}


def _project_members(original: dict[int, int], members) -> list[int]:
    return sorted(original[h] for h in members if h in original)


def cmd_convert(args) -> int:
    g, td = _load_inputs(args)
    emb = td_to_tree_partition(g, td)
    try:
        checks = verify_embedding(g, td, emb, oracle_cap=args.oracle_cap)
        failed = [c.name for c in checks if c.status == "fail"]
        isometry = "pass" if not failed else "fail: " + ",".join(failed)
    except OracleCapError as exc:
        isometry = f"skipped: {exc}"
    payload = {
        "command": "convert",
        "width": {
            "td_width": td.width,
            "td_max_bag_size": td.max_bag_size,
            "tp_width": emb.tree_partition.width,
        },
        "host": {"n": emb.host.n, "m": emb.host.m},
        "tree_partition": {
            "root": emb.tree_partition.root,
            "parent": list(emb.tree_partition.parent),
            "bags": [sorted(b) for b in emb.tree_partition.bags],
        },
        "forward": {str(v): int(emb.forward[v]) for v in range(g.n)},
        "copies": {str(v): list(emb.copies[v]) for v in range(g.n)},
        "isometry": isometry,
    }
    _emit(args, payload)
    return 0 if not isometry.startswith("fail") else 1


def cmd_net(args) -> int:
    g, td = _load_inputs(args)
    emb, net = _build_net(g, td, args.delta, args.alpha)
    payload = net.to_json_dict()
    payload["command"] = "net"
    profile = packing_profile(net, [2.0, 3.0, net.alpha])
    payload["packing_profile"] = {str(m): v for m, v in sorted(profile.items())}
    _emit(args, payload)
    return 0


def cmd_decompose(args) -> int:
    _check_sampling(args)
    if args.seed + args.trials > 2**64:
        raise CliError(f"--seed {args.seed} with --trials {args.trials} runs past seed 2**64 - 1")
    g, td = _load_inputs(args)
    emb, net = _build_net(g, td, args.delta, args.alpha)
    params = DecompositionParams.from_net(net, args.delta)
    samples = []
    seeds = range(args.seed, args.seed + args.trials)
    for part in sample_padded_decompositions(net, args.delta, seeds):
        d = part.to_json_dict()
        d["original_assignment"] = {
            str(v): int(part.assignment[emb.forward[v]]) for v in range(g.n)
        }
        samples.append(d)
    payload = {
        "command": "decompose",
        "params": params.to_json_dict(),
        "seed": args.seed,
        "samples": samples,
    }
    _emit(args, payload)
    return 0


def cmd_cover(args) -> int:
    g, td = _load_inputs(args)
    emb, net = _build_net(g, td, args.delta, args.alpha)
    cover = build_sparse_cover(emb.host, net, args.delta)
    payload = cover.to_json_dict()
    payload["command"] = "cover"
    original = _original_ids(emb)
    for c, cluster in zip(payload["clusters"], cover.clusters):
        c["original_members"] = _project_members(original, cluster.members)
    _emit(args, payload)
    return 0


def cmd_partition_cover(args) -> int:
    g, td = _load_inputs(args)
    emb, net = _build_net(g, td, args.delta, args.alpha)
    pcover = build_partition_cover(emb.host, net, args.delta)
    payload = pcover.to_json_dict()
    payload["command"] = "partition-cover"
    payload["tau_emp"] = net.tau_emp
    original = _original_ids(emb)
    for part, built in zip(payload["partitions"], pcover.partitions):
        for c, cluster in zip(part, built):
            c["original_members"] = _project_members(original, cluster.members)
    _emit(args, payload)
    return 0


def cmd_verify(args) -> int:
    g, td = _load_inputs(args)
    try:
        report = full_report(
            g,
            td,
            args.delta,
            alpha=args.alpha,
            seed=args.seed,
            trials=args.trials,
            oracle_cap=args.oracle_cap,
        )
    except OracleCapError as exc:
        raise CliError(f"{exc}; raise --oracle-cap (graph or host larger than cap)")
    payload = report.to_json_dict()
    payload["command"] = "verify"
    table_stream = sys.stdout if args.out else sys.stderr
    print(report.format_table(), file=table_stream)
    _emit(args, payload)
    return 0 if report.ok else 1


def cmd_padding_estimate(args) -> int:
    _check_sampling(args)
    g, td = _load_inputs(args)
    emb, net = _build_net(g, td, args.delta, args.alpha)
    params = DecompositionParams.from_net(net, args.delta)
    gammas = args.gamma or params.default_gammas()
    counts = padded_trial_counts(emb.host, net, args.delta, gammas, args.trials, args.seed)
    estimates = padding_estimates(counts, params, args.trials, gammas)
    rows = [
        {
            "gamma": e.gamma,
            "ball_radius": e.gamma * params.diameter_bound,
            "worst_rate": e.worst / args.trials,
            "wilson_lcb_99": e.lcb,
            "target": e.target,
            "satisfied": e.lcb >= e.target,
        }
        for e in estimates
    ]
    payload = {
        "command": "padding-estimate",
        "params": params.to_json_dict(),
        "trials": args.trials,
        "seed": args.seed,
        "estimates": rows,
    }
    _emit(args, payload)
    return 0


def _add_common(p: argparse.ArgumentParser, delta: bool = True):
    p.add_argument("--graph", required=True, help="edge-list file (p ge header)")
    p.add_argument("--td", required=True, help="PACE-2017 .td file")
    if delta:
        p.add_argument("--delta", type=float, required=True, help="covering radius")
    p.add_argument("--alpha", type=float, default=3.0, help="packing radius multiplier")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--gamma", type=float, action="append", help="repeatable padding gamma")
    p.add_argument("--oracle-cap", type=int, default=60, dest="oracle_cap")
    p.add_argument("--out", help="output JSON path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padnet",
        description="Padded decompositions, sparse covers, and padded partition "
        "covers for bounded-treewidth graphs via tree-ordered nets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "convert": cmd_convert,
        "net": cmd_net,
        "decompose": cmd_decompose,
        "cover": cmd_cover,
        "partition-cover": cmd_partition_cover,
        "verify": cmd_verify,
        "padding-estimate": cmd_padding_estimate,
    }
    for name, fn in handlers.items():
        p = sub.add_parser(name)
        _add_common(p, delta=(name != "convert"))
        p.set_defaults(handler=fn)
        if name == "decompose":
            p.set_defaults(trials=1)  # samples to draw; other commands default 10^4
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
