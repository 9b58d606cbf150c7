"""Command-line front end.

Subcommands: construct | verify | bound | plan | simulate | search.
Exit codes: 0 ok, 1 semantic failure (invalid layout, unplannable batch),
2 usage or parse error, 3 search budget exhausted.

Dispatch: when the first argument names a subcommand, ``main`` hands the
rest straight to that subcommand's own parser, and any argument it leaves
over is reported by the top-level parser as "unrecognized arguments", as
argparse itself does.  Every other argument list (none, ``-h``, an unknown
word, ``--``) goes through the top-level parser.  Both routes run the same
parsers, so they print and exit alike; the direct one skips the top-level
pass that only picks the subcommand.

The simulate command must reproduce bit-exactly across implementations,
so its batch sampler is pinned down completely: a splitmix-style 64-bit
generator (constants below, documented in the README) drives a partial
Fisher-Yates shuffle of the item indices; the first k entries, in
selection order, form the batch.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import bounds, construct, oracle
from .core import Params, SetSystem, parse, serialize, total_storage
from .errors import (
    MAX_PRINTED_BITS,
    BudgetExceeded,
    CbcError,
    FormatError,
    NoPlan,
    ParamError,
    RangeError,
    Unsupported,
    count_text,
)
from .hall import CrowdedSubset, Deficiency, _check_batch_size, find_sdr, plan_batch, verify_hc2

_MASK64 = (1 << 64) - 1
SPLITMIX_INCREMENT = 0x9E3779B97F4A7C15
SPLITMIX_MULT1 = 0xBF58476D1CE4E5B9
SPLITMIX_MULT2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator: state += increment, then two xor-multiply mixes."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + SPLITMIX_INCREMENT) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * SPLITMIX_MULT1) & _MASK64
        z = ((z ^ (z >> 27)) * SPLITMIX_MULT2) & _MASK64
        return z ^ (z >> 31)


def sample_batch(rng: SplitMix64, n: int, k: int) -> list[int]:
    """Uniform k-subset of range(n) via partial Fisher-Yates, in selection order.

    The shuffled pool is kept sparsely, as the positions whose entry a swap
    has changed, so a batch costs O(k) whatever n is.
    """
    moved: dict[int, int] = {}  # pool position -> entry, where it is not the position
    batch = []
    for j in range(k):
        r = j + rng.next_u64() % (n - j)
        batch.append(moved.get(r, r))
        moved[r] = moved.get(j, j)
    return batch


def _witness_json(witness) -> dict:
    if isinstance(witness, CrowdedSubset):
        return {"servers": list(witness.servers), "items": list(witness.items)}
    return {"items": list(witness.items), "union": list(witness.servers)}


def _verdict(result: bounds.BoundResult, built: int) -> str:
    target = result.exact if result.exact is not None else result.lower
    if built == target:
        return "optimal"
    if built == result.lower + 1:
        return f"gap <= 1 (lower bound {result.lower})"
    return f"upper bound only (lower bound {result.lower})"


def _read_layout(args) -> SetSystem:
    """The layout named by ``args.file`` (``-`` for stdin), checked against ``args.k``."""
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            # newline="": a CR reaches parse, which refuses it, as on stdin.
            with open(args.file, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"layout is not UTF-8 text: {exc}") from None
    system = parse(text)
    _check_batch_size(system, args.k)
    return system


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_construct(args) -> int:
    method = args.method
    if method == "uniform":
        if args.c is None:
            raise ParamError("--method uniform requires -c")
        if args.n is not None:
            raise ParamError("--method uniform takes no -n (n follows from -c)")
        system = construct.construct_uniform(args.c, args.k, args.m)
    elif args.c is not None:
        raise ParamError("-c applies only to --method uniform")
    elif args.n is None:
        raise ParamError("-n is required")
    elif method == "auto":
        system, _ = construct.construct_best(args.n, args.k, args.m)
    else:
        system = construct.BUILDERS[method](args.n, args.k, args.m)

    built = total_storage(system)
    result = bounds.known_n(Params(system.n, args.k, args.m))
    verdict = _verdict(result, built)
    text = serialize(system)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    if args.json:
        _emit_json(
            {
                "command": "construct",
                "method": method,
                "n": system.n,
                "k": args.k,
                "m": args.m,
                "N": built,
                "verdict": verdict,
                "layout": text,
                **dataclasses.asdict(result),
            }
        )
    else:
        if not args.out:
            sys.stdout.write(text)
        print(f"n={system.n} k={args.k} m={args.m} N={built}", file=sys.stderr)
        print(
            f"bounds: lower={result.lower} exact={result.exact} "
            f"upper={result.upper} source={result.source}",
            file=sys.stderr,
        )
        print(f"verdict: {verdict}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    system = _read_layout(args)
    report = verify_hc2(system, args.k)
    storage = total_storage(system)
    if args.json:
        payload = {"command": "verify", "valid": report.valid, "k": args.k, "N": storage}
        if not report.valid:
            payload["witness"] = _witness_json(report.witness)
        _emit_json(payload)
    elif report.valid:
        print(f"valid CBC for k={args.k}, N={storage}")
    else:
        print(f"invalid CBC for k={args.k}: {report.witness}")
    return 0 if report.valid else 1


def _cmd_bound(args) -> int:
    result = bounds.known_n(Params(args.n, args.k, args.m))
    for name in ("lower", "exact", "upper"):
        value = getattr(result, name)
        if value is not None and value.bit_length() > MAX_PRINTED_BITS:
            raise ParamError(f"{name} = {count_text(value)}, too wide to print")
    if args.json:
        _emit_json({"command": "bound", "n": args.n, "k": args.k, "m": args.m,
                    **dataclasses.asdict(result)})
        return 0
    print(f"n={args.n} k={args.k} m={args.m}")
    if result.exact is not None:
        print(f"exact N = {result.exact} (source: {result.source})")
    else:
        line = f"lower bound {result.lower}"
        if result.upper is not None:
            line += f", constructive upper bound {result.upper}"
        line += f" (source: {result.source})"
        print(line)
    return 0


def _cmd_plan(args) -> int:
    system = _read_layout(args)
    if len(args.items) > args.k:
        raise ParamError(f"requested {len(args.items)} items, batch size is {args.k}")
    try:
        plan = plan_batch(system, args.items)
    except NoPlan as exc:
        if args.json:
            _emit_json({"command": "plan", "ok": False, "witness": _witness_json(exc.witness)})
        else:
            print(f"no plan: {exc.witness}")
        return 1
    if args.json:
        _emit_json(
            {
                "command": "plan",
                "ok": True,
                "assignment": {str(i): s for i, s in plan.assignment.items()},
            }
        )
    else:
        for item in args.items:
            print(f"item {item} ← server {plan.assignment[item]}")
    return 0


def _cmd_simulate(args) -> int:
    if args.batches < 0:
        raise ParamError(f"need --batches >= 0, got {args.batches}")
    if not 0 <= args.seed <= _MASK64:
        raise ParamError(f"need 0 <= --seed < 2**64, got {args.seed}")
    system = _read_layout(args)
    items, n, m, k = system.items, system.n, system.m, args.k
    if k > n:
        raise ParamError(f"batch size {k} exceeds item count {n}")
    rng = SplitMix64(args.seed)
    per_server = [0] * m
    # sample_batch draws k distinct indices in 0..n-1, so each batch goes
    # straight to the matching; plan_batch would check them again.
    for _ in range(args.batches):
        batch = sample_batch(rng, n, k)
        servers = find_sdr([items[j] for j in batch])
        if isinstance(servers, Deficiency):
            witness = Deficiency(tuple(batch[j] for j in servers.items), servers.servers)
            print(f"unplannable batch {batch}: {witness}", file=sys.stderr)
            return 1
        if len(set(servers)) != k:
            raise ParamError("plan reads one server twice")
        for server in servers:
            per_server[server] += 1
    # The loop refuses a batch that reads one server twice, and every batch
    # holds k >= 1 items, so this is 1 once any batch is served; the field
    # stays in the output for its existing readers.
    max_in_batch = min(args.batches, 1)
    total = sum(per_server)
    if args.json:
        _emit_json(
            {
                "command": "simulate",
                "n": n,
                "m": m,
                "k": k,
                "batches": args.batches,
                "seed": args.seed,
                "per_server_reads": per_server,
                "total_reads": total,
                "max_reads_in_any_single_batch_per_server": max_in_batch,
            }
        )
        return 0
    print(f"simulate n={n} m={m} k={k} batches={args.batches} seed={args.seed}")
    for server, count in enumerate(per_server):
        print(f"server {server}: {count}")
    print(f"total reads: {total}")
    print(f"max reads in one batch per server: {max_in_batch}")
    print(f"per-server reads: max={max(per_server)} min={min(per_server)} mean={total / m:.2f}")
    return 0


def _cmd_search(args) -> int:
    result = oracle.search_optimal(args.n, args.k, args.m, budget=args.budget)
    if args.json:
        _emit_json(
            {
                "command": "search",
                "n": args.n,
                "k": args.k,
                "m": args.m,
                "optimal_N": result.optimal_n_storage,
                "nodes_explored": result.nodes_explored,
                "witness": serialize(result.witness),
            }
        )
        return 0
    print(f"optimal N = {result.optimal_n_storage} (nodes explored {result.nodes_explored})")
    sys.stdout.write(serialize(result.witness))
    return 0


def _finish(p: argparse.ArgumentParser, func) -> None:
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=func)


# Subcommand name -> its parser, filled by _build_parser.
_COMMANDS: dict[str, argparse.ArgumentParser] = {}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbckit",
        description="Construct, verify, bound, plan and brute-force combinatorial batch codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    layout = argparse.ArgumentParser(add_help=False)  # verify, plan, simulate
    layout.add_argument("file", help="layout file in cbc format, or - for stdin")
    layout.add_argument("-k", type=int, required=True)
    nkm = argparse.ArgumentParser(add_help=False)  # bound, search
    for flag in ("-n", "-k", "-m"):
        nkm.add_argument(flag, type=int, required=True)

    p = sub.add_parser("construct", help="build a layout and report its optimality")
    p.add_argument("-n", type=int, default=None, help="item count")
    p.add_argument("-k", type=int, required=True, help="batch size")
    p.add_argument("-m", type=int, required=True, help="server count")
    p.add_argument("-c", type=int, default=None, help="replicas per item (uniform method)")
    p.add_argument("--method", default="auto", choices=["auto", *construct.BUILDERS, "uniform"])
    p.add_argument("--out", default=None, help="write layout to this file instead of stdout")
    _finish(p, _cmd_construct)

    p = sub.add_parser("verify", parents=[layout], help="check a layout file at batch size k")
    _finish(p, _cmd_verify)

    p = sub.add_parser("bound", parents=[nkm], help="report lower/exact/upper storage bounds")
    _finish(p, _cmd_bound)

    p = sub.add_parser("plan", parents=[layout], help="plan a batch retrieval from a layout file")
    p.add_argument("items", type=int, nargs="+", help="item indices to retrieve")
    _finish(p, _cmd_plan)

    p = sub.add_parser(
        "simulate", parents=[layout], help="serve random batches and report server load"
    )
    p.add_argument("--batches", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _finish(p, _cmd_simulate)

    p = sub.add_parser(
        "search", parents=[nkm], help="exhaustive optimal storage for tiny parameters"
    )
    p.add_argument(
        "--budget",
        type=int,
        default=oracle.DEFAULT_BUDGET,
        help="most search nodes (profile values and item placements tried) to explore",
    )
    _finish(p, _cmd_search)

    _COMMANDS.update(sub.choices)
    return parser


# Exit code by error type, first match wins: a spent search budget, then
# bad input of any kind (text, file, parameters, uncovered ranges), then
# any other toolkit failure.
_EXIT_CODES = (
    (BudgetExceeded, 3),
    ((FormatError, OSError, ParamError, RangeError, Unsupported), 2),
    (CbcError, 1),
)


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    try:
        return args.func(args)
    except (CbcError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
