"""Command-line front end.

Subcommands: construct | verify | bound | plan | simulate | search.
Exit codes: 0 ok, 1 semantic failure (invalid layout, unplannable batch),
2 usage or parse error, 3 search budget exhausted.

The simulate command must reproduce bit-exactly across implementations,
so its batch sampler is pinned down completely: a splitmix-style 64-bit
generator (constants below, documented in the README) drives a partial
Fisher-Yates shuffle of the item indices; the first k entries, in
selection order, form the batch.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from dataclasses import dataclass

from . import bounds, construct, oracle
from .core import Params, SetSystem, parse, serialize, total_storage
from .errors import (
    BudgetExceeded,
    CbcError,
    FormatError,
    InsufficientCode,
    NoPlan,
    ParamError,
    RangeError,
    Unsupported,
)
from .hall import CrowdedSubset, Deficiency, plan_batch, verify_hc2

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


@dataclass
class LoadStats:
    per_server_reads: list[int]
    batches_served: int
    max_reads_in_any_single_batch_per_server: int


def _witness_text(witness) -> str:
    if isinstance(witness, CrowdedSubset):
        servers = "{" + ",".join(str(s) for s in witness.servers) + "}"
        return f"{servers} contains {len(witness.items)} items"
    assert isinstance(witness, Deficiency)
    items = "(" + ",".join(str(j) for j in witness.items) + ")"
    return f"items {items} cover only {len(witness.servers)} servers"


def _verdict(result: bounds.BoundResult, built: int) -> str:
    target = result.exact if result.exact is not None else result.lower
    if built == target:
        return "optimal"
    if built == result.lower + 1:
        return f"gap <= 1 (lower bound {result.lower})"
    return f"upper bound only (lower bound {result.lower})"


def _read_layout(path: str) -> SetSystem:
    if path == "-":
        return parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _bound_json(result: bounds.BoundResult) -> dict:
    return {
        "lower": result.lower,
        "exact": result.exact,
        "upper": result.upper,
        "source": result.source,
        "chosen_c": result.chosen_c,
    }


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# Regime tag by the --method name of its builder, in table order.
_METHODS = {regime.method: regime.tag for regime in bounds.REGIMES if regime.method is not None}


def _cmd_construct(args) -> int:
    method = args.method
    if method == "uniform":
        if args.c is None:
            print("construct: --method uniform requires -c", file=sys.stderr)
            return 2
        system = construct.construct_uniform(args.c, args.k, args.m)
    elif args.n is None:
        print("construct: -n is required", file=sys.stderr)
        return 2
    elif method == "auto":
        system, _ = construct.construct_best(args.n, args.k, args.m)
    else:
        system = construct.BUILDERS[_METHODS[method]](args.n, args.k, args.m)

    built = total_storage(system)
    result = bounds.known_n(Params(system.n, args.k, args.m))
    verdict = _verdict(result, built)
    text = serialize(system)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
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
                **_bound_json(result),
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
    system = _read_layout(args.file)
    report = verify_hc2(system, args.k)
    storage = total_storage(system)
    if report.valid:
        if args.json:
            _emit_json({"command": "verify", "valid": True, "k": args.k, "N": storage})
        else:
            print(f"valid CBC for k={args.k}, N={storage}")
        return 0
    desc = _witness_text(report.witness)
    if args.json:
        witness = report.witness
        payload = {"command": "verify", "valid": False, "k": args.k, "N": storage}
        if isinstance(witness, CrowdedSubset):
            payload["witness"] = {"servers": list(witness.servers), "items": list(witness.items)}
        else:
            payload["witness"] = {"items": list(witness.items), "union": list(witness.servers)}
        _emit_json(payload)
    else:
        print(f"invalid CBC for k={args.k}: {desc}")
    return 1


def _cmd_bound(args) -> int:
    result = bounds.known_n(Params(args.n, args.k, args.m))
    if args.json:
        _emit_json(
            {"command": "bound", "n": args.n, "k": args.k, "m": args.m, **_bound_json(result)}
        )
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
    system = _read_layout(args.file)
    if len(args.items) > args.k:
        print(f"plan: requested {len(args.items)} items, batch size is {args.k}", file=sys.stderr)
        return 2
    try:
        plan = plan_batch(system, args.items)
    except NoPlan as exc:
        if args.json:
            _emit_json(
                {
                    "command": "plan",
                    "ok": False,
                    "witness": {
                        "items": list(exc.witness.items),
                        "union": list(exc.witness.servers),
                    },
                }
            )
        else:
            print(f"no plan: {_witness_text(exc.witness)}")
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
    system = _read_layout(args.file)
    n, m, k = system.n, system.m, args.k
    if k > n:
        print(f"simulate: batch size {k} exceeds item count {n}", file=sys.stderr)
        return 2
    if args.batches < 0:
        print(f"simulate: need --batches >= 0, got {args.batches}", file=sys.stderr)
        return 2
    rng = SplitMix64(args.seed)
    per_server = [0] * m
    max_in_batch = 0
    for _ in range(args.batches):
        batch = sample_batch(rng, n, k)
        try:
            plan = plan_batch(system, batch)
        except NoPlan as exc:
            print(f"unplannable batch {batch}: {_witness_text(exc.witness)}", file=sys.stderr)
            return 1
        reads = Counter(plan.assignment.values())
        if reads:
            max_in_batch = max(max_in_batch, max(reads.values()))
        for server in plan.assignment.values():
            per_server[server] += 1
    stats = LoadStats(per_server, args.batches, max_in_batch)
    total = sum(stats.per_server_reads)
    if args.json:
        _emit_json(
            {
                "command": "simulate",
                "n": n,
                "m": m,
                "k": k,
                "batches": stats.batches_served,
                "seed": args.seed,
                "per_server_reads": stats.per_server_reads,
                "total_reads": total,
                "max_reads_in_any_single_batch_per_server": stats.max_reads_in_any_single_batch_per_server,
            }
        )
        return 0
    print(f"simulate n={n} m={m} k={k} batches={stats.batches_served} seed={args.seed}")
    for server, count in enumerate(stats.per_server_reads):
        print(f"server {server}: {count}")
    print(f"total reads: {total}")
    print(f"max reads in one batch per server: {stats.max_reads_in_any_single_batch_per_server}")
    print(
        f"per-server reads: max={max(stats.per_server_reads)} "
        f"min={min(stats.per_server_reads)} mean={total / m:.2f}"
    )
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbckit",
        description="Construct, verify, bound, plan and brute-force combinatorial batch codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a layout and report its optimality")
    p.add_argument("-n", type=int, default=None, help="item count")
    p.add_argument("-k", type=int, required=True, help="batch size")
    p.add_argument("-m", type=int, required=True, help="server count")
    p.add_argument("-c", type=int, default=None, help="replicas per item (uniform method)")
    p.add_argument(
        "--method",
        default="auto",
        choices=["auto", *_METHODS, "uniform"],
    )
    p.add_argument("--out", default=None, help="write layout to this file instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a layout file at batch size k")
    p.add_argument("file", help="layout file in cbc format, or - for stdin")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound", help="report lower/exact/upper storage bounds")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("plan", help="plan a batch retrieval from a layout file")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("items", type=int, nargs="+", help="item indices to retrieve")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("simulate", help="serve random batches and report server load")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--batches", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("search", help="exhaustive optimal storage for tiny parameters")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument(
        "--budget",
        type=int,
        default=oracle.DEFAULT_BUDGET,
        help="most search-tree nodes (item placements tried) to explore",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"search: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except (ParamError, RangeError, Unsupported, InsufficientCode) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except CbcError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
