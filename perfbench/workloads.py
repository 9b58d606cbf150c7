"""The three benchmark workloads: design, serve and search.

Each workload is a single-threaded closed loop with one client.  It has a
``setup`` that may be repeated, a list of operations per pass generated
from the seed (``pass_ops``), one operation runner (``run_op``, the only
code inside the timed region) and a checker (``check``) that runs outside
the timed region and returns one failure message per broken property.
``latency_per_pass`` says whether latency is timed per operation or per
pass.  ``trace_setup`` says whether the set-up is program work that a
traced run should charge to the layers, or the benchmark's own reference
work that it should leave out.
``loads`` turns one pass's outputs into per-server read counts per layout,
from which the harness computes read imbalance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from typing import NamedTuple

from cbckit import bounds, cli, construct, hall
from cbckit.core import Params, parse, total_storage

# The design grid covers every constructive regime with m from 6 to 20, on
# both sides of the m=16 cutoff between verify_hc2's two paths.  Rows are
# (regime, n, k, m); construct picks the regime itself.
DESIGN_GRID = [
    ("trivial", 10, 3, 12),
    ("m=k", 300, 6, 6),
    ("n=m+1", 13, 5, 12),
    ("large-n", 10000, 4, 9),
    ("large-n", 5000, 5, 12),
    ("range-a", 43, 4, 6),
    ("range-a", 200, 4, 10),
    ("range-a", 1000, 5, 12),
    ("range-a", 2000, 6, 13),
    ("range-a", 3000, 7, 14),
    ("range-a", 1500, 6, 15),
    ("range-a", 6188, 7, 17),
    ("range-b", 500, 5, 16),
    ("range-b", 600, 5, 17),
    ("range-b", 700, 5, 18),
    ("range-b", 4200, 6, 20),
]
# Uniform rows (k, m, c): the item count follows from the code found.
DESIGN_UNIFORM = [(5, 8, 2), (7, 12, 4), (6, 14, 3)]
DESIGN_BATCHES = 200

# Table-1 layout, a range-b layout on the table path, and the largest
# layout in the repo (m=24, per-subset verify path, best_d4_code(24,4)).
SERVE_LAYOUTS = [(43, 4, 6), (500, 5, 16), (42499, 7, 24)]
SERVE_PASS_REQUESTS = 30_000

# (9,3,5) is left out: at 7-10 s a search it allowed only three or four
# passes per run, too few to time steadily on a shared machine.
SEARCH_INSTANCES = [(5, 2, 3), (6, 2, 4), (7, 3, 4), (7, 2, 5), (8, 2, 5), (8, 3, 5)]
# Validity checks allowed per instance; the largest instance needs 1,515.
SEARCH_BUDGET = 50_000
# Seeded k-item batches each search witness serves for the load check.
SEARCH_LOAD_BATCHES = 2000


def run_cli(argv: list[str], stdin: str = "") -> tuple[int, str]:
    """Run ``cbckit.cli.main`` in-process with captured stdio; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def load_counts(system, plans) -> list[int]:
    """Reads per server when ``system`` serves every plan in ``plans``."""
    reads = [0] * system.m
    for assignment in plans:
        for server in assignment.values():
            reads[server] += 1
    return reads


def plan_failures(system, request, assignment) -> list[str]:
    """Why ``assignment`` is not a one-read-per-server plan for ``request``."""
    if sorted(assignment) != sorted(request):
        return [f"plan covers {sorted(assignment)}, request was {sorted(request)}"]
    servers = list(assignment.values())
    if len(set(servers)) != len(servers):
        return [f"plan reads a server twice: {assignment}"]
    for item, server in assignment.items():
        if not system.items[item] >> server & 1:
            return [f"plan reads item {item} from server {server}, which does not store it"]
    return []


@dataclass(frozen=True)
class DesignOp:
    label: str
    k: int
    construct_argv: tuple[str, ...]
    sim_seed: int
    params: tuple[int, int, int] | None  # (n, k, m); None for uniform rows


class Design:
    """Parameters to a certified, load-checked layout through the CLI.

    Per instance: ``construct --json``, then ``verify -`` and
    ``simulate -`` with the layout on stdin, so no file I/O is timed.
    Set-up computes each row's expected storage with ``bounds.known_n``;
    that is checking work, so a traced run does not trace it.
    """

    name = "design"
    latency_per_pass = False
    trace_setup = False
    setup_failures: tuple[str, ...] = ()

    def __init__(self, seed: int, reference: dict, grid=None, uniform=None,
                 batches: int = DESIGN_BATCHES):
        self.seed = seed
        self.reference = reference
        self.batches = batches
        rows = DESIGN_GRID if grid is None else grid
        uni = DESIGN_UNIFORM if uniform is None else uniform
        self.ops: list[DesignOp] = []
        for i, (_, n, k, m) in enumerate(rows):
            argv = ("construct", "-n", str(n), "-k", str(k), "-m", str(m), "--json")
            self.ops.append(DesignOp(f"n{n}-k{k}-m{m}", k, argv, seed * 1000 + i, (n, k, m)))
        for i, (k, m, c) in enumerate(uni, start=len(rows)):
            argv = ("construct", "-k", str(k), "-m", str(m), "-c", str(c),
                    "--method", "uniform", "--json")
            self.ops.append(DesignOp(f"k{k}-m{m}-c{c}", k, argv, seed * 1000 + i, None))
        self.expected: dict[str, int | None] = {}

    def setup(self) -> None:
        expected = {}
        for op in self.ops:
            if op.params is None:
                continue  # uniform layouts are not claimed optimal
            result = bounds.known_n(Params(*op.params))
            expected[op.label] = result.exact if result.exact is not None else result.upper
        self.expected = expected

    def pass_ops(self, index: int) -> list[DesignOp]:
        return self.ops

    def run_op(self, op: DesignOp) -> dict:
        code_c, out_c = run_cli(list(op.construct_argv))
        layout = json.loads(out_c)["layout"] if code_c == 0 else ""
        k = str(op.k)
        code_v, out_v = run_cli(["verify", "-", "-k", k, "--json"], layout)
        code_s, out_s = run_cli(
            ["simulate", "-", "-k", k, "--batches", str(self.batches),
             "--seed", str(op.sim_seed), "--json"],
            layout,
        )
        return {"codes": (code_c, code_v, code_s), "construct": out_c,
                "verify": out_v, "simulate": out_s}

    def check(self, op: DesignOp, out: dict) -> list[str]:
        if out["codes"] != (0, 0, 0):
            return [f"{op.label}: exit codes {out['codes']}, expected (0, 0, 0)"]
        built = json.loads(out["construct"])
        verdict = json.loads(out["verify"])
        sim = json.loads(out["simulate"])
        fails = []
        if not verdict["valid"]:
            fails.append(f"{op.label}: verify says the layout is invalid")
        expected = self.expected.get(op.label)
        if expected is not None and built["N"] != expected:
            fails.append(f"{op.label}: built N={built['N']}, known_n gives {expected}")
        if built["N"] != self.reference.get(op.label):
            fails.append(f"{op.label}: built N={built['N']}, reference {self.reference.get(op.label)}")
        if built["N"] < built["lower"]:
            fails.append(f"{op.label}: built N={built['N']} below lower bound {built['lower']}")
        if verdict["N"] != built["N"]:
            fails.append(f"{op.label}: verify reports N={verdict['N']}, built N={built['N']}")
        reads = sim["per_server_reads"]
        if sim["batches"] != self.batches or sum(reads) != self.batches * op.k or len(reads) != built["m"]:
            fails.append(f"{op.label}: simulate served {sum(reads)} reads on {len(reads)} servers")
        return fails

    def loads(self, ops, outs) -> list[list[int]]:
        return [json.loads(out["simulate"])["per_server_reads"] for out in outs]

    def digest(self, ops, outs) -> str:
        h = hashlib.sha256()
        for out in outs:
            for key in ("construct", "verify", "simulate"):
                h.update(out[key].encode())
        return h.hexdigest()


class ServeOp(NamedTuple):
    # A tuple of ints, which the garbage collector stops tracking, so a
    # pass's 30,000 requests do not lengthen the collections that run
    # inside the timed plan_batch calls.
    layout: int
    request: tuple[int, ...]


class Serve:
    """Seeded uniform k-item requests, round-robin over three certified layouts.

    Set-up builds each layout with ``construct_best`` and certifies it with
    ``verify_hc2``; the timed operation is one ``hall.plan_batch`` call.
    """

    name = "serve"
    latency_per_pass = False
    trace_setup = True

    def __init__(self, seed: int, reference: dict, layouts=None,
                 pass_requests: int = SERVE_PASS_REQUESTS):
        self.seed = seed
        self.reference = reference
        self.params = SERVE_LAYOUTS if layouts is None else layouts
        self.pass_requests = pass_requests
        self.systems: list = []
        self.setup_failures: list[str] = []

    def setup(self) -> None:
        systems, fails = [], []
        for n, k, m in self.params:
            system, _ = construct.construct_best(n, k, m)
            label = f"n{n}-k{k}-m{m}"
            if not hall.verify_hc2(system, k).valid:
                fails.append(f"{label}: verify_hc2 rejects the built layout")
            if total_storage(system) != self.reference.get(label):
                fails.append(f"{label}: built N={total_storage(system)}, reference {self.reference.get(label)}")
            systems.append(system)
        self.systems, self.setup_failures = systems, fails

    def pass_ops(self, index: int) -> list[ServeOp]:
        rng = random.Random(self.seed * 1_000_003 + index)
        ops = []
        for i in range(self.pass_requests):
            layout = i % len(self.params)
            n, k, _ = self.params[layout]
            ops.append(ServeOp(layout, tuple(rng.sample(range(n), k))))
        return ops

    def run_op(self, op: ServeOp):
        return hall.plan_batch(self.systems[op.layout], op.request).assignment

    def check(self, op: ServeOp, out) -> list[str]:
        return plan_failures(self.systems[op.layout], op.request, out)

    def loads(self, ops, outs) -> list[list[int]]:
        return [
            load_counts(system, (out for op, out in zip(ops, outs) if op.layout == i))
            for i, system in enumerate(self.systems)
        ]

    def digest(self, ops, outs) -> str:
        h = hashlib.sha256()
        for op, out in zip(ops, outs):
            h.update(repr((op.layout, sorted(out.items()))).encode())
        return h.hexdigest()


class Search:
    """Exhaustive ground truth through ``cbckit search --json`` on tiny instances.

    Set-up brackets each instance with the closed forms and certifies the
    constructive upper bound with ``verify_hc1`` (checking work, not
    traced); each pass solves every instance once, in a seeded order.
    """

    name = "search"
    # The client's request is the whole instance list: single searches
    # differ by three orders of magnitude, and the short ones are too brief
    # to time steadily on a shared machine.
    latency_per_pass = True
    trace_setup = False

    def __init__(self, seed: int, reference: dict, instances=None):
        self.seed = seed
        self.reference = reference
        self.instances = SEARCH_INSTANCES if instances is None else instances
        self.brackets: dict[tuple, tuple[int, int]] = {}
        self.setup_failures: list[str] = []

    def setup(self) -> None:
        brackets, fails = {}, []
        for n, k, m in self.instances:
            result = bounds.known_n(Params(n, k, m))
            system, _ = construct.construct_best(n, k, m)
            if not hall.verify_hc1(system, k).valid:
                fails.append(f"n{n}-k{k}-m{m}: verify_hc1 rejects the constructed layout")
            brackets[(n, k, m)] = (result.lower, total_storage(system))
        self.brackets, self.setup_failures = brackets, fails

    def pass_ops(self, index: int) -> list[tuple[int, int, int]]:
        order = list(self.instances)
        random.Random(self.seed * 1_000_003 + index).shuffle(order)
        return order

    def run_op(self, op):
        n, k, m = op
        return run_cli(["search", "-n", str(n), "-k", str(k), "-m", str(m),
                        "--budget", str(SEARCH_BUDGET), "--json"])

    def check(self, op, out) -> list[str]:
        n, k, m = op
        label = f"n{n}-k{k}-m{m}"
        code, text = out
        if code != 0:
            return [f"{label}: exit code {code}" + (" (budget exhausted)" if code == 3 else "")]
        result = json.loads(text)
        fails = []
        if result["optimal_N"] != self.reference.get(label):
            fails.append(f"{label}: optimum {result['optimal_N']}, reference {self.reference.get(label)}")
        lower, upper = self.brackets.get(op, (None, None))
        if lower is not None and not lower <= result["optimal_N"] <= upper:
            fails.append(f"{label}: optimum {result['optimal_N']} outside [{lower}, {upper}]")
        witness = parse(result["witness"])
        if (witness.n, witness.m) != (n, m) or total_storage(witness) != result["optimal_N"]:
            fails.append(f"{label}: witness does not match n, m and N")
        elif not hall.verify_hc1(witness, k).valid:
            fails.append(f"{label}: witness fails verify_hc1")
        return fails

    def loads(self, ops, outs) -> list[list[int]]:
        """Reads per server when each witness serves seeded uniform k-item batches."""
        rng = random.Random(self.seed)
        loads = []
        for (n, k, m), (code, text) in sorted(zip(ops, outs)):
            if code != 0:
                continue
            witness = parse(json.loads(text)["witness"])
            plans = (hall.plan_batch(witness, rng.sample(range(n), k)).assignment
                     for _ in range(SEARCH_LOAD_BATCHES))
            loads.append(load_counts(witness, plans))
        return loads

    def digest(self, ops, outs) -> str:
        h = hashlib.sha256()
        for op, (code, text) in sorted(zip(ops, outs)):
            h.update(f"{op}:{code}:{text}".encode())
        return h.hexdigest()


WORKLOADS = {cls.name: cls for cls in (Design, Serve, Search)}
