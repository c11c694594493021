"""Seeded inputs for every workload.

Everything here is a pure function of the workload seed: the same seed
gives byte-identical documents, graph lists, request schedules and
harness seeds.  The program only ever sees the generated inputs.
The functions that build graphs import ``repro``, so ``src`` must be on
``sys.path``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


def rng_for(seed: int, label: str) -> random.Random:
    """An independent stream per (seed, purpose); str seeds are stable."""
    return random.Random(f"perfbench:{label}:{seed}")


# ----------------------------------------------------------------------
# cli_oneshot
# ----------------------------------------------------------------------
CLI_RANDOM_SIZES = (8, 18, 29, 40)  # actors of the random .json specs
CLI_CHECKS = 5      # specs per cycle run with --check
CLI_VECTORIZE = 2   # random files per cycle run with --vectorize


@dataclass(frozen=True)
class CliOp:
    spec: str            # system name or path of a .json graph file
    check: bool
    vectorize: bool

    def argv(self) -> List[str]:
        argv = ["compile", self.spec]
        if self.check:
            argv.append("--check")
        if self.vectorize:
            argv.append("--vectorize")
        return argv


def cli_graphs(seed: int) -> Dict[str, Dict[str, Any]]:
    """File name -> graph document of the random ``.json`` specs.

    Sizes are fixed and every second graph has broadcast groups; the
    seed draws the structure.
    """
    from repro.sdf.io import to_json
    from repro.sdf.random_graphs import (
        random_broadcast_sdf_graph, random_sdf_graph,
    )

    rng = rng_for(seed, "cli-graphs")
    gens = (random_sdf_graph, random_broadcast_sdf_graph)
    out = {}
    for k, n in enumerate(CLI_RANDOM_SIZES):
        name = f"rand{k}_{n}"
        graph = gens[k % 2](n, seed=rng.randrange(2 ** 30), name=name)
        out[f"{name}.json"] = to_json(graph)
    return out


def cli_ops(seed: int, graph_dir: str) -> List[CliOp]:
    """One cycle: every spec once, in seeded order, with seeded flags.

    Every Table 1 system, CD-DAT and the random files appear in each
    cycle, and exactly ``CLI_CHECKS``/``CLI_VECTORIZE`` of them carry
    each flag, so seeds differ in order, flags and random graphs but not
    in how much work a cycle holds.  ``--check`` skips the two 188-actor
    systems and ``--vectorize`` goes to the random files only: blocking
    satrec alone quintuples its pool, and either flag on one large
    system would move a cycle's time, peak memory or pool by more than
    the bounds.
    """
    from repro.apps import TABLE1_SYSTEMS, table1_graph

    files = sorted(cli_graphs(seed))
    pool = list(TABLE1_SYSTEMS) + ["cddat"] + [
        f"{graph_dir}/{name}" for name in files
    ]
    rng = rng_for(seed, "cli-ops")
    rng.shuffle(pool)
    flaggable = [i for i, spec in enumerate(pool)
                 if spec not in TABLE1_SYSTEMS
                 or table1_graph(spec).num_actors < 100]
    checked = set(rng.sample(flaggable, CLI_CHECKS))
    vectorized = set(rng.sample(
        [i for i, spec in enumerate(pool) if spec.endswith(".json")],
        CLI_VECTORIZE))
    return [CliOp(spec, i in checked, i in vectorized)
            for i, spec in enumerate(pool)]


def write_cli_graphs(seed: int, graph_dir: str) -> None:
    for name, document in cli_graphs(seed).items():
        with open(f"{graph_dir}/{name}", "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# compile_sweep
# ----------------------------------------------------------------------
SWEEP_RANDOM_GRAPHS = 21   # seven per size band
SWEEP_CHAINS = 4


@dataclass
class SweepJob:
    label: str
    graph: Any
    best: bool                      # implement_best (Table 1) or implement
    vectorize: bool = False
    memory_budget: Optional[int] = None


def sweep_sizes(count: int = SWEEP_RANDOM_GRAPHS, lo: int = 10,
                hi: int = 200) -> List[int]:
    """``count`` sizes spaced evenly on a log scale over ``[lo, hi]``."""
    return [int(round(lo * (hi / lo) ** (k / (count - 1))))
            for k in range(count)]


def sweep_jobs(seed: int) -> List[SweepJob]:
    """Every Table 1 system, CD-DAT, delayed chains and random graphs.

    The random graphs have fixed log-spaced sizes, every second one with
    broadcast groups, and fixed ones are vectorized (two unconstrained
    per size band, two budgeted in the small band); the seed draws their
    structure, the chains, the budgets and the order.  Every seed's pass
    therefore holds the same amount of each kind of work.
    """
    from repro.apps import TABLE1_SYSTEMS, table1_graph
    from repro.apps.ptolemy_demos import cd_to_dat
    from repro.check.harness import delayed_split_chain
    from repro.sdf.random_graphs import (
        random_broadcast_sdf_graph, random_sdf_graph,
    )

    rng = rng_for(seed, "sweep")
    jobs = [SweepJob(name, table1_graph(name), True)
            for name in TABLE1_SYSTEMS]
    jobs.append(SweepJob("cddat", cd_to_dat(), False))
    for k in range(SWEEP_CHAINS):
        gseed = rng.randrange(2 ** 30)
        jobs.append(SweepJob(f"chain{gseed}", delayed_split_chain(gseed),
                             False))
    gens = (random_sdf_graph, random_broadcast_sdf_graph)
    graphs = [
        SweepJob(f"sweep{n}", gens[k % 2](n, seed=rng.randrange(2 ** 30),
                                          name=f"sweep{n}"), False)
        for k, n in enumerate(sweep_sizes())
    ]
    # Memory-budgeted vectorization re-costs every candidate blocking: on
    # one 169-actor graph a single call took 6.6 s (2-vCPU x86-64 VM).
    # Budgets therefore go to the small band only; otherwise one draw
    # would decide how long a pass takes.
    band = len(graphs) // 3
    for lo in range(0, len(graphs), band):
        band_jobs = graphs[lo:lo + band]
        for k in (1, 4):
            band_jobs[k].vectorize = True
        if lo == 0:
            for k in (0, 6):
                band_jobs[k].vectorize = True
                band_jobs[k].memory_budget = rng.randint(200, 4000)
    jobs.extend(graphs)
    rng.shuffle(jobs)
    return jobs


# ----------------------------------------------------------------------
# check_harness
# ----------------------------------------------------------------------
CHECK_TRIALS = 25  # per run_check call, as CI runs it
CHECK_FAMILIES = ("acyclic", "broadcast", "cyclic")


def check_root_seeds(seed: int, count: int = 64) -> List[int]:
    """Root seeds of successive ``run_check`` calls for one run."""
    rng = rng_for(seed, "check")
    seeds: List[int] = []
    while len(seeds) < count:
        s = rng.randrange(1, 20000)
        if s not in seeds:
            seeds.append(s)
    return seeds


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
CATALOGUE = 1024   # about 2x the server's 512-entry memo and tiers
COLD_DOCS = 240
BATCHES = 8
BATCH_ITEMS = 16
ZIPF_S = 1.0
#: Offered load of the traced run's open loop, requests per second:
#: about a sixth of the warm closed-loop capacity on a 2-vCPU x86-64 VM.
OPEN_RATE = 300.0
COLD_SHARE = 0.03
BATCH_SHARE = 0.03


def _small_graph_doc(rng: random.Random, slot: int) -> Dict[str, Any]:
    """Document number ``slot``: 5-10 actors and, for every fourth, a
    broadcast group, both fixed by the slot.  The seed draws only the
    structure, so every seed gives the popular documents the same sizes.
    """
    from repro.sdf.io import to_json
    from repro.sdf.random_graphs import (
        random_broadcast_sdf_graph, random_sdf_graph,
    )

    n = 5 + slot % 6
    name = f"svc{slot}"
    if slot % 4 == 3:
        graph = random_broadcast_sdf_graph(
            n, seed=rng.randrange(2 ** 30), num_groups=1, name=name)
    else:
        graph = random_sdf_graph(n, seed=rng.randrange(2 ** 30), name=name)
    return to_json(graph)


@dataclass
class ServeInputs:
    catalogue: List[Dict[str, Any]]
    cold: List[Dict[str, Any]]
    batches: List[List[int]]              # catalogue indices per batch
    zipf_cdf: List[float] = field(default_factory=list)

    def body(self, document: Dict[str, Any]) -> bytes:
        return json.dumps({"graph": document}).encode("utf-8")

    def batch_body(self, batch: int) -> bytes:
        docs = [self.catalogue[i] for i in self.batches[batch]]
        return json.dumps({"graphs": docs}).encode("utf-8")

    def zipf(self, rng: random.Random) -> int:
        """A catalogue index; index 0 is the most popular."""
        import bisect

        return min(bisect.bisect_left(self.zipf_cdf, rng.random()),
                   len(self.catalogue) - 1)


def serve_inputs(seed: int) -> ServeInputs:
    from repro.sdf.io import canonical_hash

    rng = rng_for(seed, "serve-docs")
    seen = set()
    docs: List[Dict[str, Any]] = []
    while len(docs) < CATALOGUE + COLD_DOCS:
        doc = _small_graph_doc(rng, len(docs))
        digest = canonical_hash(doc)
        if digest not in seen:
            seen.add(digest)
            docs.append(doc)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(CATALOGUE)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    # Batch b holds popular slots b, b + 8, ...: fixed, so every seed's
    # batches hold graphs of the same sizes.
    batches = [list(range(b, BATCHES * BATCH_ITEMS, BATCHES))
               for b in range(BATCHES)]
    return ServeInputs(docs[:CATALOGUE], docs[CATALOGUE:], batches, cdf)


@dataclass(frozen=True)
class Arrival:
    at: float          # seconds after the phase starts
    kind: str          # "warm" | "cold" | "batch"
    index: int         # catalogue index, cold index or batch index


def _draw(rng: random.Random, inputs: ServeInputs, cold: int) -> Arrival:
    """One request of the phase A mix, due at time 0."""
    u = rng.random()
    if u < COLD_SHARE and cold < len(inputs.cold):
        return Arrival(0.0, "cold", cold)
    if u < COLD_SHARE + BATCH_SHARE:
        return Arrival(0.0, "batch", rng.randrange(len(inputs.batches)))
    return Arrival(0.0, "warm", inputs.zipf(rng))


def mixed_requests(seed: int, inputs: ServeInputs, label: str, count: int,
                   cold_start: int = 0) -> List[Arrival]:
    """``count`` requests of the mix, for a client that sends them in turn.

    Cold documents are used once each, from index ``cold_start`` on, so
    later requests in the same cache can follow earlier ones.
    """
    rng = rng_for(seed, f"serve-mixed-{label}")
    out: List[Arrival] = []
    for _ in range(count):
        out.append(_draw(rng, inputs, cold_start))
        cold_start += out[-1].kind == "cold"
    return out


def open_schedule(seed: int, inputs: ServeInputs, seconds: float,
                  label: str, cold_start: int = 0,
                  rate: float = OPEN_RATE) -> List[Arrival]:
    """The mix with seeded exponential inter-arrivals at ``rate``."""
    rng = rng_for(seed, f"serve-open-{label}")
    out: List[Arrival] = []
    t = rng.expovariate(rate)
    while t < seconds:
        arrival = _draw(rng, inputs, cold_start)
        out.append(Arrival(t, arrival.kind, arrival.index))
        cold_start += arrival.kind == "cold"
        t += rng.expovariate(rate)
    return out


def closed_sequence(seed: int, inputs: ServeInputs, label: str,
                    count: int) -> List[int]:
    rng = rng_for(seed, label)
    return [inputs.zipf(rng) for _ in range(count)]

