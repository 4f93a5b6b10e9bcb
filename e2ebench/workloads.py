"""The four seeded workloads, each a closed loop of one client.

Constructing a workload (a *session*) from a seed and a trained LiteForm
builds its inputs and its server or fleet.  The session hands out
*units*, the work of one closed-loop step (one request, one GNN epoch, or
one burst of eight cluster requests), in index order: ``prepare`` builds
a unit's inputs (untimed), ``serve`` makes the public call(s) (timed), and
``outcomes`` checks the results (untimed) and returns one
:class:`Outcome` per request.  The untimed first ``warmup_units`` pay the
first composes, as a long-running server pays them once.

Why inputs are built the way they are:

* Matrices whose structure sets the cost of a request come from a catalog
  with a fixed seed: the Zipf pools and the GNN graphs.  Popularity follows
  pool order.  The run's seed draws the request order, the operands, the
  GNN features and weights.  With ``generate_workload`` the seed also
  re-draws the pool and which matrix is hottest, and the run's p50 then
  moves about 3x from seed to seed.
* Requests are drawn in blocks whose counts follow the Zipf weights
  exactly, shuffled by the seed, so every block has the same mix.
* The compose-cold stream fixes each request's shape (family, J, rows,
  family parameters) by its index; the seed draws the realization.  Every
  matrix is distinct, so every request misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import LiteForm, generate_training_data
from repro.matrices import SuiteSparseLikeCollection
from repro.matrices.collection import PATTERNS
from repro.matrices.gnn import GNNWorkloadSpec, generate_gnn_workload, make_gnn_standin
from repro.serve import ClusterFrontend, PlanCache, SpMMServer
from repro.serve.server import OpRequest, ResponseStatus
from repro.serve.workload import zipf_weights

import oracle

#: Seed of the catalog the Zipf pools take their SuiteSparse-like matrices from.
CATALOG_SEED = 2025
#: Training set of the LiteForm models (part of the program, not an input).
TRAIN_SIZE, TRAIN_MAX_ROWS, TRAIN_SEED, TRAIN_J = 8, 4000, 3, (32, 128)


@dataclass
class Outcome:
    """What one request came back with."""

    status: ResponseStatus
    correct: bool
    #: Simulated kernel ms charged to this request (a fused launch counts once).
    modeled_ms: float
    #: Plan key the request was served under (None for graph requests).
    key: str | None = None
    problem: str = ""


def train_liteform() -> LiteForm:
    coll = SuiteSparseLikeCollection(size=TRAIN_SIZE, max_rows=TRAIN_MAX_ROWS, seed=TRAIN_SEED)
    return LiteForm().fit(generate_training_data(coll, J_values=TRAIN_J))


def zipf_quota(n: int, s: float, block: int) -> np.ndarray:
    """Per-rank request counts of one block: Zipf weights, largest remainder."""
    exact = zipf_weights(n, s) * block
    counts = np.floor(exact).astype(int)
    counts[np.argsort(exact - counts)[::-1][: block - counts.sum()]] += 1
    return counts


class ZipfStream:
    """Seeded request stream over a pool, in Zipf-exact shuffled blocks."""

    def __init__(self, pool, J_per_matrix, s: float, block: int, rng: np.random.Generator):
        self.pool = pool
        self.J = J_per_matrix
        self.rng = rng
        self._block = np.repeat(np.arange(len(pool)), zipf_quota(len(pool), s, block))
        self._picks: list[int] = []
        self._operands: dict[tuple[int, int], np.ndarray] = {}
        self._references: dict[tuple[int, int], np.ndarray] = {}

    def request(self, i: int) -> OpRequest:
        while len(self._picks) <= i:
            self._picks.extend(self.rng.permutation(self._block).tolist())
        index = self._picks[i]
        name, A = self.pool[index]
        J = self.J[index]
        key = (A.shape[1], J)
        if key not in self._operands:
            self._operands[key] = self.rng.standard_normal(key).astype(np.float32)
        return OpRequest(matrix=A, B=self._operands[key], J=J, name=f"req{i:06d}:{name}")

    def check(self, request: OpRequest, C) -> bool:
        """Compare with the reference, computed once per (matrix, operand)."""
        key = (id(request.matrix), id(request.B))
        if key not in self._references:
            self._references[key] = oracle.op_reference("spmm", request.matrix, request.B)
        return oracle.close(C, self._references[key], oracle.OP_RTOL)


def zipf_pool(size: int):
    """Pool in popularity order: the GNN stand-ins, then the catalog.

    citeseer ranks first: with cora first, the request-weighted share of
    matrices cheaper than citeseer is 49% and p50 sits on the boundary
    between two latency modes; this way it sits inside citeseer's."""
    pool = [(f"gnn:{g}", make_gnn_standin(g, seed=CATALOG_SEED)) for g in ("citeseer", "cora")]
    catalog = SuiteSparseLikeCollection(size=size - 2, max_rows=4000, seed=CATALOG_SEED)
    return pool + [(e.name, e.matrix) for e in catalog]


def _single(response, ok: bool, problem: str = "") -> Outcome:
    m = response.measurement
    return Outcome(response.status, ok, m.time_ms if m is not None else 0.0,
                   response.key, problem)


class ZipfHot:
    """One SpMMServer; Zipf s=1.1 over 8 matrices, J in {32, 64}."""

    name = "zipf-hot"
    min_units = 1250
    warmup_units = 100
    trace_chunk = 100

    def __init__(self, seed: int, liteform: LiteForm):
        pool = zipf_pool(8)
        rng = np.random.default_rng(seed)
        self.stream = ZipfStream(pool, [(32, 64)[i % 2] for i in range(8)], 1.1, 100, rng)
        self.server = SpMMServer(liteform=liteform)

    def prepare(self, i: int):
        return self.stream.request(i)

    def serve(self, request):
        return self.server.serve(request)

    def outcomes(self, request, response) -> list[Outcome]:
        ok = self.stream.check(request, response.C)
        return [_single(response, ok, "" if ok else f"{request.name}: C differs")]

    def servers(self):
        return [self.server]


class ComposeCold:
    """One SpMMServer; every request a new SuiteSparse-like pattern.

    Request ``k`` has a fixed shape: its pattern family, J and row band
    cycle with ``k``, and its row count and family parameters come from a
    generator seeded by ``(CATALOG_SEED, k)``.  The run's seed draws only the
    matrix realization.  Drawing the parameters from the run's seed too (a
    plain ``SuiteSparseLikeCollection``) moved throughput by 15% and p95 by
    22% between seeds, from which sizes happened to come up.

    The plan cache gets a 64 MiB budget: it fills within the first couple of
    hundred requests, so evictions run and peak memory does not depend on
    how many requests a run completes."""

    name = "compose-cold"
    min_units = 200
    warmup_units = 0
    trace_chunk = 12
    BANDS = ((2000, 3000), (3000, 4500), (4500, 6500), (6500, 8000))
    WIDTHS = (32, 128)
    CACHE_BYTES = 64 << 20

    def __init__(self, seed: int, liteform: LiteForm):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.operands = {
            J: rng.standard_normal((self.BANDS[-1][1], J)).astype(np.float32)
            for J in self.WIDTHS
        }
        self.server = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=self.CACHE_BYTES))

    def prepare(self, i: int):
        J = self.WIDTHS[i % 2]
        pattern = PATTERNS[(i // 2) % len(PATTERNS)]
        lo, hi = self.BANDS[(i // (2 * len(PATTERNS))) % len(self.BANDS)]
        shape_rng = np.random.default_rng((CATALOG_SEED, i))
        n = int(np.exp(shape_rng.uniform(np.log(lo), np.log(hi))))
        # The collection's own per-family generator: parameters from
        # ``shape_rng``, realization from the last argument.
        A = SuiteSparseLikeCollection._generate(pattern, n, shape_rng, 1_000_003 * self.seed + i)
        return OpRequest(matrix=A, B=self.operands[J][: A.shape[1]], J=J,
                         name=f"req{i:06d}:{pattern}-{n}")

    def serve(self, request):
        return self.server.serve(request)

    def outcomes(self, request, response) -> list[Outcome]:
        ref = oracle.op_reference("spmm", request.matrix, request.B)
        ok = oracle.close(response.C, ref, oracle.OP_RTOL)
        return [_single(response, ok, "" if ok else f"{request.name}: C differs")]

    def servers(self):
        return [self.server]


def catalog_graph(chain, dataset: str):
    """Swap the chain's adjacency for the catalog's realization of ``dataset``.

    The run's seed still draws the features and every epoch's weights.  The
    seed-drawn adjacency moved GAT epoch cost by 20% between seeds (its
    degree tail sets the revalue and kernel-stat work)."""
    drawn = chain[0].stages[0].matrix
    graph = make_gnn_standin(dataset, seed=CATALOG_SEED)
    for request in chain:
        for stage in request.stages:
            if stage.matrix is drawn:
                stage.matrix = graph
            stage.inputs = tuple(graph if x is drawn else x for x in stage.inputs)
    return chain


class GNNEpochs:
    """One SpMMServer; GAT epochs on cora mixed with GCN epochs on citeseer.

    Epochs come in blocks of 20 GAT and 10 GCN, shuffled by the seed.  With
    an even split the median would fall in the gap between the two models'
    latencies and jump from run to run.  Every GAT epoch's attention values
    are new, so each adds plan-cache entries; the 16 MiB budget makes the
    cache reach steady eviction within the warm-up."""

    name = "gnn-epochs"
    min_units = 200
    warmup_units = 30
    trace_chunk = 30
    EPOCHS = 1000
    BLOCK = (0,) * 20 + (1,) * 10
    CACHE_BYTES = 16 << 20

    def __init__(self, seed: int, liteform: LiteForm):
        self.chains = [
            catalog_graph(generate_gnn_workload(GNNWorkloadSpec(
                dataset=dataset, model=model, epochs=self.EPOCHS, seed=seed,
                deadline_ms=None)), dataset)
            for dataset, model in (("cora", "gat"), ("citeseer", "gcn"))
        ]
        self.rng = np.random.default_rng(seed)
        self._order: list[int] = []
        self._served = [0, 0]
        self.server = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=self.CACHE_BYTES))

    def prepare(self, i: int):
        """The ``i``-th epoch; units are prepared in order."""
        while len(self._order) <= i:
            self._order.extend(self.rng.permutation(self.BLOCK).tolist())
        chain = self._order[i]
        epoch = self._served[chain]
        self._served[chain] += 1
        return self.chains[chain][epoch % self.EPOCHS]

    def serve(self, graph):
        return self.server.serve_graph(graph)

    def outcomes(self, graph, response) -> list[Outcome]:
        problems = oracle.check_graph(graph, response)
        modeled = sum(r.measurement.time_ms for r in response.responses.values()
                      if r.measurement is not None)
        return [Outcome(response.status, not problems, modeled, None,
                        f"{graph.name}: " + "; ".join(problems) if problems else "")]

    def servers(self):
        return [self.server]


class ClusterBatched:
    """4 shards, hot-key replication 2, batch 8; bursts of 8 requests."""

    name = "cluster-batched"
    min_units = 128
    warmup_units = 64
    trace_chunk = 16
    BURST = 8
    MEAN_BURST_GAP_MS = 8.0

    def __init__(self, seed: int, liteform: LiteForm, spill_dir: Path):
        pool = zipf_pool(32)
        rng = np.random.default_rng(seed)
        self.stream = ZipfStream(pool, [(32, 64)[i % 2] for i in range(32)], 0.9, 256, rng)
        self._arrival_rng = np.random.default_rng((seed, 0xA221))
        self._clock_ms = 0.0
        self.frontend = ClusterFrontend(
            liteform, num_shards=4, replication=2, batch=self.BURST,
            spill_dir=spill_dir, seed=seed)

    def prepare(self, i: int):
        self._clock_ms += float(self._arrival_rng.exponential(self.MEAN_BURST_GAP_MS))
        burst = [self.stream.request(i * self.BURST + k) for k in range(self.BURST)]
        for request in burst:
            request.arrival_ms = self._clock_ms
        return burst

    def serve(self, burst):
        for request in burst:
            self.frontend.submit(request)
        return self.frontend.drain()

    def outcomes(self, burst, responses) -> list[Outcome]:
        out, launches = [], set()
        for request, response in zip(burst, responses):
            ok = self.stream.check(request, response.C)
            m = response.measurement
            fresh = m is not None and id(m) not in launches
            if fresh:
                launches.add(id(m))
            out.append(Outcome(response.status, ok, m.time_ms if fresh else 0.0,
                               response.key, "" if ok else f"{request.name}: C differs"))
        return out

    def servers(self):
        # Counters for reconciliation only; the requests go through the
        # frontend's public surface.
        return [shard.server for shard in self.frontend._shards.values()]

    def schedulers(self):
        return [s.scheduler for s in self.frontend._shards.values() if s.scheduler]


WORKLOADS = {w.name: w for w in (ZipfHot, ComposeCold, GNNEpochs, ClusterBatched)}
