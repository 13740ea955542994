"""The four workloads: the world each builds, the operations it runs and
how each answer is checked.

A workload is built from its seed. ``setup`` builds the world the
operations run against (this is what ``setup_s`` times); ``passes``
yields the operation stream one pass at a time (a pass holds every
operation kind in fixed proportion, so whole passes keep the mix
exact); ``execute`` runs one operation and ``check`` judges its
outcome. ``fidelity`` compares the first pass's simulated times with
the paper's figures.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

from fedbench import datagen
from fedbench.oracle import Oracle

#: the tolerance the repo's paper benchmarks use
PAPER_TOLERANCE = 0.25
TABLE1_PAPER_MS = {"local": 38.0, "dist_1srv": 487.5, "dist_2srv": 594.0}
FIG6_ROWS = (21, 51, 301, 451, 700, 801, 901, 1701, 1751, 2251, 2451, 2551)
FIG6_PAPER_MS = {21: 300.0, 2551: 700.0}
MART_VENDORS = ("mysql", "mssql", "oracle", "sqlite")
NVAR = len(datagen.NTUPLE_VARIABLES)
#: fractional part of the golden ratio: k * GOLDEN mod 1 spreads evenly
GOLDEN = 0.6180339887498949

#: layers every query workload runs through (on warm_session only the
#: cache misses reach parse, decompose and the router)
QUERY_LAYERS = {
    "sql.parse", "unity.decompose", "unity.execute_plan", "engine.executor",
    "core.router", "clarens.dispatch", "clarens.codec", "engine.row_bytes",
}
CACHE_OBS_LAYERS = {"cache.lookup", "cache.store", "obs.profiler", "obs.archive"}
ETL_LAYERS = {"warehouse.etl", "marts.replicate"}


@dataclass
class Outcome:
    """What one operation delivered."""

    rows: list
    sim_ms: float
    #: rows delivered to the client, or landed in warehouse and marts
    row_count: int
    detail: object = None


def within(measured: float, paper: float) -> bool:
    return abs(measured - paper) <= PAPER_TOLERANCE * paper


# -- the Table 1 testbed ------------------------------------------------------


@dataclass
class Testbed:
    federation: object
    server1: object
    server2: object
    client: object

    def services(self):
        return [self.server1.service, self.server2.service]


def build_testbed(data: datagen.TestbedData, cache: bool = False, observe: bool = False) -> Testbed:
    """Two JClarens servers on a LAN, six databases shared between MySQL
    and MS SQL Server, ~80,000 rows in ~1,700 tables (§5.2)."""
    from repro.core.federation import GridFederation
    from repro.engine.database import Database

    fed = GridFederation()
    s1 = fed.create_server("jclarens1", "pc1.caltech.edu", cache=cache, observe=observe)
    s2 = fed.create_server("jclarens2", "pc2.caltech.edu", cache=cache, observe=observe)

    def ntuple_db(name, rows):
        db = Database(name, "mysql")
        db.execute(
            "CREATE TABLE NTUPLE (EVENT_ID INT PRIMARY KEY, RUN_ID INT, "
            "E DOUBLE, PX DOUBLE, PY DOUBLE, PZ DOUBLE)"
        )
        db.bulk_insert("NTUPLE", rows)
        return db

    def runmeta_db(name, rows):
        db = Database(name, "mssql")
        db.execute(
            "CREATE TABLE RUNMETA (RUN_ID INT PRIMARY KEY, DETECTOR NVARCHAR(20), "
            "QUALITY DOUBLE)"
        )
        db.bulk_insert("RUNMETA", rows)
        return db

    calib = Database("extra_db_a", "mysql")
    calib.execute("CREATE TABLE CALIB (CH INT PRIMARY KEY, GAIN DOUBLE)")
    calib.bulk_insert("CALIB", data.calib)
    conds = Database("extra_db_b", "mssql")
    conds.execute("CREATE TABLE CONDS (K INT PRIMARY KEY, V DOUBLE)")
    conds.bulk_insert("CONDS", data.conds)
    dbs = [
        (ntuple_db("ntuple_db_a", data.ntuple_a), s1, {"NTUPLE": "ntuple_a"}),
        (runmeta_db("runmeta_db_a", data.runmeta_a), s1, {"RUNMETA": "runmeta_a"}),
        (calib, s1, {"CALIB": "calib_a"}),
        (ntuple_db("ntuple_db_b", data.ntuple_b), s2, {"NTUPLE": "ntuple_b"}),
        (runmeta_db("runmeta_db_b", data.runmeta_b), s2, {"RUNMETA": "runmeta_b"}),
        (conds, s2, {"CONDS": "conds_b"}),
    ]
    for (db, _, _), tables in zip(dbs, data.filler):
        for name, rows in tables:
            db.execute(
                f"CREATE TABLE {name} (ID INT PRIMARY KEY, PAYLOAD VARCHAR(32), VAL DOUBLE)"
            )
            db.bulk_insert(name, rows)
    for db, server, names in dbs:
        fed.attach_database(server, db, logical_names=names)
    return Testbed(fed, s1, s2, fed.client("client.cern.ch"))


class QueryWorkloadBase:
    """Shared by the workloads that query the Table 1 testbed."""

    cache = False
    observe = False
    setups = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.data = datagen.testbed_data(seed)
        self.oracle = Oracle({
            "ntuple_a": (["event_id", "run_id", "e", "px", "py", "pz"], self.data.ntuple_a),
            "ntuple_b": (["event_id", "run_id", "e", "px", "py", "pz"], self.data.ntuple_b),
            "runmeta_a": (["run_id", "detector", "quality"], self.data.runmeta_a),
            "runmeta_b": (["run_id", "detector", "quality"], self.data.runmeta_b),
        })

    def setup(self) -> Testbed:
        return build_testbed(self.data, cache=self.cache, observe=self.observe)

    def execute(self, world: Testbed, query) -> Outcome:
        outcome = world.federation.query(world.client, world.server1, query.sql)
        rows = outcome.answer.rows
        return Outcome(rows, outcome.response_ms, len(rows))

    def check(self, world, query, outcome: Outcome) -> str | None:
        return self.oracle.check(query, outcome.rows)

    def counters(self, world: Testbed) -> dict[str, float]:
        out = {"net.bytes": world.federation.network.bytes_moved}
        for service in world.services():
            if service.cache is not None:
                stats = service.cache.stats()
                for level in ("plan", "sub", "remote"):
                    for key in ("hits", "misses"):
                        name = f"cache.{level}.{key}"
                        out[name] = out.get(name, 0) + stats[level][key]
                out["cache.evictions"] = out.get("cache.evictions", 0) + stats["evictions"]
            if service.tracer is not None:
                out["obs.spans"] = out.get("obs.spans", 0) + len(service.tracer.spans)
        return out

    def close(self) -> None:
        self.oracle.close()


class QueryMix(QueryWorkloadBase):
    """Cold read path: the Table 1 queries plus five analysis shapes."""

    name = "query_mix"
    tail_pct = 99.0
    elasticity = 0.5
    sim_passes = 10
    per_shape = 2
    expect_active = QUERY_LAYERS | {"unity.merge", "poolral.execute", "rls.lookup",
                                    "driver.connect", "engine.storage.append"}
    expect_zero = CACHE_OBS_LAYERS | ETL_LAYERS

    def passes(self):
        rng = random.Random(f"query_mix:{self.seed}")
        while True:
            ops = [datagen.make_query(rng, kind) for kind in datagen.TABLE1]
            ops += [
                datagen.make_query(rng, kind)
                for kind in datagen.SHAPES
                for _ in range(self.per_shape)
            ]
            rng.shuffle(ops)
            yield ops

    def fidelity(self, first_pass) -> list[str]:
        out = []
        for query, outcome in first_pass:
            paper = TABLE1_PAPER_MS.get(query.kind)
            if paper is not None and outcome is not None and not within(outcome.sim_ms, paper):
                out.append(f"Table 1 {query.kind}: {outcome.sim_ms:.1f} ms, paper {paper} ms")
        return out


class WarmSession(QueryWorkloadBase):
    """Cache and telemetry on; Zipf-skewed repeats over a pool of distinct
    queries larger than the plan cache (256 entries)."""

    name = "warm_session"
    tail_pct = 99.0
    elasticity = 0.8
    sim_passes = 50
    cache = True
    observe = True
    pool_per_shape = 80
    table1_ranks = (4, 40, 160)
    zipf_s = 1.1
    pass_ops = 40
    warmup_ops = 200
    expect_active = QUERY_LAYERS | CACHE_OBS_LAYERS
    expect_zero = ETL_LAYERS

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"warm_session:pool:{seed}")
        # Popularity rank r goes to shape r mod 5, each shape's k-th query
        # has a fixed size (an even spread over [0, 1)), and the Table 1
        # queries sit at fixed ranks: every seed has the same mix of
        # shapes and sizes at every popularity level. The seed picks the
        # rows, the point lookups' events and the ranges' positions.
        seen: set[str] = set()
        tries = dict.fromkeys(datagen.SHAPES, 0)
        pool = []
        while len(pool) < self.pool_per_shape * len(datagen.SHAPES):
            shape = datagen.SHAPES[len(pool) % len(datagen.SHAPES)]
            query = datagen.make_query(rng, shape, size=(tries[shape] * GOLDEN) % 1.0)
            tries[shape] += 1
            if query.sql not in seen:
                seen.add(query.sql)
                pool.append(query)
        for rank, kind in zip(self.table1_ranks, datagen.TABLE1):
            pool.insert(rank, datagen.make_query(rng, kind))
        self.pool = pool
        self.weights = [1.0 / (rank + 1) ** self.zipf_s for rank in range(len(pool))]

    def setup(self) -> Testbed:
        world = super().setup()
        # every Table 1 query and shape once first, so RLS discovery (which
        # flushes the plan cache) is over before the measured stream
        warmup = [q for q in self.pool if q.kind in datagen.TABLE1]
        warmup += [next(q for q in self.pool if q.kind == shape) for shape in datagen.SHAPES]
        rng = random.Random(f"warm_session:warmup:{self.seed}")
        warmup += rng.choices(self.pool, self.weights, k=self.warmup_ops)
        for query in warmup:
            world.federation.query(world.client, world.server1, query.sql)
        return world

    def passes(self):
        # stratified Zipf draws: one draw from each of pass_ops equal
        # slices of the popularity distribution, at a random offset per
        # pass, so every pass has the same share of head and tail
        rng = random.Random(f"warm_session:run:{self.seed}")
        cdf = list(itertools.accumulate(self.weights))
        while True:
            offset = rng.random()
            ops = [
                self.pool[min(bisect.bisect(cdf, cdf[-1] * (j + offset) / self.pass_ops),
                              len(self.pool) - 1)]
                for j in range(self.pass_ops)
            ]
            rng.shuffle(ops)
            yield ops

    def fidelity(self, first_pass) -> list[str]:
        return []


# -- the Figure 6 world ---------------------------------------------------------


@dataclass
class Fig6World:
    federation: object
    server: object
    client: object


class RowSweep:
    """One JDBC-forced ntuple database; the paper's 21..2,551-row queries."""

    name = "row_sweep"
    tail_pct = 95.0
    elasticity = 1.0
    sim_passes = 3
    setups = 15
    expect_active = QUERY_LAYERS | {"driver.connect"}
    expect_zero = CACHE_OBS_LAYERS | ETL_LAYERS | {"unity.merge", "poolral.execute", "rls.lookup"}

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"row_sweep:{seed}")
        self.rows = datagen.ntuple_rows(rng, datagen.NTUPLE_ROWS, datagen.RUNMETA_ROWS)

    def setup(self) -> Fig6World:
        from repro.core.federation import GridFederation
        from repro.engine.database import Database

        fed = GridFederation()
        # the prototype served ntuple queries through the Unity/JDBC path
        server = fed.create_server("jclarens1", "pc1.caltech.edu", force_jdbc=True)
        db = Database("ntuple_db", "mysql")
        db.execute(
            "CREATE TABLE NTUPLE (EVENT_ID INT PRIMARY KEY, RUN_ID INT, "
            "E DOUBLE, PX DOUBLE, PY DOUBLE, PZ DOUBLE)"
        )
        db.bulk_insert("NTUPLE", self.rows)
        fed.attach_database(server, db, logical_names={"NTUPLE": "ntuple"})
        return Fig6World(fed, server, fed.client("client.cern.ch"))

    def passes(self):
        rng = random.Random(f"row_sweep:order:{self.seed}")
        while True:
            counts = list(FIG6_ROWS)
            rng.shuffle(counts)
            yield counts

    def execute(self, world: Fig6World, n_rows: int) -> Outcome:
        outcome = world.federation.query(
            world.client, world.server,
            f"SELECT event_id, e, px, py FROM ntuple WHERE event_id <= {n_rows}",
        )
        rows = outcome.answer.rows
        return Outcome(rows, outcome.response_ms, len(rows))

    def check(self, world, n_rows: int, outcome: Outcome) -> str | None:
        if len(outcome.rows) != n_rows:
            return f"{len(outcome.rows)} rows for a {n_rows}-row query"
        if any(len(r) != 4 for r in outcome.rows):
            return "rows do not have 4 columns"
        return None

    def fidelity(self, first_pass) -> list[str]:
        out = []
        for n_rows, outcome in first_pass:
            paper = FIG6_PAPER_MS.get(n_rows)
            if paper is not None and outcome is not None and not within(outcome.sim_ms, paper):
                out.append(f"Fig 6 {n_rows} rows: {outcome.sim_ms:.1f} ms, paper {paper} ms")
        return out

    def counters(self, world: Fig6World) -> dict[str, float]:
        return {"net.bytes": world.federation.network.bytes_moved}

    def close(self) -> None:
        pass


# -- Figures 4-5: ETL into the warehouse, then the marts -------------------------


@dataclass(frozen=True)
class EtlJob:
    """One ETL job: the staged load of one Figure 4 size into a fresh
    warehouse, or the materialization of its ``v_event_wide`` into one
    vendor's mart."""

    kb: float
    mart: str | None = None


class EtlMarts:
    """Staged ETL source -> warehouse at the Figure 4 sizes, then
    ``v_event_wide`` materialized into four vendor marts (Figure 5).

    Each job is one operation: per size, the warehouse load and then the
    four mart loads, in that order; sizes are shuffled per pass.
    """

    name = "etl_marts"
    tail_pct = 95.0
    elasticity = 0.6
    sim_passes = 3
    setups = 9
    expect_active = ETL_LAYERS | {"engine.executor", "engine.storage.insert", "engine.row_bytes"}
    expect_zero = CACHE_OBS_LAYERS | {"sql.parse", "core.router", "clarens.dispatch",
                                      "clarens.codec", "unity.merge"}
    #: Figure 4/5 checks (the repo's paper benchmarks use the same bounds)
    FIG4_POINT = 207.866
    FIG4_PAPER_S = {"extraction": 5.5, "loading": 17.0}
    FIG4_TOLERANCE = 0.30
    FIG5_POINT = 67.480
    FIG5_LOADING_S = (40.0, 120.0)

    def __init__(self, seed: int):
        self.seed = seed
        self.sources = [datagen.source_data(seed, kb) for kb in datagen.FIG4_EVENTS]
        self.net_bytes = 0
        #: the warehouse the mart jobs of the current size read from
        self._warehouse = None
        self._job = None

    def setup(self) -> dict:
        """The normalized Tier-1 sources, one per Figure 4 size."""
        from repro.engine.database import Database
        from repro.hep.schema import create_source_schema

        out = {}
        for src in self.sources:
            db = Database("tier1_source", "oracle")
            create_source_schema(db)
            for table in ("runs", "ntuples", "variables", "events", "event_values",
                          "conditions", "calibrations"):
                db.bulk_insert(table, getattr(src, table))
            out[src.kb] = db
        return out

    def passes(self):
        rng = random.Random(f"etl_marts:order:{self.seed}")
        while True:
            sizes = list(datagen.FIG4_EVENTS)
            rng.shuffle(sizes)
            yield [
                job
                for kb in sizes
                for job in [EtlJob(kb)] + [EtlJob(kb, vendor) for vendor in MART_VENDORS]
            ]

    def execute(self, sources: dict, job: EtlJob) -> Outcome:
        from repro.engine.database import Database
        from repro.hep.workload import etl_jobs_for_source
        from repro.marts.materialize import MartSet
        from repro.net.network import Network
        from repro.net.simclock import SimClock
        from repro.warehouse.warehouse import Warehouse

        if job.mart is None:
            network = Network()
            network.add_host("tier1.cern.ch", 1)
            self._warehouse = Warehouse(network, SimClock(), nvar=NVAR)
            self._job = etl_jobs_for_source(sources[job.kb], "tier1.cern.ch", NVAR)[0]
            net0, sim0 = 0, 0.0
            report = self._warehouse.load(self._job)
            detail = report
        else:
            net0 = self._warehouse.network.bytes_moved
            sim0 = self._warehouse.clock.now_ms
            marts = MartSet(self._warehouse)
            mart = Database(f"mart_{job.mart}", job.mart)
            marts.add_mart(mart, f"mart{MART_VENDORS.index(job.mart)}.caltech.edu")
            (report,) = marts.replicate(["v_event_wide"])
            detail = (report, mart)
        self.net_bytes += self._warehouse.network.bytes_moved - net0
        return Outcome([], self._warehouse.clock.now_ms - sim0, report.rows, detail)

    def check(self, sources, job: EtlJob, outcome: Outcome) -> str | None:
        expected = datagen.FIG4_EVENTS[job.kb]
        if job.mart is None:
            if outcome.row_count != expected:
                return f"warehouse loaded {outcome.row_count} rows, expected {expected}"
            verification = self._warehouse.pipeline.verify(self._job)
            if not verification.ok:
                return f"ETL verify failed: {verification.failures()}"
            return None
        # every mart must hold exactly the warehouse view, so the four
        # vendor marts hold identical rows
        _, mart = outcome.detail
        view = sorted(self._warehouse.db.resolve_table("v_event_wide")[1])
        if len(view) != expected:
            return f"warehouse view holds {len(view)} rows, expected {expected}"
        if sorted(mart.resolve_table("v_event_wide")[1]) != view:
            return f"mart {mart.name} differs from the warehouse view ({job.kb} kB)"
        return None

    def fidelity(self, first_pass) -> list[str]:
        out = []
        mart_loading = 0.0
        for job, outcome in first_pass:
            if outcome is None or job.kb not in (self.FIG4_POINT, self.FIG5_POINT):
                continue
            if job.mart is None and job.kb == self.FIG4_POINT:
                rep = outcome.detail
                for phase, seconds in (("extraction", rep.extraction_s), ("loading", rep.loading_s)):
                    paper = self.FIG4_PAPER_S[phase]
                    if abs(seconds - paper) > self.FIG4_TOLERANCE * paper:
                        out.append(f"Fig 4 {job.kb} kB {phase}: {seconds:.2f} s, paper ~{paper} s")
            if job.mart is not None and job.kb == self.FIG5_POINT:
                mart_loading += outcome.detail[0].loading_s
        low, high = self.FIG5_LOADING_S
        if not low < mart_loading < high:
            out.append(f"Fig 5 {self.FIG5_POINT} kB mart loading: {mart_loading:.1f} s, "
                       f"paper {low}-{high} s")
        return out

    def counters(self, world) -> dict[str, float]:
        return {"net.bytes": self.net_bytes}

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (QueryMix, RowSweep, WarmSession, EtlMarts)}
