"""Seeded inputs: table rows and SQL text.

Everything the program receives is generated here from the workload
seed with the standard library's ``random`` (string seeds hash through
SHA-512, so inputs do not depend on ``PYTHONHASHSEED``). The program's
own generators are not used, so a change to them cannot change what
the benchmark measures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DETECTORS = ("TRACKER", "ECAL", "HCAL", "MUON")
NTUPLE_VARIABLES = ("E", "PX", "PY", "PZ", "PT", "ETA", "PHI", "M")

#: Table 1 deployment (§5.2): ~80,000 rows in ~1,700 tables
NTUPLE_ROWS = 3000
RUNMETA_ROWS = 150
TOTAL_TABLES = 1700
TOTAL_ROWS = 80_000
#: tables that are not catalog filler: NTUPLE and RUNMETA twice each,
#: CALIB and CONDS once each
MAIN_TABLES = 6
EXTRA_ROWS = 32

#: the Table 1 query classes, verbatim from the paper's testbed
TABLE1 = {
    "local": "SELECT event_id, e FROM ntuple_a WHERE event_id <= 15",
    "dist_1srv": (
        "SELECT n.event_id, m.detector FROM ntuple_a n JOIN runmeta_a m "
        "ON n.run_id = m.run_id WHERE n.event_id <= 100"
    ),
    "dist_2srv": (
        "SELECT n.event_id, m.detector, o.e AS e_b, p.detector AS det_b "
        "FROM ntuple_a n JOIN runmeta_a m ON n.run_id = m.run_id "
        "JOIN ntuple_b o ON n.event_id = o.event_id "
        "JOIN runmeta_b p ON o.run_id = p.run_id "
        "WHERE n.event_id <= 100 AND o.event_id <= 100"
    ),
}
SHAPES = ("point", "range", "aggregate", "join", "distributed")


def ntuple_rows(rng: random.Random, n_events: int, n_runs: int) -> list[list]:
    """[event_id, run_id, e, px, py, pz] rows: exponential energy,
    normal momenta (the HBOOK ntuple marginals)."""
    return [
        [
            i + 1,
            (i % n_runs) + 1,
            rng.expovariate(1 / 50.0),
            rng.gauss(0.0, 20.0),
            rng.gauss(0.0, 20.0),
            rng.gauss(0.0, 20.0),
        ]
        for i in range(n_events)
    ]


def runmeta_rows(rng: random.Random, n_runs: int) -> list[list]:
    """[run_id, detector, quality] rows."""
    return [[r + 1, DETECTORS[r % 4], rng.random()] for r in range(n_runs)]


@dataclass
class TestbedData:
    """Rows for the six databases of the Table 1 deployment."""

    ntuple_a: list[list]
    runmeta_a: list[list]
    ntuple_b: list[list]
    runmeta_b: list[list]
    calib: list[list]
    conds: list[list]
    #: per database index (0..5): (table name, rows) of catalog filler
    filler: list[list[tuple[str, list[list]]]]



def testbed_data(seed: int) -> TestbedData:
    """The Table 1 testbed's rows, spread like the paper's catalog."""
    rng = random.Random(f"testbed:{seed}")
    filler_tables = TOTAL_TABLES - MAIN_TABLES
    main_rows = 2 * NTUPLE_ROWS + 2 * RUNMETA_ROWS
    rows_per_table = max(1, (TOTAL_ROWS - main_rows) // filler_tables)
    per_db = filler_tables // 6
    filler = []
    for idx in range(6):
        tables = []
        for t in range(per_db):
            rows = [
                [i + 1, f"blob-{t}-{i}", rng.uniform(0, 100)]
                for i in range(rows_per_table)
            ]
            tables.append((f"AUX{idx}_{t:04d}", rows))
        filler.append(tables)
    return TestbedData(
        ntuple_a=ntuple_rows(rng, NTUPLE_ROWS, RUNMETA_ROWS),
        runmeta_a=runmeta_rows(rng, RUNMETA_ROWS),
        ntuple_b=ntuple_rows(rng, NTUPLE_ROWS, RUNMETA_ROWS),
        runmeta_b=runmeta_rows(rng, RUNMETA_ROWS),
        calib=[[i, 1.0 + i * 0.01] for i in range(EXTRA_ROWS)],
        conds=[[i, float(i)] for i in range(EXTRA_ROWS)],
        filler=filler,
    )


@dataclass(frozen=True)
class Query:
    """One generated query; ``order`` names the sort column of a
    ``ORDER BY ... DESC LIMIT`` shape (for the tie-aware check)."""

    kind: str
    sql: str
    order: str | None = None
    limit: int | None = None


def make_query(rng: random.Random, kind: str, size: float | None = None) -> Query:
    """One query of ``kind``: a paper Table 1 class or an analysis shape.

    The five analysis shapes are those physicists submit against ntuple
    marts: point lookup, kinematic range scan, per-run aggregate, local
    join with run metadata, and a cross-server join. ``size`` in [0, 1)
    sets how much each shape asks for (range width, energy cut, join
    limit); it is drawn from ``rng`` unless given.
    """
    if kind in TABLE1:
        return Query(kind, TABLE1[kind])
    if size is None:
        size = rng.random()
    if kind == "point":
        event = rng.randint(1, NTUPLE_ROWS)
        return Query(kind, f"SELECT event_id, e, px, py FROM ntuple_a WHERE event_id = {event}")
    if kind == "range":
        width = 50 + int(size * 350)
        start = rng.randint(1, NTUPLE_ROWS - width - 1)
        return Query(
            kind,
            f"SELECT event_id, e FROM ntuple_a WHERE event_id BETWEEN {start} AND {start + width}",
        )
    if kind == "aggregate":
        cut = (0.2 + 1.8 * size) * 50.0
        return Query(
            kind,
            f"SELECT run_id, COUNT(*) AS n, AVG(e) AS mean_e FROM ntuple_a "
            f"WHERE e < {cut:.3f} GROUP BY run_id HAVING n > 0 ORDER BY n DESC LIMIT 10",
            order="n",
            limit=10,
        )
    if kind == "join":
        limit = 20 + int(size * 180)
        return Query(
            kind,
            f"SELECT n.event_id, m.detector FROM ntuple_a n JOIN runmeta_a m "
            f"ON n.run_id = m.run_id WHERE n.event_id <= {limit}",
        )
    if kind == "distributed":
        limit = 20 + int(size * 100)
        return Query(
            kind,
            f"SELECT a.event_id, a.e, b.e AS e_b FROM ntuple_a a JOIN ntuple_b b "
            f"ON a.event_id = b.event_id WHERE a.event_id <= {limit} AND b.event_id <= {limit}",
        )
    raise ValueError(f"unknown query kind {kind!r}")


# -- Figs 4-5: normalized sources for the ETL -----------------------------------

#: the paper's Figure 4 x-axis (kB staged) and the events that stage
#: that many bytes with 8 variables (fixed here, so a change to the
#: program's byte estimate cannot resize the inputs). The paper's
#: 8.217 kB point is left out: with an odd number of sizes the median
#: operation is the middle size, not a mix of two neighbouring ones.
FIG4_EVENTS = {
    0.397: 2, 4.928: 29, 9.486: 56,
    12.721: 76, 67.480: 401, 113.414: 674, 207.866: 1235,
}


@dataclass
class SourceData:
    """Rows for one normalized (EAV) source holding one run's ntuple."""

    kb: float
    runs: list[list]
    ntuples: list[list]
    variables: list[list]
    events: list[list]
    event_values: list[list]
    conditions: list[list]
    calibrations: list[list]


def source_data(seed: int, kb: float) -> SourceData:
    """A Tier-1 source whose pivoted ntuple stages ~``kb`` kilobytes."""
    rng = random.Random(f"source:{seed}:{kb}")
    n_events = FIG4_EVENTS[kb]
    run_id = 1
    variables = [
        [v + 1, 1, v, name, "GeV" if name in ("E", "PX", "PY", "PZ", "PT", "M") else ""]
        for v, name in enumerate(NTUPLE_VARIABLES)
    ]
    events, values = [], []
    for e in range(n_events):
        event_id = e + 1
        px, py = rng.gauss(0.0, 20.0), rng.gauss(0.0, 20.0)
        heavy = rng.random() < 0.1
        row = (
            rng.expovariate(1 / 50.0), px, py, rng.gauss(0.0, 20.0),
            math.hypot(px, py), rng.uniform(-2.5, 2.5), rng.uniform(-math.pi, math.pi),
            abs(rng.gauss(91.0, 2.5) if heavy else rng.gauss(0.14, 0.01)),
        )
        events.append([event_id, 1, run_id])
        values.extend([event_id, v + 1, x] for v, x in enumerate(row))
    return SourceData(
        kb=kb,
        runs=[[run_id, DETECTORS[run_id % 4], "2005-06-02T00:00:00", n_events]],
        ntuples=[[1, run_id, f"run{run_id}_ntuple", len(NTUPLE_VARIABLES)]],
        variables=variables,
        events=events,
        event_values=values,
        conditions=[
            [k + 1, run_id, ("hv_setting", "temperature", "b_field")[k], rng.gauss(1.0, 0.05)]
            for k in range(3)
        ],
        calibrations=[
            [c + 1, DETECTORS[c % 4], c, rng.gauss(1.0, 0.02), rng.gauss(0.0, 0.5)]
            for c in range(16)
        ],
    )
