"""The three benchmark workloads: inputs, one pass, and its output checks.

A pass is made of service sessions and a FRED run:

* a service session drives one in-process ``ServiceServer`` with one client
  over one keep-alive connection, in a closed loop: register a fresh private
  table and its auxiliary table by CSV upload, request cold releases,
  download cached releases, run uncached attacks, append rows and fetch the
  refreshed release;
* the FRED run is ``FREDAnonymizer.run`` in-process on ``fred-linkage`` and
  ``fred-sweep`` (between two small sessions, so that every end-to-end
  metric exists on every workload), and a FRED job inside the session on
  ``service-mixed``.

Inputs come from the repository's own generators, seeded by the benchmark
seed; the program only ever sees the generated tables.
"""

from __future__ import annotations

import csv
import gc
import http.client
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import CheckFailed

from repro.core.fred import FREDAnonymizer, FREDConfig
from repro.data.faculty import FacultyConfig, generate_faculty
from repro.dataset.io import render_csv
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table
from repro.experiments.figures import default_setup
from repro.fusion.auxiliary import TableAuxiliarySource
from repro.service.core import AnonymizationService
from repro.service.http import ServiceServer

#: Seconds between polls of a FRED job, and the longest a job may take.
POLL_SECONDS = 0.025
JOB_DEADLINE_SECONDS = 120.0


#: Cold releases of a session (algorithm, k), its attacks (algorithm, k,
#: engine) and the release it fetches again after the append.
COLD_RELEASES = (("mdav", 2), ("mdav", 4), ("mdav", 8), ("mondrian", 4), ("datafly", 4))
ATTACKS = (
    ("mdav", 2, "mamdani"), ("mdav", 4, "mamdani"), ("mdav", 8, "mamdani"),
    ("mdav", 4, "sugeno"),
)
REFRESH = ("mdav", 4)


@dataclass(frozen=True)
class SessionSpec:
    """The size of one service session, and whether it runs a FRED job."""

    rows: int
    delta: int
    hits_per_batch: int
    fred_levels: tuple[int, int] | None = None

    @property
    def hits(self) -> int:
        """Cached downloads per session: a small batch after every cold
        release, every attack and the FRED job, so that they sample many
        moments of the session rather than one."""
        batches = len(COLD_RELEASES) + len(ATTACKS) + (1 if self.fred_levels else 0)
        return batches * self.hits_per_batch

    @property
    def operations(self) -> int:
        """Operations per session: uploads, releases, hits, attacks, job, append."""
        return (
            2 + len(COLD_RELEASES) + self.hits + len(ATTACKS)
            + (1 if self.fred_levels else 0) + 2
        )


@dataclass(frozen=True)
class WorkloadSpec:
    session: SessionSpec
    fred: str | None  # "linkage", "sweep" or None (the FRED job of the session)
    faculty: int = 0
    levels: tuple[int, ...] = ()
    sessions: int = 1  # per pass; with two, the FRED run sits between them

    @property
    def operations(self) -> int:
        """Operations per pass."""
        return self.sessions * self.session.operations + (1 if self.fred else 0)


WORKLOADS = {
    "fred-linkage": WorkloadSpec(
        SessionSpec(rows=1000, delta=50, hits_per_batch=6),
        fred="linkage",
        faculty=4000,
        levels=(2, 4, 8, 16, 32, 64),
        sessions=2,
    ),
    "fred-sweep": WorkloadSpec(
        SessionSpec(rows=1000, delta=50, hits_per_batch=6),
        fred="sweep",
        faculty=4000,
        levels=tuple(range(2, 17)),
        sessions=2,
    ),
    "service-mixed": WorkloadSpec(
        SessionSpec(rows=3000, delta=150, hits_per_batch=20, fred_levels=(2, 8)),
        fred=None,
    ),
}

#: Linkage (precision, recall) floors.  Approximate linkage over the simulated
#: web corpus measures 0.77-0.79 precision and 0.80-0.82 recall at 4,000
#: faculty (seeds 1-12): past 2,500 people the generator hands out
#: middle-initial names whose web variants drop the initial.  The exact-lookup
#: auxiliary table must link every name to its own row.
LINKAGE_FLOORS = {"linkage": (0.72, 0.75), "sweep": (1.0, 1.0)}


# --------------------------------------------------------------------------
# Operation accounting


class PassAborted(Exception):
    """An operation raised, so the rest of the pass cannot run."""


@dataclass
class Ops:
    """Counts a pass's operations and records why any of them failed."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def run(self, label: str, operation: Callable[[], object]) -> object:
        self.attempted += 1
        try:
            return operation()
        except CheckFailed as error:
            self.failed += 1
            self.reasons.append(f"{label}: {error}")
            return None
        except Exception as error:  # the program raised: record it, stop the pass
            self.failed += 1
            self.reasons.append(f"{label}: {type(error).__name__}: {error}")
            traceback.print_exc(file=sys.stderr)
            raise PassAborted(label) from error


# --------------------------------------------------------------------------
# Inputs


def _faculty_auxiliary(population) -> Table:
    attributes = population.auxiliary_attributes
    schema = Schema(
        [Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT)]
        + [Attribute(name, AttributeRole.QUASI_IDENTIFIER) for name in attributes]
    )
    rows = [
        {"name": p["name"], **{name: p[name] for name in attributes}}
        for p in population.profiles
    ]
    return Table.from_rows(schema, rows)


def _split_csv(text: str) -> tuple[str, list[str]]:
    """A rendered CSV as (two header lines, data lines), newlines kept."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[:2]), lines[2:]


@dataclass
class Truth:
    """The private data as the benchmark generated it, parsed with ``csv``."""

    names: list[str]
    qi: np.ndarray  # (rows, quasi-identifiers), in CSV column order
    sensitive: np.ndarray

    @classmethod
    def parse(cls, header: str, lines: list[str]) -> "Truth":
        reader = csv.reader(io.StringIO(header + "".join(lines), newline=""))
        next(reader)
        roles = [d.split(":", 1)[0] for d in next(reader)]
        (ident,) = [i for i, r in enumerate(roles) if r == "identifier"]
        (sens,) = [i for i, r in enumerate(roles) if r == "sensitive"]
        qi = [i for i, r in enumerate(roles) if r == "quasi_identifier"]
        rows = list(reader)
        return cls(
            names=[row[ident] for row in rows],
            qi=np.array([[float(row[i]) for i in qi] for row in rows]),
            sensitive=np.array([float(row[sens]) for row in rows]),
        )

    def take(self, order: list[int]) -> "Truth":
        return Truth([self.names[i] for i in order], self.qi[order], self.sensitive[order])


@dataclass
class SessionInputs:
    """Per-run session data; each session uploads a rotated, hence fresh, copy."""

    header: str
    lines: list[str]  # rows + delta private data lines
    aux_header: str
    aux_lines: list[str]
    truth: Truth
    rows: int

    @classmethod
    def generate(cls, spec: SessionSpec, seed: int) -> "SessionInputs":
        population = generate_faculty(
            FacultyConfig(count=spec.rows + spec.delta, seed=10_000 + seed)
        )
        header, lines = _split_csv(render_csv(population.private))
        aux_header, aux_lines = _split_csv(render_csv(_faculty_auxiliary(population)))
        return cls(header, lines, aux_header, aux_lines, Truth.parse(header, lines), spec.rows)

    def for_session(self, index: int) -> "SessionData":
        shift = (index * 997) % self.rows
        order = list(range(shift, self.rows)) + list(range(shift))
        base = [self.lines[i] for i in order]
        delta = self.lines[self.rows:]
        aux_shift = (index * 613) % len(self.aux_lines)
        aux = self.aux_lines[aux_shift:] + self.aux_lines[:aux_shift]
        return SessionData(
            private=(self.header + "".join(base)).encode(),
            auxiliary=(self.aux_header + "".join(aux)).encode(),
            delta=(self.header + "".join(delta)).encode(),
            truth=self.truth.take(order),
            delta_names=self.truth.names[self.rows:],
        )


@dataclass
class SessionData:
    """What one session uploads, and the truth it is checked against."""

    private: bytes
    auxiliary: bytes
    delta: bytes
    truth: Truth
    delta_names: list[str]


# --------------------------------------------------------------------------
# Server and client


class Client:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, port: int) -> None:
        self._connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.bytes_uploaded = 0

    def request(self, method: str, path: str, body: bytes | None = None,
                content_type: str = "application/json") -> bytes:
        headers = {"Content-Type": content_type} if body is not None else {}
        self._connection.request(method, path, body=body, headers=headers)
        response = self._connection.getresponse()
        payload = response.read()
        if response.status >= 300:
            raise CheckFailed(f"{method} {path} answered {response.status}: {payload[:200]!r}")
        return payload

    def upload(self, path: str, body: bytes) -> dict:
        self.bytes_uploaded += len(body)
        return json.loads(self.request("POST", path, body, "text/csv"))

    def post(self, path: str, document: dict) -> bytes:
        return self.request("POST", path, json.dumps(document).encode())

    def get(self, path: str) -> dict:
        return json.loads(self.request("GET", path))

    def close(self) -> None:
        self._connection.close()


class Server:
    """An in-process service with one job worker and a bounded spill directory.

    The memory tier holds about one pass of artifacts and the spill tier
    about one pass of spilled files, so both reach their steady size during
    the warm-up pass and a timed pass does not depend on how many passes
    came before it.  (An append decodes every spilled file to find the
    entries it invalidates, so an unbounded spill tier makes each append
    slower than the one before.)
    """

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = spill_dir
        service = AnonymizationService(
            cache_capacity=32, cache_dir=str(spill_dir), job_workers=1,
            max_spill_entries=16,
        )
        self._server = ServiceServer(("127.0.0.1", 0), service).serve_in_background()
        self.client = Client(self._server.port)

    def spill_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.spill_dir.rglob("*") if p.is_file())

    def close(self) -> None:
        self.client.close()
        self._server.close()


# --------------------------------------------------------------------------
# The service session


@dataclass
class SessionTimes:
    register_s: float = 0.0
    release_cold_s: float = 0.0
    hit_latencies: list[float] = field(default_factory=list)
    attack_s: float = 0.0
    append_refresh_s: float = 0.0
    fred_s: float = 0.0


def _check_release(body: bytes, k: int, names: list[str]) -> checks.ParsedRelease:
    parsed = checks.parse_release_csv(body)
    checks.check_identifiers(parsed.identifiers(), names)
    checks.check_k_anonymous(parsed.quasi_identifier_cells(), k)
    return parsed


def _estimate_matrix(parsed: checks.ParsedRelease, sensitive: np.ndarray) -> np.ndarray:
    return np.column_stack([parsed.quasi_identifier_matrix(), sensitive])


def run_session(server: Server, spec: SessionSpec, inputs: SessionData,
                ops: Ops, tracer=None) -> SessionTimes:
    """One closed-loop session; returns its timings, records ops and checks."""
    client = server.client
    truth = inputs.truth
    times = SessionTimes()
    n = len(truth.names)
    low = float(np.floor(truth.sensitive.min()))
    high = float(np.ceil(truth.sensitive.max()))
    private_matrix = np.column_stack([truth.qi, truth.sensitive])

    def timed(operation):
        start = time.perf_counter()
        result = operation()
        return result, time.perf_counter() - start

    # Register the private table and its auxiliary table.
    def register(body: bytes, rows: int) -> dict:
        info, seconds = timed(lambda: client.upload("/datasets", body))
        times.register_s += seconds
        if info.get("rows") != rows or not info.get("created"):
            raise CheckFailed(f"registration answered {info}")
        return info

    private = ops.run("register", lambda: register(inputs.private, n))
    auxiliary = ops.run(
        "register-aux", lambda: register(inputs.auxiliary, n + len(inputs.delta_names))
    )
    if private is None or auxiliary is None:
        raise PassAborted("registration failed")
    fp, aux_fp = private["fingerprint"], auxiliary["fingerprint"]

    # Cold releases.
    bodies: dict[tuple[str, int], bytes] = {}
    parsed_mdav: dict[int, checks.ParsedRelease] = {}

    def cold(algorithm: str, k: int) -> None:
        request = {"dataset": fp, "k": k, "algorithm": algorithm}
        body, seconds = timed(lambda: client.post("/release", request))
        times.release_cold_s += seconds
        bodies[(algorithm, k)] = body
        parsed = _check_release(body, k, truth.names)
        if algorithm == "mdav":
            parsed_mdav[k] = parsed

    # Cached downloads, a small batch after each cold release, attack and
    # the FRED job, cycling over the releases served so far.
    keys: list[tuple[str, int]] = []
    served = [0]

    def hit(key: tuple[str, int]) -> None:
        request = {"dataset": fp, "k": key[1], "algorithm": key[0]}
        start = time.perf_counter()
        body = client.post("/release", request)
        end = time.perf_counter()
        times.hit_latencies.append(end - start)
        if tracer is not None:
            tracer.add_span("client.release_hit", start, end)
        checks.check_same_body(bodies[key], body)

    def hit_batch() -> None:
        for _ in range(spec.hits_per_batch):
            key = keys[served[0] % len(keys)]
            served[0] += 1
            ops.run("release hit", lambda: hit(key))

    for algorithm, k in COLD_RELEASES:
        ops.run(f"release {algorithm} k={k}", lambda: cold(algorithm, k))
        keys = list(bodies)
        hit_batch()

    # Uncached attacks.
    after_fusion: dict[int, float] = {}

    def attack(algorithm: str, k: int, engine: str) -> None:
        request = {"dataset": fp, "auxiliary": aux_fp, "k": k,
                   "algorithm": algorithm, "engine": engine}
        raw, seconds = timed(lambda: client.post("/attack", request))
        times.attack_s += seconds
        result = json.loads(raw)
        checks.check_identifiers(result["names"], truth.names)
        checks.check_in_universe(result["estimates"], low, high)
        if result["match_rate"] != 1.0:
            raise CheckFailed(f"exact-lookup attack matched {result['match_rate']} of the names")
        if algorithm == "mdav" and engine == "mamdani" and k in parsed_mdav:
            estimate = _estimate_matrix(parsed_mdav[k], np.asarray(result["estimates"]))
            after_fusion[k] = checks.dissimilarity(private_matrix, estimate)

    for algorithm, k, engine in ATTACKS:
        ops.run(f"attack {algorithm} k={k} {engine}", lambda: attack(algorithm, k, engine))
        hit_batch()

    # The FRED job, over levels that were released above.
    if spec.fred_levels is not None:
        kmin, kmax = spec.fred_levels

        def fred_job() -> None:
            start = time.perf_counter()
            ticket = json.loads(client.post("/fred", {"dataset": fp, "auxiliary": aux_fp,
                                                      "kmin": kmin, "kmax": kmax}))
            while True:
                status = client.get(f"/jobs/{ticket['job']}")
                if status["status"] in ("done", "failed", "cancelled"):
                    break
                if time.perf_counter() - start > JOB_DEADLINE_SECONDS:
                    raise CheckFailed(f"FRED job still {status['status']} after "
                                      f"{JOB_DEADLINE_SECONDS:.0f} s")
                time.sleep(POLL_SECONDS)
            end = time.perf_counter()
            times.fred_s = end - start
            if tracer is not None:
                tracer.add_span("client.fred_job", start, end)
            if status["status"] != "done":
                raise CheckFailed(f"FRED job ended {status['status']}: {status.get('error')}")
            check_service_fred(status["result"], parsed_mdav, after_fusion,
                               private_matrix, (low, high), kmin, kmax)

        ops.run("fred job", fred_job)
        hit_batch()

    # Append rows, then fetch the refreshed release.
    algorithm, k = REFRESH
    start = time.perf_counter()

    def append() -> dict:
        info = client.upload(f"/append/{fp}", inputs.delta)
        if info.get("rows") != n + len(inputs.delta_names) or info.get("superseded") != fp:
            raise CheckFailed(f"append answered {info}")
        return info

    appended = ops.run("append", append)
    if appended is None:
        raise PassAborted("append failed")

    def refresh() -> None:
        body = client.post("/release", {"dataset": appended["fingerprint"], "k": k,
                                        "algorithm": algorithm})
        times.append_refresh_s = time.perf_counter() - start
        _check_release(body, k, truth.names + inputs.delta_names)

    ops.run("refresh", refresh)

    # Free the pass's datasets (untimed, not an operation).
    client.request("DELETE", f"/datasets/{appended['fingerprint']}")
    client.request("DELETE", f"/datasets/{aux_fp}")
    return times


def check_service_fred(result: dict, parsed_mdav: dict, after_fusion: dict,
                       private_matrix: np.ndarray, universe: tuple[float, float],
                       kmin: int, kmax: int) -> None:
    levels = [entry["level"] for entry in result["levels"]]
    if levels != list(range(kmin, kmax + 1)):
        raise CheckFailed(f"FRED job swept levels {levels}")
    by_level = {entry["level"]: entry for entry in result["levels"]}
    # The job is submitted without thresholds or weights: every level must be
    # feasible and the objective weighs protection and utility equally.
    checks.check_optimum(
        levels,
        [entry["protection_after"] for entry in result["levels"]],
        [entry["utility"] for entry in result["levels"]],
        [entry["feasible"] for entry in result["levels"]],
        result["optimal_level"],
    )
    midpoint = (universe[0] + universe[1]) / 2.0
    for k, parsed in parsed_mdav.items():
        entry = by_level.get(k)
        if entry is None:
            continue
        sizes = checks.class_sizes(parsed.quasi_identifier_cells())
        if entry["classes"] != len(sizes) or entry["minimum_class_size"] != min(sizes):
            raise CheckFailed(f"FRED level {k} classes differ from the served release")
        checks.check_utility(sizes, entry["utility"])
        before = _estimate_matrix(parsed, np.full(len(parsed.rows), midpoint))
        checks.check_dissimilarity(private_matrix, before, entry["protection_before"])
        if k in after_fusion:
            checks.check_close(f"FRED level {k} protection_after against the served attack",
                               after_fusion[k], entry["protection_after"])


# --------------------------------------------------------------------------
# In-process FRED runs


@dataclass
class FredInputs:
    fred: FREDAnonymizer
    private: Table
    truth: Truth
    owner_facts: dict[str, tuple]  # person -> facts of their own page; filled lazily
    attributes: tuple[str, ...]
    universe: tuple[float, float]
    floors: tuple[float, float]


def build_fred(spec: WorkloadSpec, seed: int) -> FredInputs:
    """Generate the population and its auxiliary source (this is set-up)."""
    setup = default_setup(count=spec.faculty, seed=seed, levels=spec.levels)
    population = setup.population
    header, lines = _split_csv(render_csv(population.private))
    truth = Truth.parse(header, lines)
    config = FREDConfig(levels=setup.levels, objective=setup.objective)
    if spec.fred == "linkage":
        source = setup.corpus
        source.linkage_index  # build the LinkageIndex now, as part of set-up
    else:
        source = TableAuxiliarySource(table=_faculty_auxiliary(population), name_column="name")
    return FredInputs(
        fred=FREDAnonymizer(source, setup.attack_config, config),
        private=population.private,
        truth=truth,
        owner_facts={},
        attributes=tuple(setup.attack_config.auxiliary_inputs),
        universe=setup.attack_config.output_universe,
        floors=LINKAGE_FLOORS[spec.fred],
    )


def _owner_facts(inputs: FredInputs) -> dict[str, tuple]:
    """Who owns which auxiliary record, read from the generated source."""
    if not inputs.owner_facts:
        source = inputs.fred.source
        names = set(inputs.truth.names)
        if isinstance(source, TableAuxiliarySource):
            owners = [str(n) for n in source.table.column("name")]
            columns = [source.table.column(a) for a in inputs.attributes]
            facts = zip(*columns)
        else:
            pages = source.pages
            owners = [page.owner for page in pages]
            facts = (tuple(page.facts.get(a) for a in inputs.attributes) for page in pages)
        inputs.owner_facts = {
            owner: tuple(float(v) for v in values)
            for owner, values in zip(owners, facts)
            if owner in names
        }
    return inputs.owner_facts


def check_fred_result(result, inputs: FredInputs) -> tuple[float, float]:
    """Check every level of a FRED result; returns linkage precision/recall."""
    truth = inputs.truth
    private_matrix = np.column_stack([truth.qi, truth.sensitive])
    qi_names = list(inputs.private.schema.quasi_identifiers)
    low, high = inputs.universe
    midpoint = np.full(len(truth.names), (low + high) / 2.0)
    for outcome in result.outcomes:
        release = outcome.anonymization.release
        checks.check_identifiers([str(n) for n in release.identifier_column()], truth.names)
        cells = list(zip(*[_cell_keys(release.column(n)) for n in qi_names]))
        sizes = checks.check_k_anonymous(cells, outcome.level)
        checks.check_utility(sizes, outcome.utility)
        checks.check_in_universe(outcome.attack.estimates, low, high)
        qi = checks.representatives(cells)
        estimate = np.column_stack([qi, outcome.attack.estimates])
        checks.check_dissimilarity(private_matrix, estimate, outcome.protection_after)
        before = np.column_stack([qi, midpoint])
        checks.check_dissimilarity(private_matrix, before, outcome.protection_before)
    checks.check_optimum(
        [o.level for o in result.outcomes],
        [o.protection_after for o in result.outcomes],
        [o.utility for o in result.outcomes],
        [o.feasible for o in result.outcomes],
        result.optimal_level,
        (result.config.objective.protection_weight, result.config.objective.utility_weight),
        (result.config.protection_threshold, result.config.utility_threshold),
    )
    harvested_table = result.outcomes[0].attack.auxiliary
    names = [str(n) for n in harvested_table.identifier_column()]
    columns = [harvested_table.column(a) for a in inputs.attributes]
    harvested = {
        name: tuple(float(v) for v in values) for name, values in zip(names, zip(*columns))
    }
    return checks.check_linkage(truth.names, harvested, _owner_facts(inputs), *inputs.floors)


def _cell_keys(cells: list) -> list:
    """Released cells as ``(low, high)`` pairs for intervals, numbers otherwise.

    A release shares one interval object per class, so each distinct object
    is read once.
    """
    memo: dict[int, object] = {}
    keys = []
    for cell in cells:
        key = memo.get(id(cell))
        if key is None:
            low = getattr(cell, "low", None)
            key = memo[id(cell)] = (float(low), float(cell.high)) if low is not None else cell
        keys.append(key)
    return keys


def run_fred(inputs: FredInputs, ops: Ops) -> float:
    """One ``FREDAnonymizer.run``; returns its seconds and checks its output."""
    gc.collect()
    start = time.perf_counter()
    outcome: dict = {}

    def run() -> None:
        outcome["result"] = inputs.fred.run(inputs.private)
        outcome["seconds"] = time.perf_counter() - start
        outcome["linkage"] = check_fred_result(outcome["result"], inputs)

    ops.run("fred run", run)
    return outcome.get("seconds", time.perf_counter() - start)
