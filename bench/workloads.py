"""The benchmark's workloads: fixed operation lists with hand-written verdicts.

A workload is set up by writing monoid tables (elements listed in a
seed-dependent order) and building the input complexes from them through
the CLI.  Its operations then run one after another through
``complicial.cli.main``; the two ``pi_oracle`` cross-checks, which have no
subcommand, go through the Python API.  Every operation writes one result
document, whose expected content is derived in :mod:`algebra` and checked
after the timed region.  Why each input and cap was chosen is in README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import algebra

MONOIDS = {
    "S3": lambda: algebra.symmetric(3),
    "S4": lambda: algebra.symmetric(4),
    "D4": lambda: algebra.dihedral(4),
    "Z2": lambda: algebra.cyclic(2),
    "Z3xBool": algebra.z3_bool,
}

# (monoid, cap) per role.  "smoke" keeps every operation but shrinks the
# inputs so that a whole pass takes a fraction of a second.
SIZES = {
    "full": {
        "verify": [("S3", 4), ("D4", 3), ("Z3xBool", 3)],
        "tau_th0": ("S4", 2), "tau_qcat": ("Z3xBool", 3), "tau_n2": ("Z2", 4),
        "oracle": [("S4", 2), ("S3", 3)],
        "big_nerve": ("S3", 5), "product": ("S3", 3), "verify_low": 2,
    },
    "smoke": {
        "verify": [("S3", 2), ("D4", 2), ("Z3xBool", 2)],
        "tau_th0": ("S3", 2), "tau_qcat": ("Z3xBool", 2), "tau_n2": ("Z2", 3),
        "oracle": [("S3", 2), ("Z2", 2)],
        "big_nerve": ("Z2", 3), "product": ("Z2", 2), "verify_low": 2,
    },
}

WORKLOADS = ("verify", "tau", "pipeline")


@dataclass
class Op:
    """One timed operation and how to judge it afterwards."""

    name: str
    run: Callable[[], int]          # returns the exit code
    expect_exit: int
    output: Path                    # the result document it writes
    check: Callable[[dict], list[str]]   # problems found in that document
    solver: bool = False            # a verify or tau operation


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _labels(doc: dict) -> dict:
    return doc.get("labels", {})


# -- checks -------------------------------------------------------------------

def check_complex(doc: dict, counts: list[int], thin: list[int],
                  thin_edges: set | None = None) -> list[str]:
    problems = []
    if doc.get("kind") != "complex":
        return [f"kind is {doc.get('kind')!r}, not complex"]
    got = [len(ids) for ids in doc["simplices"]]
    if got != counts:
        problems.append(f"simplex counts {got} != {counts}")
    per_dim = [0] * len(counts)
    for s in doc["thin"]:
        per_dim[int(s.split(":")[0])] += 1
    if per_dim != thin:
        problems.append(f"thin counts {per_dim} != {thin}")
    if thin_edges is not None:
        labels = _labels(doc)
        edges = {labels[s] for s in doc["thin"] if s.startswith("1:")}
        if edges != thin_edges:
            problems.append(
                f"thin edges {sorted(edges)} != {sorted(thin_edges)}")
    return problems


def check_verify(doc: dict, rows: list[tuple], bound: int) -> list[str]:
    payload = doc["payload"]
    got = [(r["family"], r["k"], r["n"], r["instances"], r["failures"])
           for r in payload["rows"]]
    problems = []
    if got != rows:
        problems.append(f"rows {got} != expected {rows}")
    if payload["passed"] != all(r[4] == 0 for r in rows):
        problems.append(f"passed is {payload['passed']}")
    if payload["checked_dims"] != bound:
        problems.append(f"checked_dims {payload['checked_dims']} != {bound}")
    return problems


def check_table(payload: dict, labels: dict, want: dict,
                audit: bool) -> list[str]:
    """Compare a monoid-table payload with the algebra, through labels."""
    name = lambda sid: labels.get(sid, sid)  # noqa: E731
    classes = [[name(s) for s in cl] for cl in payload["classes"]]
    if sorted(map(sorted, classes)) != sorted(map(sorted, want["classes"])):
        return [f"classes {classes} != {want['classes']}"]
    rep = [cl[0] for cl in classes]
    problems = []
    for i, row in enumerate(payload["table"]):
        for j, c in enumerate(row):
            if rep[c] != want["product"][(rep[i], rep[j])]:
                problems.append(f"[{rep[i]}][{rep[j]}] = {rep[c]}")
    if rep[payload["unit"]] != want["unit"]:
        problems.append(f"unit {rep[payload['unit']]} != {want['unit']}")
    if payload["is_group"] != want["is_group"]:
        problems.append(f"is_group is {payload['is_group']}")
    if payload["commutative_observed"] != want["commutative"]:
        problems.append(f"commutative is {payload['commutative_observed']}")
    invertible = {rep[int(i)] for i in payload["inverses"]}
    if invertible != want["invertible"]:
        problems.append(f"invertible {sorted(invertible)}")
    if audit and not payload.get("audit", {}).get("all_consistent"):
        problems.append("the audit is missing or inconsistent")
    return problems


# -- building a pass ----------------------------------------------------------

class Workload:
    """Inputs and operations of one workload, rooted in a work directory."""

    def __init__(self, name: str, seed: int, scale: str, work: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.work = work
        self.sizes = SIZES[scale]
        self.rng = random.Random(f"{name}:{seed}")
        self.monoids = {key: make().shuffled(self.rng)
                        for key, make in sorted(MONOIDS.items())}
        self._tables: set[str] = set()
        self._setup: list[list[str]] = []
        self.ops: list[Op] = []
        getattr(self, f"_{name}")()

    # paths ---------------------------------------------------------------

    def path(self, stem: str) -> Path:
        return self.work / f"{stem}.json"

    def _table(self, monoid: str) -> Path:
        """Schedule a monoid table for set-up; return its path."""
        self._tables.add(monoid)
        return self.path(f"m_{monoid}")

    def _input(self, kind: str, monoid: str, cap: int) -> Path:
        """Schedule a nerve (and th0) document for set-up; return its path."""
        nerve = self.path(f"nerve_{monoid}_{cap}")
        step = ["build", "nerve", "--monoid", str(self._table(monoid)),
                "--cap", str(cap), "--out", str(nerve)]
        if step not in self._setup:
            self._setup.append(step)
        if kind == "nerve":
            return nerve
        th0 = self.path(f"th0_{monoid}_{cap}")
        step = ["build", "th0", str(nerve), "--out", str(th0)]
        if step not in self._setup:
            self._setup.append(step)
        return th0

    def setup(self, cli) -> None:
        """Write the monoid tables and build every input document."""
        self.work.mkdir(parents=True, exist_ok=True)
        for key in sorted(self._tables):
            self.path(f"m_{key}").write_text(
                json.dumps(self.monoids[key].table_doc()), encoding="utf-8")
        for argv in self._setup:
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"set-up step {argv} exited with {code}")

    # operations ------------------------------------------------------------

    def _cli(self, name: str, argv: list[str], expect_exit: int,
             check: Callable[[dict], list[str]], out: Path | None = None,
             solver: bool = False) -> Path:
        out = out or self.path(f"out{len(self.ops)}")
        argv = argv + ["--out", str(out)]
        self.ops.append(Op(name, lambda: _cli().main(argv), expect_exit, out,
                           check, solver))
        return out

    def _verify_op(self, monoid: str, cap: int, bound: int,
                   src: Path | None = None) -> None:
        src = src or self._input("th0", monoid, cap)
        rows = algebra.verify_rows(self.monoids[monoid], bound)
        self._cli(f"verify th0(N {monoid}) cap {cap} bound {bound}",
                  ["verify", str(src), "--max-dim", str(bound)],
                  0 if all(r[4] == 0 for r in rows) else 2,
                  lambda doc: check_verify(doc, rows, bound), solver=True)

    def _tau_op(self, monoid: str, src: Path, n: int) -> Path:
        want = algebra.tau_expectation(self.monoids[monoid], n)
        return self._cli(
            f"tau --n {n} --audit-well-defined {src.stem}",
            ["tau", str(src), "--n", str(n), "--audit-well-defined"], 0,
            lambda doc: check_table(doc["payload"], _labels(_read(src)),
                                    want, audit=True),
            solver=True,
        )

    def _tau0_op(self, src: Path) -> None:
        def check(doc: dict) -> list[str]:
            found = len(doc["payload"]["classes"])
            return [] if found == 1 else [f"{found} classes, not 1"]
        self._cli(f"tau0 {src.stem}", ["tau0", str(src)], 0, check)

    def _oracle_op(self, monoid: str, cap: int, against: Path | None) -> None:
        """pi_oracle through the API; its table must match tau or algebra."""
        src = self._input("th0", monoid, cap)
        out = self.path(f"out{len(self.ops)}")
        want = algebra.tau_expectation(self.monoids[monoid], 1)

        def run() -> int:
            from complicial import adapters, documents
            x = documents.doc_to_complex(_read(src)).underlying
            table = adapters.pi_oracle(x, x.id_at(0, 0), 1)
            out.write_text(documents.dumps(documents.table_payload(table)),
                           encoding="utf-8")
            return 0

        def check(payload: dict) -> list[str]:
            problems = check_table(payload, _labels(_read(src)), want,
                                   audit=False)
            if against is not None:
                tau = _read(against)["payload"]
                problems += [f"{key} differs from the tau table"
                             for key in ("classes", "unit", "table")
                             if payload[key] != tau[key]]
            return problems

        self.ops.append(Op(f"pi_oracle N {monoid} cap {cap}", run, 0, out,
                           check))

    # workloads -------------------------------------------------------------

    def _verify(self) -> None:
        for monoid, cap in self.sizes["verify"]:
            self._verify_op(monoid, cap, cap)

    def _tau(self) -> None:
        s = self.sizes
        qm, qcap = s["tau_qcat"]
        m = self.monoids[qm]
        counts = algebra.nerve_counts(m, qcap)
        # thin: the degenerate edges, the other units, everything above 1
        thin = [0, algebra.degenerate_counts(m, 1)[1] + len(m.units) - 1]
        thin += counts[2:]
        qcat = self._cli(
            f"build qcat-e N {qm} cap {qcap}",
            ["build", "qcat-e", str(self._input("nerve", qm, qcap))], 0,
            lambda doc: check_complex(doc, counts, thin, set(m.units)),
            out=self.path(f"qcat_{qm}_{qcap}"),
        )
        tm, tcap = s["tau_th0"]
        th0 = self._input("th0", tm, tcap)
        tau_th0 = self._tau_op(tm, th0, 1)
        self._tau0_op(th0)
        self._tau_op(qm, qcat, 1)
        self._tau0_op(qcat)
        zm, zcap = s["tau_n2"]
        th0 = self._input("th0", zm, zcap)
        self._tau_op(zm, th0, 2)
        self._tau0_op(th0)
        for monoid, cap in s["oracle"]:
            self._oracle_op(monoid, cap,
                            tau_th0 if (monoid, cap) == (tm, tcap) else None)

    def _pipeline(self) -> None:
        s = self.sizes
        bm, bcap = s["big_nerve"]
        m = self.monoids[bm]
        counts = algebra.nerve_counts(m, bcap)
        nerve = self._cli(
            f"build nerve {bm} cap {bcap}",
            ["build", "nerve", "--monoid", str(self._table(bm)),
             "--cap", str(bcap)], 0,
            lambda doc: check_complex(doc, counts,
                                      algebra.degenerate_counts(m, bcap)),
            out=self.path(f"big_nerve_{bm}_{bcap}"),
        )
        th0 = self._cli(
            f"build th0 {bm} cap {bcap}", ["build", "th0", str(nerve)], 0,
            lambda doc: check_complex(doc, counts, [0] + counts[1:]),
            out=self.path(f"big_th0_{bm}_{bcap}"),
        )
        pm, pcap = s["product"]
        # the right factor lists the elements in a second order
        self.monoids[f"{pm}r"] = self.monoids[pm].shuffled(self.rng)
        factors = [self._input("th0", key, pcap) for key in (pm, f"{pm}r")]
        prod = [c * c for c in algebra.nerve_counts(self.monoids[pm], pcap)]
        product = self._cli(
            f"build product th0(N {pm}) cap {pcap} twice",
            ["build", "product", *map(str, factors)], 0,
            lambda doc: check_complex(doc, prod, [0] + prod[1:]),
            out=self.path(f"product_{pm}_{pcap}"),
        )
        self._tau0_op(product)
        self._verify_op(bm, bcap, s["verify_low"], src=th0)


def _cli():
    from complicial import cli
    return cli
