"""Dataset, request streams and expected answers for the benchmark.

Everything here is plain Python: nothing imports ``repro``, so the
expected answers are an independent oracle for what the server replies.

The *shape* of the bibliographic graph (who wrote what, who cites whom)
comes from the constant ``SHAPE_SEED``; ``--seed`` chooses the labels
(which ``pN`` / ``aN`` / ``vN`` each node gets), the order rows are
loaded in and every request stream.  Two seeds therefore send different
bytes but ask for the same amount of work, which is what lets runs with
different seeds be compared within a few percent.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Set, Tuple

SHAPE_SEED = 1991

CLUSTER_SIZE = 100   # papers per topic cluster; citations stay inside one
CITE_WINDOW = 12     # a paper cites only the next CITE_WINDOW papers of its cluster
CITE_OUT = 2         # citation draws per paper (duplicates collapse)
HOT_AUTHORS = 64     # existing authors the write stream keeps attaching papers to

BATCH_ROWS = 250     # rows per `facts` request in ingest_recover
LOAD_BATCH_ROWS = 2000  # rows per `facts` request in the set-up bulk load


@dataclass(frozen=True)
class Scale:
    papers: int
    authors: int
    venues: int
    clusters: int
    # ingest_recover, per cycle: autocommit batches, then transactions of
    # txn_batches batches each; after the checkpoint, more transactions and
    # more autocommit batches, which recovery has to replay from the log.
    # Autocommit batches are few because each of their rows costs one fsync,
    # and the device's fsync time drifts by more than the metrics' bounds.
    auto_batches: int
    txns: int
    txn_batches: int
    tail_txns: int
    tail_batches: int


SCALES = {
    "full": Scale(papers=10000, authors=4000, venues=100, clusters=20,
                  auto_batches=4, txns=5, txn_batches=10, tail_txns=1, tail_batches=2),
    "smoke": Scale(papers=1500, authors=600, venues=15, clusters=3,
                   auto_batches=2, txns=1, txn_batches=3, tail_txns=1, tail_batches=1),
}

Row = Tuple


class Dataset:
    """The generated facts plus, for every query the workloads send, the
    answer a correct server must give."""

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.scale_name = scale
        self.scale = s = SCALES[scale]
        shape = random.Random(SHAPE_SEED)
        labels = random.Random(f"labels/{seed}")

        def relabel(prefix: str, count: int) -> List[str]:
            ids = list(range(count))
            labels.shuffle(ids)
            return [f"{prefix}{i}" for i in ids]

        paper_label = relabel("p", s.papers)
        author_label = relabel("a", s.authors)
        venue_label = relabel("v", s.venues)

        self.paper: List[Row] = []
        self.wrote: List[Row] = []
        self.cites: List[Row] = []
        self.paper_row: Dict[str, Row] = {}
        self.authors_of: Dict[str, Set[str]] = {}
        self.coauthors: Dict[str, Set[str]] = {a: set() for a in author_label}
        for i in range(s.papers):
            p = paper_label[i]
            row = (p, venue_label[shape.randrange(s.venues)], 1990 + shape.randrange(30))
            self.paper.append(row)
            self.paper_row[p] = row
            authors = {author_label[shape.randrange(s.authors)]
                       for _ in range(shape.choice((2, 2, 3, 3)))}
            self.authors_of[p] = authors
            for a in sorted(authors):
                self.wrote.append((a, p))
                self.coauthors[a] |= authors - {a}

        # Forward-window DAGs: within a cluster, paper i cites papers in
        # i+1 .. i+CITE_WINDOW only, so the closure stays inside the cluster.
        succ: Dict[str, Set[str]] = {}
        for c in range(s.clusters):
            base = c * CLUSTER_SIZE
            for i in range(CLUSTER_SIZE):
                for _ in range(CITE_OUT):
                    j = i + 1 + shape.randrange(CITE_WINDOW)
                    if j < CLUSTER_SIZE:
                        succ.setdefault(paper_label[base + i], set()).add(paper_label[base + j])
        self.reach: Dict[str, Set[str]] = {}
        for index in reversed(range(s.clusters * CLUSTER_SIZE)):
            p = paper_label[index]
            if p in succ:
                out = set(succ[p])
                for q in succ[p]:
                    out |= self.reach.get(q, set())
                self.reach[p] = out
                self.cites.extend((p, q) for q in sorted(succ[p]))
        # Sources for bound `reach` queries: never an empty answer.
        self.sources: List[str] = sorted(self.reach)
        self.hot_authors: List[str] = author_label[:HOT_AUTHORS]
        self.author_label = author_label
        self.paper_label = paper_label

        order = random.Random(f"order/{seed}")
        for rows in (self.paper, self.wrote, self.cites):
            order.shuffle(rows)

    # ------------------------------------------------------------------ #
    # sizes
    # ------------------------------------------------------------------ #

    def relations(self) -> List[Tuple[str, List[Row]]]:
        return [("paper", self.paper), ("wrote", self.wrote), ("cites", self.cites)]

    def sizes(self) -> dict:
        return {
            "scale": self.scale_name,
            "paper": len(self.paper),
            "wrote": len(self.wrote),
            "cites": len(self.cites),
            "authors": self.scale.authors,
            "venues": self.scale.venues,
            "coauthor": sum(len(v) for v in self.coauthors.values()),
            "reach": sum(len(v) for v in self.reach.values()),
        }

    # ------------------------------------------------------------------ #
    # expected answers (rows as the client's `values` tuples)
    # ------------------------------------------------------------------ #

    def expect_paper(self, p: str) -> Set[Row]:
        return {self.paper_row[p]}

    def expect_wrote(self, p: str) -> Set[Row]:
        return {(a, p) for a in self.authors_of[p]}

    def expect_coauthor(self, a: str) -> Set[Row]:
        return {(a, b) for b in self.coauthors.get(a, ())}

    def expect_reach(self, p: str) -> Set[Row]:
        return {(p, q) for q in self.reach[p]}

    def expect_closure(self) -> Set[Row]:
        return {(p, q) for p, out in self.reach.items() for q in out}

    def expect_coauthor_all(self) -> Set[Row]:
        return {(a, b) for a, partners in self.coauthors.items() for b in partners}

    def expect_report(self) -> Set[Row]:
        papers = Counter(row[1] for row in self.paper)
        authorships = Counter()
        for p, authors in self.authors_of.items():
            authorships[self.paper_row[p][1]] += len(authors)
        return {(v, n, authorships[v]) for v, n in papers.items()}

    def expect_uncited(self) -> Set[Row]:
        cited = {q for _p, q in self.cites}
        return {(p,) for p in self.paper_row if p not in cited}

    # ------------------------------------------------------------------ #
    # request streams (endless; a run consumes a prefix)
    # ------------------------------------------------------------------ #

    def _rng(self, name: str) -> random.Random:
        return random.Random(f"{name}/{self.seed}")

    def pages(self, client: int) -> Iterator[Tuple[str, str]]:
        """point_reads: the (paper, author) a page shows."""
        rng = self._rng(f"pages/{client}")
        while True:
            yield rng.choice(self.paper_label), rng.choice(self.author_label)

    def reach_sources(self, kind: str) -> Iterator[str]:
        """analytic_magic, analytic_closure: the bound paper of each op."""
        rng = self._rng(f"reach/{kind}")
        while True:
            yield rng.choice(self.sources)

    def read_authors(self) -> Iterator[str]:
        """mixed_rw reader: half the reads hit authors the writer touches."""
        rng = self._rng("reads")
        while True:
            pool = self.hot_authors if rng.random() < 0.5 else self.author_label
            yield rng.choice(pool)

    def write_txns(self, count: int) -> List["WriteTxn"]:
        """mixed_rw writer: ``count`` transactions of 5 `wrote` + 2 `paper`
        rows.  Papers and two authors per transaction are fresh ids, so
        every commit adds rows to ``coauthor``.  Does not touch ``self``:
        the growing coauthor state lives in the returned transactions."""
        rng = self._rng("writes")
        s = self.scale
        current = {a: set(self.coauthors[a]) for a in self.hot_authors}
        txns = []
        for k in range(count):
            q1, q2 = f"p{s.papers + 2 * k}", f"p{s.papers + 2 * k + 1}"
            f1, f2 = f"a{s.authors + 2 * k}", f"a{s.authors + 2 * k + 1}"
            x1, x2 = rng.sample(self.hot_authors, 2)
            x3 = rng.choice(self.hot_authors)
            venue = self.paper[0][1]
            delta: Set[Row] = set()
            for group in ({f1, x1, x2}, {f2, x3}):
                for a in group:
                    for b in group - {a}:
                        if a in current and b in current[a]:
                            continue
                        delta.add((a, b))
                        if a in current:
                            current[a].add(b)
            txns.append(WriteTxn(
                index=k,
                wrote=[(f1, q1), (x1, q1), (x2, q1), (f2, q2), (x3, q2)],
                paper=[(q1, venue, 2020), (q2, venue, 2021)],
                coauthor_delta=delta,
            ))
        return txns

    def ingest_cycle(self, cycle: int) -> "IngestPlan":
        """ingest_recover: the batches of one fresh-directory cycle."""
        s = self.scale

        def batches(rows: List[Row], count: int) -> List[List[Row]]:
            start = (cycle * count * BATCH_ROWS) % max(1, len(rows) - count * BATCH_ROWS)
            return [rows[start + i * BATCH_ROWS: start + (i + 1) * BATCH_ROWS]
                    for i in range(count)]

        wrote = batches(self.wrote, (s.txns + s.tail_txns) * s.txn_batches)
        txns = [[("wrote", b) for b in wrote[t * s.txn_batches:(t + 1) * s.txn_batches]]
                for t in range(s.txns + s.tail_txns)]
        return IngestPlan(
            auto=[("paper", b) for b in batches(self.paper, s.auto_batches)],
            txns=txns[:s.txns],
            tail_txns=txns[s.txns:],
            tail=[("cites", b) for b in batches(self.cites, s.tail_batches)],
        )

    # ------------------------------------------------------------------ #

    def stream_digest(self, workload: str, prefix: int = 256) -> str:
        """sha256 of the first ``prefix`` requests of a workload's streams,
        the bulk load included: the same seed must reproduce it, another
        seed must not."""
        if workload == "point_reads":
            parts = [list(islice(self.pages(c), prefix)) for c in (0, 1)]
        elif workload in ("analytic_magic", "analytic_closure"):
            parts = [list(islice(self.reach_sources(workload[len("analytic_"):]), prefix))]
        elif workload in ("analytic_report", "analytic_export"):
            parts = []          # one constant request; only the load differs
        elif workload == "mixed_rw":
            parts = [list(islice(self.read_authors(), prefix)),
                     [(t.wrote, t.paper) for t in self.write_txns(16)]]
        elif workload == "ingest_recover":
            plan = self.ingest_cycle(0)
            parts = [plan.auto, plan.txns, plan.tail_txns, plan.tail]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        if workload != "ingest_recover":
            parts.append([rows[:prefix] for _name, rows in self.relations()])
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


@dataclass
class WriteTxn:
    index: int
    wrote: List[Row]
    paper: List[Row]
    coauthor_delta: Set[Row]   # rows this commit adds to coauthor/2


@dataclass
class IngestPlan:
    auto: List[Tuple[str, List[Row]]]
    txns: List[List[Tuple[str, List[Row]]]]
    tail_txns: List[List[Tuple[str, List[Row]]]]    # after the checkpoint
    tail: List[Tuple[str, List[Row]]]               # after the checkpoint


class WriteHistory:
    """What ``coauthor(a, B)?`` may answer while ``txns`` are committing.

    A read that was sent after ``lo`` commits were acknowledged and answered
    before more than ``hi`` were sent must equal the state after exactly k
    commits, for some ``lo <= k <= hi``.
    """

    def __init__(self, dataset: Dataset, txns: List[WriteTxn]):
        self.dataset = dataset
        self.txns = txns
        # author -> [(txn index, rows that commit adds for this author)]
        self.by_author: Dict[str, List[Tuple[int, Set[Row]]]] = {}
        for txn in txns:
            for row in txn.coauthor_delta:
                steps = self.by_author.setdefault(row[0], [])
                if not steps or steps[-1][0] != txn.index:
                    steps.append((txn.index, set()))
                steps[-1][1].add(row)

    def states(self, author: str, lo: int, hi: int) -> List[Set[Row]]:
        state = self.dataset.expect_coauthor(author)
        out = None
        for index, rows in self.by_author.get(author, ()):
            if index >= hi:
                break
            if index >= lo and out is None:
                out = [set(state)]
            state |= rows
            if out is not None:
                out.append(set(state))
        return out if out is not None else [state]

    def final_coauthor(self, committed: int) -> Set[Row]:
        rows = self.dataset.expect_coauthor_all()
        for txn in self.txns[:committed]:
            rows |= txn.coauthor_delta
        return rows
