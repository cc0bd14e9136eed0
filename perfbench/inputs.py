"""Seeded inputs of the workloads.

Everything a run sends is a pure function of ``(workload, seed)``: the
corpus, the query lists, the write rotation and the Zipf draws. The
corpus is indexed by the program itself (``build_substrate`` +
``save_snapshot``, exactly what ``repro index build`` runs), and the
benchmark keeps its own copy of every generated set for the oracle.

Workloads (alpha 0.8, k 10, the default columnar engine throughout):

* ``large-n`` -- ``LARGE_N_SETS`` small sets of random-letter tokens in
  one memmap snapshot, short distinct queries, result cache off.
* ``read-write`` -- the same corpus family at ``RW_SETS`` sets with a
  write-ahead log and the result cache on. Reads are drawn by the
  program's own Zipf generator (``repro.cluster.bench.zipf_queries``,
  exponent 1, the generator of ``repro cluster bench``) over short
  distinct queries; one insert, replace or delete comes before every
  ``RW_READS_PER_WRITE + 1`` reads (its checking read, then Zipf reads).
  The write rate is an assumption, not a measured mix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

ALPHA = 0.8
K = 10

WORKLOADS = ("large-n", "read-write")

#: Write rotations (insert, replace, delete, each followed by its
#: checking read) sent after the timed phase. large-n has no writes in
#: its timed phase, so its reads after a write all come from here.
CHECK_ROTATIONS = {"large-n": 4, "read-write": 2}
#: Rotations whose writes are then sent back to back: the write-latency
#: samples, all of one kind -- a write right behind a write, not behind
#: a search.
WRITE_BURST_ROTATIONS = 8

#: large-n / read-write: sets of 3..14 tokens drawn uniformly from a
#: vocabulary of random 10-letter strings.
SET_SIZES = (3, 14)
LARGE_N_SETS = 100_000
LARGE_N_VOCAB = 20_000
RW_SETS = 20_000
RW_VOCAB = 4_000
#: Queries: 6 distinct vocabulary tokens (one size, so a cache miss
#: costs about the same whichever query was drawn).
QUERY_SIZE = 6
LARGE_N_QUERIES = 400
#: Written sets have 8 tokens; replace and delete targets are base sets
#: of 6..10 tokens, so every checking read costs about the same.
WRITE_SET_SIZE = 8
WRITE_TARGET_SIZES = (6, 10)
#: read-write reads: ``zipf_queries`` over this many distinct queries
#: (the ``repro cluster bench --distinct`` default).
RW_DISTINCT_QUERIES = 30
RW_ZIPF_DRAWS = 4096
#: Assumed: eight reads between two writes, so the cache (emptied by
#: every write, since its key holds the collection version) has a
#: window in which repeats hit.
RW_READS_PER_WRITE = 8

#: The timed phase runs for ``--seconds`` and at least this many ops,
#: so its medians never rest on a handful of slow queries.
MIN_TIMED_OPS = 60

#: Ops the traced (in-process) pass replays from the head of the timed
#: stream; fixed, so its counters repeat exactly for a given seed.
TRACED_OPS = {"large-n": 20, "read-write": 50}

_SALT = {"large-n": 23, "read-write": 37}


@dataclass
class Corpus:
    """The generated collection and where it is indexed."""

    names: list[str]
    sets: list[frozenset[str]]
    snapshot: Path
    #: The substrate's unit embedding rows (VectorStore order).
    tokens: list[str]
    vectors: np.ndarray


@dataclass(frozen=True)
class Op:
    """One request of a workload.

    ``kind`` is ``search``, ``insert``, ``replace`` or ``delete``. A
    search with ``verifies`` set checks the write to that name: it
    queries the written set's tokens. A delete carries the deleted set's
    former tokens (not sent).
    """

    kind: str
    tokens: tuple[str, ...] = ()
    name: str | None = None
    verifies: str | None = None

    @property
    def is_write(self) -> bool:
        return self.kind != "search"


@dataclass
class Plan:
    workload: str
    seed: int
    corpus: Corpus
    cache_size: int
    wal: bool
    #: Untimed requests sent after set-up, before the timed phase.
    warmup: list[Op]
    #: Checking rotations sent after the timed phase (each write, then
    #: its read).
    checks: list[Op]
    #: Back-to-back writes sent last; ``gateway.write_p50_ms`` is their
    #: median.
    burst: list[Op]
    #: A fresh copy of the endless timed op sequence.
    _stream: Callable[[], Iterator[Op]]

    def stream(self) -> Iterator[Op]:
        """The timed op sequence, endless and identical on every call."""
        return self._stream()


def _rng(workload: str, seed: int, part: int = 0) -> np.random.Generator:
    return np.random.default_rng([_SALT[workload], seed, part])


def _letter_vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    """``size`` distinct random 10-letter tokens (random letters keep
    cross-token cosines low, so the stream is mostly identical tokens)."""
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < size:
        codes = rng.integers(0, 26, size=(size - len(out), 10))
        for row in codes:
            token = bytes(letters[row]).decode("ascii")
            if token not in seen:
                seen.add(token)
                out.append(token)
    return out


def _letter_sets(
    rng: np.random.Generator, vocab: list[str], count: int
) -> list[frozenset[str]]:
    low, high = SET_SIZES
    sizes = rng.integers(low, high + 1, size=count)
    draws = rng.integers(0, len(vocab), size=int(sizes.sum()))
    ends = np.cumsum(sizes)
    starts = ends - sizes
    return [
        frozenset(vocab[t] for t in draws[a:b].tolist())
        for a, b in zip(starts.tolist(), ends.tolist())
    ]


def _short_query(rng: np.random.Generator, vocab: list[str]) -> tuple:
    picks = rng.choice(len(vocab), size=QUERY_SIZE, replace=False)
    return tuple(sorted(vocab[int(j)] for j in picks))


def index_corpus(collection, path: Path) -> Corpus:
    """Index a generated collection with the program (hashing-cosine
    substrate, the serving default) into a snapshot at ``path``."""
    from repro.service.bootstrap import build_substrate
    from repro.store import save_snapshot

    index, _, descriptor = build_substrate(collection, alpha=ALPHA)
    store = index.store
    save_snapshot(path, collection, store=store, substrate=descriptor)
    ids = list(collection.ids())
    return Corpus(
        names=[collection.name_of(i) for i in ids],
        sets=[frozenset(collection[i]) for i in ids],
        snapshot=path,
        tokens=list(store.tokens),
        vectors=np.array(store.matrix, dtype=np.float32),
    )


class WriteRotation:
    """Insert, replace, delete -- each followed by the read that checks
    it -- drawing targets and contents from ``rng``.

    Replace and delete targets are base sets of ``WRITE_TARGET_SIZES``
    tokens never touched before, so the generated sequence does not
    depend on any response. Two rotations over one corpus stay apart by
    taking targets from disjoint residues ``part = (i, n)`` of the set
    ids and inserting under different ``prefix``\\ es.
    """

    def __init__(
        self,
        prefix: str,
        corpus: Corpus,
        vocab: list[str],
        rng: np.random.Generator,
        part: tuple[int, int] = (0, 1),
    ) -> None:
        self.prefix = prefix
        self.corpus = corpus
        self.vocab = vocab
        self.rng = rng
        low, high = WRITE_TARGET_SIZES
        residue, modulus = part
        self._targets = iter(
            i for i in rng.permutation(len(corpus.names)).tolist()
            if i % modulus == residue and low <= len(corpus.sets[i]) <= high
        )
        self._inserted = 0

    def _contents(self) -> tuple[str, ...]:
        picks = self.rng.choice(
            len(self.vocab), size=WRITE_SET_SIZE, replace=False
        )
        return tuple(sorted(self.vocab[int(j)] for j in picks))

    def rotation(self) -> list[Op]:
        self._inserted += 1
        new_name = f"{self.prefix}-ins-{self._inserted}"
        new_tokens = self._contents()
        replaced = self.corpus.names[next(self._targets)]
        replacement = self._contents()
        victim = next(self._targets)
        victim_name = self.corpus.names[victim]
        victim_tokens = tuple(sorted(self.corpus.sets[victim]))
        return [
            Op("insert", new_tokens, name=new_name),
            Op("search", new_tokens, verifies=new_name),
            Op("replace", replacement, name=replaced),
            Op("search", replacement, verifies=replaced),
            Op("delete", victim_tokens, name=victim_name),
            Op("search", victim_tokens, verifies=victim_name),
        ]


def write_burst(rotation: WriteRotation) -> list[Op]:
    """``WRITE_BURST_ROTATIONS`` rotations with all writes back to back,
    then the checking reads of the last one: many write samples without
    a (possibly slow) read after each."""
    ops = [rotation.rotation() for _ in range(WRITE_BURST_ROTATIONS)]
    writes = [op for rotation in ops for op in rotation if op.is_write]
    return writes + [op for op in ops[-1] if not op.is_write]


def _distinct_queries(
    rng: np.random.Generator, vocab: list[str], count: int
) -> list[tuple]:
    queries: list[tuple] = []
    seen: set[tuple] = set()
    while len(queries) < count:
        query = _short_query(rng, vocab)
        if query not in seen:
            seen.add(query)
            queries.append(query)
    return queries


def _letters_corpus(
    workload: str, seed: int, workdir: Path, num_sets: int, vocab_size: int
) -> tuple[Corpus, list[str]]:
    from repro.datasets.collection import SetCollection

    rng = _rng(workload, seed)
    vocab = _letter_vocabulary(rng, vocab_size)
    sets = _letter_sets(rng, vocab, num_sets)
    collection = SetCollection(sets, names=[f"s{i}" for i in range(num_sets)])
    corpus = index_corpus(collection, workdir / f"{workload}.snap")
    return corpus, sorted(set().union(*sets))


def _large_n(seed: int, workdir: Path) -> Plan:
    corpus, vocab = _letters_corpus(
        "large-n", seed, workdir, LARGE_N_SETS, LARGE_N_VOCAB
    )
    rng = _rng("large-n", seed, 1)
    queries = _distinct_queries(rng, vocab, LARGE_N_QUERIES)
    warmup = [Op("search", _short_query(rng, vocab)) for _ in range(2)]
    stream = [Op("search", q) for q in queries]
    rotation = WriteRotation("large-n", corpus, vocab, _rng("large-n", seed, 2))
    checks = [
        op for _ in range(CHECK_ROTATIONS["large-n"])
        for op in rotation.rotation()
    ]
    return Plan(
        "large-n", seed, corpus, cache_size=0, wal=False,
        warmup=warmup, checks=checks, burst=write_burst(rotation),
        _stream=lambda: itertools.cycle(stream),
    )


def _read_write(seed: int, workdir: Path) -> Plan:
    from repro.cluster.bench import zipf_queries

    from repro.datasets.collection import SetCollection

    corpus, vocab = _letters_corpus(
        "read-write", seed, workdir, RW_SETS, RW_VOCAB
    )
    rng = _rng("read-write", seed, 1)
    distinct = _distinct_queries(rng, vocab, RW_DISTINCT_QUERIES)
    reads = [
        tuple(sorted(query))
        for query in zipf_queries(
            SetCollection(distinct), distinct=len(distinct),
            requests=RW_ZIPF_DRAWS, seed=int(rng.integers(2**31)),
        )
    ]
    warmup = [Op("search", _short_query(rng, vocab)) for _ in range(2)]

    def stream() -> Iterator[Op]:
        """Each write, its checking read, then ``RW_READS_PER_WRITE``
        reads of the Zipf stream."""
        rotation = WriteRotation(
            "read-write", corpus, vocab, _rng("read-write", seed, 2),
            part=(0, 2),
        )
        draws = itertools.cycle(reads)
        while True:
            ops = rotation.rotation()
            for position in range(0, len(ops), 2):
                yield ops[position]
                yield ops[position + 1]
                for query in itertools.islice(draws, RW_READS_PER_WRITE):
                    yield Op("search", query)

    after = WriteRotation(
        "read-write-after", corpus, vocab, _rng("read-write", seed, 3),
        part=(1, 2),
    )
    checks = [
        op for _ in range(CHECK_ROTATIONS["read-write"])
        for op in after.rotation()
    ]
    return Plan(
        "read-write", seed, corpus, cache_size=1024, wal=True,
        warmup=warmup, checks=checks, burst=write_burst(after),
        _stream=stream,
    )


def build_plan(workload: str, seed: int, workdir: Path) -> Plan:
    """Generate and index a workload's inputs under ``workdir``."""
    builders = {"large-n": _large_n, "read-write": _read_write}
    return builders[workload](seed, workdir)
