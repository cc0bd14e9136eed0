"""An exact top-k oracle that shares no code with the engine.

Weights come straight from the substrate's unit embedding rows: cosine
clamped to [0, 1], 1.0 for identical tokens, 0 below alpha. Candidates
come from the benchmark's own inverted index over the sets it
generated (and the writes it sent). Each candidate's semantic overlap
is a maximum-weight bipartite matching solved by
``scipy.optimize.linear_sum_assignment``; candidates are visited in
decreasing order of a sound upper bound (the smaller of the row-max and
column-max sums) and the scan stops once the bound falls below the k-th
exact score.

``Checker`` replays a run's request log against a model of the
collection:
writes update the model, and every search answer must match the oracle
and pass the property checks (sorted, at most k hits, ``|Q & C| <=
score <= min(|Q|, |C|)``, ``exact`` true). A read that follows a write
must show it: an inserted or replaced set queried with its own tokens
comes back with score ``|S|``, and a deleted name never appears again.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
from scipy.optimize import linear_sum_assignment

#: Absolute tolerance on scores: the engine and the oracle take float32
#: dot products in different orders.
SCORE_TOL = 1e-5


class Model:
    """The benchmark's own view of the live collection."""

    def __init__(self, corpus, alpha: float) -> None:
        self.alpha = alpha
        self.sets: dict[str, frozenset[str]] = dict(
            zip(corpus.names, corpus.sets)
        )
        self.postings: dict[str, set[str]] = defaultdict(set)
        for name, members in self.sets.items():
            for token in members:
                self.postings[token].add(name)
        self.tokens = corpus.tokens
        self.row = {token: i for i, token in enumerate(corpus.tokens)}
        self.unit = corpus.vectors
        self.version = 0
        self.deleted: set[str] = set()
        self._similar: dict[str, list[str]] = {}

    # -- mutation ----------------------------------------------------------

    def _remove(self, name: str) -> None:
        for token in self.sets.pop(name):
            self.postings[token].discard(name)

    def _add(self, name: str, tokens) -> None:
        self.sets[name] = frozenset(tokens)
        for token in self.sets[name]:
            self.postings[token].add(name)

    def apply(self, op) -> None:
        if op.kind == "delete":
            self._remove(op.name)
            self.deleted.add(op.name)
        else:
            if op.name in self.sets:
                self._remove(op.name)
            self._add(op.name, op.tokens)
            self.deleted.discard(op.name)
        self.version += 1

    # -- scoring -----------------------------------------------------------

    def _similar_tokens(self, token: str) -> list[str]:
        """Vocabulary tokens whose weight with ``token`` reaches alpha."""
        cached = self._similar.get(token)
        if cached is not None:
            return cached
        out = [token]
        row = self.row.get(token)
        if row is not None:
            sims = self.unit @ self.unit[row]
            for j in np.flatnonzero(sims >= self.alpha).tolist():
                if j != row:
                    out.append(self.tokens[j])
        self._similar[token] = out
        return out

    def _rows(self, tokens: list[str]) -> np.ndarray:
        out = np.zeros((len(tokens), self.unit.shape[1]), dtype=np.float32)
        for i, token in enumerate(tokens):
            row = self.row.get(token)
            if row is not None:
                out[i] = self.unit[row]
        return out

    def weights(self, query: list[str], members: list[str]) -> np.ndarray:
        w = (self._rows(query) @ self._rows(members).T).astype(np.float64)
        np.clip(w, 0.0, 1.0, out=w)
        w[w < self.alpha] = 0.0
        position = {token: j for j, token in enumerate(members)}
        for i, token in enumerate(query):
            j = position.get(token)
            if j is not None:
                w[i, j] = 1.0
        return w

    def overlap(self, query: list[str], name: str) -> float:
        members = sorted(self.sets[name])
        w = self.weights(query, members)
        rows, cols = linear_sum_assignment(w, maximize=True)
        return math.fsum(w[rows, cols].tolist())

    def topk(self, query: list[str], k: int) -> list[tuple[float, str]]:
        """The exact top-k ``(score, name)`` pairs, best first."""
        candidates: set[str] = set()
        for token in query:
            for similar in self._similar_tokens(token):
                candidates.update(self.postings.get(similar, ()))
        bounded = []
        for name in candidates:
            members = sorted(self.sets[name])
            w = self.weights(query, members)
            bound = min(w.max(axis=1).sum(), w.max(axis=0).sum())
            if bound > 0.0:
                bounded.append((bound, name, w))
        bounded.sort(key=lambda item: -item[0])
        best: list[tuple[float, str]] = []
        for bound, name, w in bounded:
            if len(best) >= k and bound < best[k - 1][0] - SCORE_TOL:
                break
            rows, cols = linear_sum_assignment(w, maximize=True)
            best.append((math.fsum(w[rows, cols].tolist()), name))
            best.sort(key=lambda item: -item[0])
        return [item for item in best if item[0] > 0.0][:k]


class Checker:
    """Replays a request log; collects every mismatch as a message."""

    def __init__(self, corpus, alpha: float, k: int,
                 memo: dict | None = None) -> None:
        self.k = k
        self.model = Model(corpus, alpha)
        self.errors: list[str] = []
        #: Oracle answers by (model version, query); checkers replaying
        #: the same op order may share one.
        self._memo = {} if memo is None else memo

    def _fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, op, response: dict) -> None:
        """Check one answered request (searches and writes) in log order."""
        model = self.model
        if op.is_write:
            if "set_id" not in response or response.get("op") != op.kind:
                self._fail(f"{op.kind} {op.name}: bad ack {response}")
            model.apply(op)
            return
        self._check_search(model, op, response)

    def _check_search(self, model: Model, op, response: dict) -> None:
        hits = response.get("results")
        if not isinstance(hits, list):
            self._fail(f"search {op.tokens[:3]}: no results in {response}")
            return
        query = list(op.tokens)
        scores = [hit["score"] for hit in hits]
        where = f"search {query[:3]}... (v{model.version})"
        if len(hits) > self.k:
            self._fail(f"{where}: {len(hits)} hits > k")
        if any(a < b for a, b in zip(scores, scores[1:])):
            self._fail(f"{where}: hits not sorted: {scores}")
        qset = set(query)
        for hit in hits:
            name = hit["name"]
            if not hit.get("exact", False):
                self._fail(f"{where}: {name} not exact")
            if name in model.deleted:
                self._fail(f"{where}: deleted set {name} returned")
                continue
            members = model.sets.get(name)
            if members is None:
                self._fail(f"{where}: unknown set {name}")
                continue
            low = len(qset & members)
            high = min(len(qset), len(members))
            if not (low - SCORE_TOL <= hit["score"] <= high + SCORE_TOL):
                self._fail(
                    f"{where}: {name} score {hit['score']} outside "
                    f"[{low}, {high}]"
                )
            truth = model.overlap(query, name)
            if abs(truth - hit["score"]) > SCORE_TOL:
                self._fail(
                    f"{where}: {name} scored {hit['score']}, oracle {truth}"
                )
        key = (model.version, tuple(query))
        expected = self._memo.get(key)
        if expected is None:
            expected = model.topk(query, self.k)
            self._memo[key] = expected
        want = [score for score, _ in expected]
        if len(want) != len(scores) or any(
            abs(a - b) > SCORE_TOL for a, b in zip(want, scores)
        ):
            self._fail(f"{where}: top-k scores {scores} != oracle {want}")
        if op.verifies is not None:
            self._check_write_visible(model, op, hits, where)

    def _check_write_visible(self, model, op, hits, where) -> None:
        name = op.verifies
        names = [hit["name"] for hit in hits]
        if name in model.deleted:
            if name in names:
                self._fail(f"{where}: deleted {name} still answered")
            return
        size = len(model.sets[name])
        full = [hit for hit in hits if abs(hit["score"] - size) <= SCORE_TOL]
        if name not in names and len(full) < self.k:
            self._fail(f"{where}: written {name} not returned with {size}")
        elif name in names and not any(h["name"] == name for h in full):
            self._fail(f"{where}: written {name} scored below |S|={size}")
