"""Answer oracle: score each answer with the scorer its shape needs.

Set-semantics shapes (a filter, no ranking word in the question) are scored
with set F1 against the corpus labels.  Ranked shapes are scored with top-k
agreement: the share of the answer's first ``k`` films that belong to the
true top ``k``.  The true top ``k`` is tie-inclusive on the label side (every
film scoring at least the ``k``-th best label counts), but the answer's own
order is taken as returned: when the system's scores tie, the films it puts
first are the films the user sees, and they are scored as such.

Row identity, the second check, compares an answer's full rows (every
column, in order) with a serial reference run of the same request.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from kathbench.generators import Spec

TOP_K = 5
#: Label thresholds of the two filtered shapes (as in ``repro.data.workloads``).
EXCITING_LABEL = 0.6
CALM_LABEL = 0.4


def set_f1(predicted: Iterable[Any], expected: Iterable[Any]) -> float:
    """F1 between two sets of ids; two empty sets agree perfectly."""
    predicted_set, expected_set = set(predicted), set(expected)
    if not predicted_set and not expected_set:
        return 1.0
    hits = len(predicted_set & expected_set)
    if hits == 0:
        return 0.0
    precision = hits / len(predicted_set)
    recall = hits / len(expected_set)
    return 2 * precision * recall / (precision + recall)


def top_k_agreement(predicted: Sequence[Any], truth: Mapping[Any, float],
                    k: int = TOP_K) -> float:
    """Share of the answer's first ``k`` ids inside the true top ``k``.

    ``truth`` maps every relevant id to its label score (higher is better).
    Ties at the ``k``-th label score all count as top ``k``; the answer's
    order is never re-sorted.
    """
    if not truth:
        return 1.0 if not predicted else 0.0
    k = min(k, len(truth))
    cutoff = sorted(truth.values(), reverse=True)[k - 1]
    head = {item for item, score in truth.items() if score >= cutoff}
    return sum(1 for item in predicted[:k] if item in head) / k


def truth_for(spec: Spec, corpus) -> Tuple[str, Dict[int, float]]:
    """``("rank", id -> label score)`` or ``("set", id -> 1.0)`` for a request.

    Computed from the corpus labels alone, for any year constant the
    generator drew.
    """
    movies = list(corpus.movies)
    shape = spec.shape
    if shape == "flagship":
        years = [m.year for m in movies]
        low, span = min(years), max(1, max(years) - min(years))
        return "rank", {m.movie_id: 0.7 * m.gt_excitement + 0.3 * (m.year - low) / span
                        for m in movies if m.gt_boring_poster}
    if shape == "flagship_plain":
        return "rank", {m.movie_id: m.gt_excitement for m in movies if m.gt_boring_poster}
    if shape == "rank_all":
        return "rank", {m.movie_id: m.gt_excitement for m in movies}
    if shape == "boring_posters":
        keep = [m for m in movies if m.gt_boring_poster]
    elif shape == "recent_exciting":
        keep = [m for m in movies if m.year > spec.year and m.gt_excitement >= EXCITING_LABEL]
    elif shape == "calm_classics":
        keep = [m for m in movies if m.year < spec.year and m.gt_excitement <= CALM_LABEL]
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return "set", {m.movie_id: 1.0 for m in keep}


def score(spec: Spec, corpus, movie_ids: Sequence[int]) -> float:
    """The quality of one answer (its movie ids, in answer order), in [0, 1]."""
    kind, truth = truth_for(spec, corpus)
    if kind == "rank":
        return top_k_agreement(movie_ids, truth)
    return set_f1(movie_ids, truth)


def answer_ids(table) -> List[int]:
    """The ``movie_id`` column of a result table, in row order."""
    if not table.schema.has_column("movie_id"):
        return []
    return list(table.column("movie_id"))


def rows_digest(table, ignore: Sequence[str] = ()) -> str:
    """A digest of a result table's rows: every column but ``ignore``, in order."""
    columns = [name for name in table.column_names() if name not in ignore]
    digest = hashlib.sha256()
    digest.update(repr(columns).encode())
    for row in table:
        digest.update(repr([row.get(name) for name in columns]).encode())
    return digest.hexdigest()
