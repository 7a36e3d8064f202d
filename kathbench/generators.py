"""Seeded, fixed-size request generators for the three workloads.

A request is a plain :class:`Spec` value (question text, the scripted user's
replies, explain flags, and the shape it belongs to), built entirely before
timing.  Only the generated text and scripts reach KathDB; the shape name and
year constant stay with the benchmark, which uses them to score the answer.

Six question shapes mirror ``build_default_workload()``:

=================  ======  =====================================================
shape              scored  question
=================  ======  =====================================================
flagship           rank    excitement + recency, boring posters only
flagship_plain     rank    excitement, boring posters only (no correction)
rank_all           rank    every film by excitement
boring_posters     set     films with a boring poster
recent_exciting    set     released after Y, exciting plot
calm_classics      set     released before Y, calm plot
=================  ======  =====================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.prepared import normalize_query
from repro.data.workloads import FLAGSHIP_CLARIFICATION, FLAGSHIP_CORRECTION, build_default_workload

SHAPES = ("flagship", "flagship_plain", "rank_all", "boring_posters",
          "recent_exciting", "calm_classics")

#: ``build_default_workload()`` query name -> shape.
DEFAULT_SHAPES = {
    "flagship_exciting_boring": "flagship",
    "flagship_without_correction": "flagship_plain",
    "rank_all_by_excitement": "rank_all",
    "find_boring_posters": "boring_posters",
    "recent_exciting": "recent_exciting",
    "calm_classics": "calm_classics",
}

#: Year constants of the default workload's two filtered shapes.
DEFAULT_YEARS = {"recent_exciting": 2000, "calm_classics": 1995}


@dataclass(frozen=True)
class Spec:
    """One request, as generated: everything needed to build and score it."""

    shape: str
    text: str
    clarifications: Tuple[Tuple[str, str], ...] = ()
    corrections: Tuple[str, ...] = ()
    year: Optional[int] = None
    explain: bool = False
    explain_top: bool = False

    def clarification_map(self) -> Dict[str, str]:
        return dict(self.clarifications)


def default_specs() -> List[Spec]:
    """The six ``build_default_workload()`` queries, in workload order."""
    specs = []
    for query in build_default_workload():
        shape = DEFAULT_SHAPES[query.name]
        specs.append(Spec(shape=shape, text=query.nl_query,
                          clarifications=tuple(sorted(query.clarification_answers.items())),
                          corrections=tuple(query.corrections),
                          year=DEFAULT_YEARS.get(shape)))
    return specs


# ---------------------------------------------------------------------------
# warm_mix: the six default queries, about half with explanations attached
# ---------------------------------------------------------------------------
#: Share of each default shape in the warm mix.  Warm latencies at two
#: clients form two clusters: the filter shapes (~12 ms median, mostly time
#: spent waiting for the interpreter lock behind the other client) and the
#: ranked shapes (~40-50 ms, mostly their own work).  Near-equal shares put
#: the median on the gap between them, and a median inside the filter
#: cluster magnifies any slowdown of the machine; with the ranked shapes at
#: 4/5 of requests both the median and the 95th percentile sit inside the
#: ranked cluster.
WARM_WEIGHTS = {"flagship": 4, "flagship_plain": 4, "rank_all": 4,
                "boring_posters": 1, "recent_exciting": 1, "calm_classics": 1}


def stratified_shapes(weights: Dict[str, int], count: int,
                      rng: random.Random) -> List[str]:
    """``count`` shape names whose proportions follow ``weights`` exactly.

    The sequence is a concatenation of shuffled blocks, each block holding
    every shape exactly ``weights[shape]`` times, so the mix is the same for
    every seed (only the order changes) and a percentile cannot drift
    between shape clusters from one seed to the next.
    """
    block = [shape for shape in SHAPES for _ in range(weights.get(shape, 0))]
    if not block:
        raise ValueError("weights select no shape")
    shapes: List[str] = []
    while len(shapes) < count:
        chunk = list(block)
        rng.shuffle(chunk)
        shapes.extend(chunk)
    return shapes[:count]


def warm_mix_specs(seed: int, count: int) -> List[Spec]:
    """``count`` warm requests: default queries, about half explained."""
    rng = random.Random(f"warm_mix:{seed}")
    by_shape = {spec.shape: spec for spec in default_specs()}
    specs = []
    for shape in stratified_shapes(WARM_WEIGHTS, count, rng):
        explained = rng.random() < 0.5
        specs.append(replace(by_shape[shape], explain=explained, explain_top=explained))
    return specs


# ---------------------------------------------------------------------------
# fresh_questions: every request new in its text or its user script
# ---------------------------------------------------------------------------
#: Readings of "exciting" a user might give when asked what it means.
EXCITING_ANSWERS = (
    FLAGSHIP_CLARIFICATION,
    "the movie plot contains scenes that are uncommon in real life",
    "scenes like gun fights, chases and explosions that rarely happen in real life",
)

#: Corrections that ask for recency in the score (all parse as recency).
RECENCY_CORRECTIONS = (
    FLAGSHIP_CORRECTION,
    "I prefer newer movies as well when scoring",
    "please also favour more recent films",
    "recent releases should score higher too",
    "give newer films a boost in the score",
)

#: Question templates per shape.  ``{adj}`` is the excitement word the user
#: is asked to clarify, ``{noun}``/``{one}`` the films, ``{image}`` the poster,
#: ``{poster}`` a boring-poster adjective, ``{year}`` the year constant.
TEMPLATES: Dict[str, Tuple[str, ...]] = {
    "flagship": (
        "Sort the {noun} in the table by how {adj} they are, but the {image} should be '{poster}'.",
        "Rank the {noun} by how {adj} they are; the {image} should be {poster}.",
        "Order the {noun} in the table by how {adj} their plots are, but the {image} must be "
        "{poster}.",
        "Sort the {noun} by how {adj} they are, keeping only ones whose {image} looks {poster}.",
    ),
    "rank_all": (
        "Rank every {one} by how {adj} its plot is.",
        "Sort all {noun} by how {adj} their plots are.",
        "Order every {one} by how {adj} its plot is.",
        "Rank all the {noun} by how {adj} the plot is.",
        "Sort every {one} by how {adj} its story is.",
        "Order all {noun} by how {adj} their stories are.",
        "Rank the {noun} in the table by how {adj} their plots are.",
        "Sort the whole table of {noun} by how {adj} each plot is.",
    ),
    "boring_posters": (
        "Which {noun} have a {poster} {image}?",
        "Find the {noun} whose {image} is {poster}.",
        "Show {noun} with a {poster} {image}.",
        "List the {noun} that have a {poster} {image}.",
        "Which {noun} come with a {poster} {image}?",
        "Find every {one} whose {image} looks {poster}.",
    ),
    "recent_exciting": (
        "List {noun} released after {year} whose plots are {adj}.",
        "Show {noun} released after {year} with {adj} plots.",
        "Find {noun} released later than {year} whose plots are {adj}.",
    ),
    "calm_classics": (
        "Show {noun} released before {year} with calm, quiet plots.",
        "List {noun} released before {year} whose plots are calm.",
        "Find {noun} released earlier than {year} with quiet, calm plots.",
    ),
}
TEMPLATES["flagship_plain"] = TEMPLATES["flagship"]

NOUNS = (("films", "film"), ("movies", "movie"))
EXCITING_WORDS = ("exciting", "thrilling")
POSTER_WORDS = ("boring", "plain", "dull")
IMAGE_WORDS = ("poster", "cover", "poster image")
YEARS = tuple(range(1984, 2016))

#: Fresh-question mix.  Shapes are weighted so that the median and the 95th
#: percentile fall inside latency clusters rather than between them.
FRESH_WEIGHTS = {"flagship": 2, "flagship_plain": 2, "rank_all": 2,
                 "boring_posters": 2, "recent_exciting": 3, "calm_classics": 3}


def _fresh_candidate(shape: str, rng: random.Random) -> Spec:
    """One random question of ``shape`` (may repeat an earlier draw)."""
    plural, singular = rng.choice(NOUNS)
    adj = rng.choice(EXCITING_WORDS)
    # The flagship shapes keep the paper's "boring" (a poster wording there
    # is one more vocabulary item to warm up); the poster-only shape varies it.
    poster = rng.choice(POSTER_WORDS) if shape == "boring_posters" else "boring"
    image = rng.choice(IMAGE_WORDS)
    year = rng.choice(YEARS) if shape in ("recent_exciting", "calm_classics") else None
    text = rng.choice(TEMPLATES[shape]).format(noun=plural, one=singular, adj=adj,
                                               image=image, poster=poster, year=year)
    clarifications: Tuple[Tuple[str, str], ...] = ()
    if shape in ("flagship", "flagship_plain", "rank_all", "recent_exciting"):
        clarifications = ((adj, rng.choice(EXCITING_ANSWERS)),)
    corrections: Tuple[str, ...] = ()
    if shape == "flagship":
        corrections = (rng.choice(RECENCY_CORRECTIONS),)
    return Spec(shape=shape, text=text, clarifications=clarifications,
                corrections=corrections, year=year)


def fresh_warmup_specs() -> List[Spec]:
    """One question per piece of vocabulary the fresh generator draws from.

    Every clarification reading of each excitement word, asked once in a
    ranking and in both flagship questions, and every poster wording, so
    the model calls that recur across questions (keyword lists, entity
    embeddings, poster classification) are cached before timing while each
    timed question's own text and script still miss.
    """
    specs = []
    for adj in EXCITING_WORDS:
        for answer in EXCITING_ANSWERS:
            clarified = ((adj, answer),)
            specs.append(Spec("rank_all", TEMPLATES["rank_all"][0].format(one="film", adj=adj),
                              clarifications=clarified))
            flagship = TEMPLATES["flagship"][0].format(noun="films", adj=adj, image="poster",
                                                       poster="boring")
            specs.append(Spec("flagship", flagship, clarifications=clarified,
                              corrections=(FLAGSHIP_CORRECTION,)))
            specs.append(Spec("flagship_plain", flagship, clarifications=clarified))
    specs += [Spec("boring_posters", TEMPLATES["boring_posters"][0].format(
        noun="films", poster=poster, image=image))
        for poster in POSTER_WORDS for image in IMAGE_WORDS]
    specs.append(Spec("calm_classics", TEMPLATES["calm_classics"][0].format(
        noun="films", year=1999), year=1999))
    return specs


def _prepared_identity(spec: Spec) -> Tuple:
    """What KathDB's prepared-query cache keys a request on (text + script)."""
    return normalize_query(spec.text), spec.clarifications, spec.corrections


def fresh_specs(seed: int, count: int,
                exclude: Sequence[Spec] = ()) -> List[Spec]:
    """``count`` questions, each new in its text or its user script.

    No two requests (and none of ``exclude``, e.g. the warm-up queries)
    share a normalized question text *and* user script, so every one of
    them misses the prepared-query cache.
    """
    rng = random.Random(f"fresh_questions:{seed}")
    seen = {_prepared_identity(spec) for spec in exclude}
    specs = []
    for shape in stratified_shapes(FRESH_WEIGHTS, count, rng):
        for _ in range(10_000):
            spec = _fresh_candidate(shape, rng)
            identity = _prepared_identity(spec)
            if identity not in seen:
                break
        else:  # pragma: no cover - the pools hold hundreds per shape
            raise RuntimeError(f"ran out of distinct {shape} questions")
        seen.add(identity)
        specs.append(spec)
    return specs


# ---------------------------------------------------------------------------
# reload_churn: one corpus seed per load, five cold queries after each
# ---------------------------------------------------------------------------
def reload_specs() -> List[Spec]:
    """The default queries asked after every load, less ``calm_classics``.

    Cold after a reload, the six default queries cost five distinct amounts,
    except that the calm and the poster question overlap; with both, a run's
    median latency fell where the two interleave and spread by 0.15-0.21
    over ten runs.  Without the calm question the median is the middle of
    the poster question's cluster.  The calm question's layers are all
    exercised by the other workloads.
    """
    return [spec for spec in default_specs() if spec.shape != "calm_classics"]


def corpus_seeds(seed: int, loads: int) -> List[int]:
    """Distinct corpus seeds, one per load."""
    rng = random.Random(f"reload_churn:{seed}")
    return rng.sample(range(1_000, 1_000_000), loads)

