"""Tests of the benchmark's own logic: generators, scorers, checks, output.

Run with ``python3 -m pytest kathbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from kathbench import run  # first: puts src/ on sys.path
from kathbench import generators, oracle, report, workloads
from kathbench.generators import Spec
from repro.data.workloads import ranking_accuracy
from repro.models.llm import SimulatedLLM
from repro.relational.table import Table

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------
def test_same_seed_same_sequence_and_other_seed_differs():
    assert generators.warm_mix_specs(3, 120) == generators.warm_mix_specs(3, 120)
    assert generators.warm_mix_specs(3, 120) != generators.warm_mix_specs(4, 120)
    exclude = generators.default_specs()
    assert generators.fresh_specs(3, 120, exclude) == generators.fresh_specs(3, 120, exclude)
    assert generators.fresh_specs(3, 120, exclude) != generators.fresh_specs(4, 120, exclude)
    assert generators.corpus_seeds(3, 8) == generators.corpus_seeds(3, 8)
    assert generators.corpus_seeds(3, 8) != generators.corpus_seeds(4, 8)
    assert len(set(generators.corpus_seeds(3, 8))) == 8


def test_mix_proportions_are_the_same_for_every_seed():
    for weights, build in ((generators.WARM_WEIGHTS, generators.warm_mix_specs),
                           (generators.FRESH_WEIGHTS,
                            lambda seed, n: generators.fresh_specs(seed, n))):
        block = sum(weights.values())
        counts = [sorted((shape, sum(1 for s in build(seed, 4 * block) if s.shape == shape))
                         for shape in generators.SHAPES) for seed in (1, 2)]
        assert counts[0] == counts[1]
        assert dict(counts[0]) == {shape: 4 * weights[shape] for shape in generators.SHAPES}


def test_fresh_questions_never_repeat_a_prepared_query():
    defaults = generators.default_specs()
    specs = generators.fresh_specs(5, 400, exclude=defaults)
    identities = {generators._prepared_identity(s) for s in specs}
    assert len(identities) == len(specs)
    assert not identities & {generators._prepared_identity(s) for s in defaults}


def test_every_generated_question_means_what_its_oracle_scores():
    """Each template parses to its shape's intent, and clarifies what is asked."""
    llm = SimulatedLLM()
    for spec in generators.fresh_specs(9, 600) + generators.default_specs():
        intent = llm.interpret_query(spec.text, spec.clarification_map(), list(spec.corrections))
        concepts = [s.concept for s in intent.semantic_scores]
        images = [p.concept for p in intent.image_predicates]
        filters = [(f.column, f.op, f.value) for f in intent.relational_filters]
        expected = {
            "flagship": (True, ["excitement"], ["boring_visual"], [], True),
            "flagship_plain": (True, ["excitement"], ["boring_visual"], [], False),
            "rank_all": (True, ["excitement"], [], [], False),
            "boring_posters": (False, [], ["boring_visual"], [], False),
            "recent_exciting": (False, ["excitement"], [], [("year", ">", spec.year)], False),
            "calm_classics": (False, ["calm"], [], [("year", "<", spec.year)], False),
        }[spec.shape]
        assert (intent.ranking, concepts, images, filters, intent.include_recency) == expected, \
            spec.text
        asked = {r.term for r in llm.detect_ambiguity(spec.text) if r.priority >= 0.5}
        assert asked == set(spec.clarification_map()), spec.text


# ---------------------------------------------------------------------------
# Scorers
# ---------------------------------------------------------------------------
def _movie(movie_id, year=2000, excitement=0.5, boring=True):
    return SimpleNamespace(movie_id=movie_id, title=f"m{movie_id}", year=year,
                           gt_excitement=excitement, gt_boring_poster=boring)


def test_tied_system_scores_are_scored_as_returned():
    # Labels rank 1..5 on top; the system tied everything at 1.0 and
    # returned 6..10 first.  That is what the user sees: no credit.
    truth = {i: 1.0 - i / 10 for i in range(1, 11)}
    assert oracle.top_k_agreement([6, 7, 8, 9, 10, 1, 2, 3, 4, 5], truth) == 0.0
    assert oracle.top_k_agreement([1, 2, 3, 4, 5, 6], truth) == 1.0
    assert oracle.top_k_agreement([5, 4, 3, 2, 6], truth) == 0.8


def test_ties_in_the_labels_all_count_as_top_k():
    truth = {i: 1.0 for i in range(1, 8)}
    truth.update({8: 0.2, 9: 0.1})
    assert oracle.top_k_agreement([7, 6, 5, 4, 3], truth) == 1.0
    assert oracle.top_k_agreement([8, 9, 1, 2, 3], truth) == 0.6


def test_set_shapes_use_f1_where_rank_scoring_would_punish_order():
    # Ten calm films before 1995, plus one too late and one too exciting.
    corpus = SimpleNamespace(movies=[_movie(i, 1980 + i, 0.1) for i in range(1, 11)]
                             + [_movie(11, 2005, 0.1), _movie(12, 1980, 0.9)])
    spec = Spec("calm_classics", "Show films released before 1995 with calm, quiet plots.",
                year=1995)
    answer = [10, 9, 8, 7, 5, 6, 4, 3, 2, 1]  # the right set, not in year order
    assert oracle.score(spec, corpus, answer) == 1.0
    by_year = [str(i) for i in range(1, 11)]
    assert ranking_accuracy([str(i) for i in answer], by_year) == pytest.approx(0.2)
    assert oracle.score(spec, corpus, answer + [11]) == pytest.approx(2 * 10 / 21)


def test_generated_year_constants_get_their_own_ground_truth():
    corpus = SimpleNamespace(movies=[_movie(1, 1990, 0.9), _movie(2, 2001, 0.9),
                                     _movie(3, 2010, 0.9), _movie(4, 2010, 0.2)])
    def recent(year):
        return Spec("recent_exciting", f"List films released after {year} whose plots are exciting.",
                    year=year)
    assert oracle.truth_for(recent(2000), corpus) == ("set", {2: 1.0, 3: 1.0})
    assert oracle.truth_for(recent(2005), corpus) == ("set", {3: 1.0})
    assert oracle.score(recent(2005), corpus, [3]) == 1.0


# ---------------------------------------------------------------------------
# Row identity
# ---------------------------------------------------------------------------
def _table(rows):
    return Table.from_rows("answer", rows)


def test_a_wrong_row_set_is_counted_as_failed():
    spec = generators.default_specs()[3]
    right = _table([{"movie_id": 1, "title": "a", "lid": 10},
                    {"movie_id": 2, "title": "b", "lid": 11}])
    wrong = _table([{"movie_id": 1, "title": "a", "lid": 10}])
    reference = {spec: oracle.rows_digest(right)}
    phase = workloads.Phase(answers=[
        workloads.Answer(spec, corpus=None, ok=True, table=right),
        workloads.Answer(spec, corpus=None, ok=True, table=wrong)])
    phase.mismatches += workloads.compare_rows(phase.answers, reference)
    correct, attempted, failed, failures = report.summary([phase])
    assert (correct, attempted, failed) == (False, 2, 1)
    assert "rows differ" in failures[0]


def test_ignored_columns_do_not_count_but_others_do():
    a = _table([{"movie_id": 1, "lid": 10}])
    b = _table([{"movie_id": 1, "lid": 99}])
    c = _table([{"movie_id": 2, "lid": 10}])
    assert oracle.rows_digest(a) != oracle.rows_digest(b)
    assert oracle.rows_digest(a, ("lid",)) == oracle.rows_digest(b, ("lid",))
    assert oracle.rows_digest(a, ("lid",)) != oracle.rows_digest(c, ("lid",))


# ---------------------------------------------------------------------------
# The command's output
# ---------------------------------------------------------------------------
def test_catalogue_matches_benchmark_json():
    for key, catalogue in (("end_to_end", report.END_TO_END), ("per_layer", report.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[key]}
        assert declared == catalogue
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


@pytest.fixture
def small_corpora(monkeypatch, tmp_path):
    """Shrink every run to seconds: small corpora, one set-up, no model
    wait; spans go to a temporary directory."""
    monkeypatch.setattr(workloads, "CORPUS_DOCS", 12)
    monkeypatch.setattr(workloads, "RELOAD_DOCS", 12)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "INGEST_PROBES", 1)
    monkeypatch.setattr(workloads.FreshQuestions, "latency", 0.0)
    monkeypatch.setattr(workloads.WarmMix, "window", sum(generators.WARM_WEIGHTS.values()))
    monkeypatch.setattr(workloads.FreshQuestions, "window", sum(generators.FRESH_WEIGHTS.values()))
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)


def _last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace, small_corpora, capsys):
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.2",
                     "--trace", str(trace)])
    result = _last_line(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(math.isfinite(value) for value in values)
    if not trace:  # an end-to-end metric is never 0 (a bound is a share of it)
        assert all(value > 0 for value in values)


def test_the_command_fails_on_a_row_mismatch(monkeypatch, small_corpora, capsys):
    empty = oracle.rows_digest(_table([{"movie_id": 0}]))
    monkeypatch.setattr(workloads, "reference_digests",
                        lambda specs, corpus, ignore=(): {
                            workloads._row_key(s): empty for s in specs})
    code = run.main(["--workload", "warm_mix", "--seed", "1", "--seconds", "0.2"])
    result = _last_line(capsys)
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] > 0
