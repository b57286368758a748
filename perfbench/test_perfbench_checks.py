"""Tests of the benchmark's output checks: each one must reject a broken output.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent)]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

HEADER = (
    "name,dept,a,b\n"
    "identifier:text,insensitive:categorical,quasi_identifier:numeric,quasi_identifier:numeric\n"
)


def release(*rows: str) -> bytes:
    return (HEADER + "".join(row + "\n" for row in rows)).encode()


GOOD = release(
    "Ann,X,[1-2],[5-6]",
    "Bob,Y,[1-2],[5-6]",
    "Cid,X,[3-4],7",
    "Dee,Y,[3-4],7",
)


def test_k_anonymous_release_passes_and_reports_class_sizes():
    parsed = checks.parse_release_csv(GOOD)
    assert sorted(checks.check_k_anonymous(parsed.quasi_identifier_cells(), 2)) == [2, 2]


def test_release_that_is_not_k_anonymous_fails():
    broken = release("Ann,X,[1-2],[5-6]", "Bob,Y,[1-2],[5-6]", "Cid,X,[3-4],7", "Dee,Y,[3-4],8")
    parsed = checks.parse_release_csv(broken)
    with pytest.raises(CheckFailed, match="not 2-anonymous"):
        checks.check_k_anonymous(parsed.quasi_identifier_cells(), 2)


def test_fully_suppressed_rows_are_withheld_not_a_class():
    parsed = checks.parse_release_csv(GOOD + b"Eve,X,*,*\n")
    assert sorted(checks.check_k_anonymous(parsed.quasi_identifier_cells(), 2)) == [2, 2]
    partly = checks.parse_release_csv(GOOD + b"Eve,X,*,7\n")
    with pytest.raises(CheckFailed):
        checks.check_k_anonymous(partly.quasi_identifier_cells(), 2)


def test_release_carrying_the_sensitive_column_fails():
    body = (
        "name,a,salary\nidentifier:text,quasi_identifier:numeric,sensitive:numeric\nAnn,1,5\n"
    ).encode()
    with pytest.raises(CheckFailed, match="sensitive"):
        checks.parse_release_csv(body)


def test_reordered_or_dropped_rows_fail():
    names = checks.parse_release_csv(GOOD).identifiers()
    checks.check_identifiers(names, ["Ann", "Bob", "Cid", "Dee"])
    with pytest.raises(CheckFailed, match="row 0"):
        checks.check_identifiers(names, ["Bob", "Ann", "Cid", "Dee"])
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_identifiers(names[:3], ["Ann", "Bob", "Cid", "Dee"])


def test_utility_is_one_over_sum_of_squared_class_sizes():
    assert checks.check_utility([2, 3], 1 / 13) == pytest.approx(1 / 13)
    with pytest.raises(CheckFailed, match="utility"):
        checks.check_utility([2, 3], 1 / 12)


def test_dissimilarity_matches_its_definition_and_rejects_a_wrong_value():
    private = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    estimate = np.array([[1.5, 12.0], [1.5, 18.0], [3.0, 35.0]])
    delta = private - estimate
    expected = np.trace(delta.T @ delta) / 3
    assert checks.check_dissimilarity(private, estimate, expected) == pytest.approx(expected)
    with pytest.raises(CheckFailed, match="dissimilarity"):
        checks.check_dissimilarity(private, estimate, expected * 1.001)


def test_interval_cells_are_represented_by_their_midpoint():
    assert checks.cell_value("[1-2]") == 1.5
    assert checks.cell_value("[0.5-7.824999999999999]") == pytest.approx(4.1625)
    assert checks.cell_value("7") == 7.0


def test_estimate_outside_the_universe_fails():
    checks.check_in_universe([50.0, 75.0, 100.0], 50.0, 100.0)
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_in_universe([50.0, 101.0], 50.0, 100.0)
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_in_universe([50.0, float("nan")], 50.0, 100.0)


def test_wrong_optimal_level_fails():
    levels = [2, 3, 4]
    protections = [1.0, 2.0, 3.0]
    utilities = [1.0, 0.9, 0.1]
    # Min-max scaled scores: 0.5, 0.5*0.5+0.5*8/9, 0.5 -> level 3 is best.
    checks.check_optimum(levels, protections, utilities, [True, True, True], 3)
    with pytest.raises(CheckFailed, match="best feasible"):
        checks.check_optimum(levels, protections, utilities, [True, True, True], 2)
    with pytest.raises(CheckFailed, match="not one of"):
        checks.check_optimum(levels, protections, utilities, [True, True, True], 5)


def test_best_level_wrongly_marked_infeasible_fails():
    levels = [2, 3, 4]
    protections = [1.0, 2.0, 3.0]
    utilities = [1.0, 0.9, 0.1]
    # With no thresholds every level is feasible; a program that flags the
    # best level 3 infeasible and then picks the runner-up must not pass.
    with pytest.raises(CheckFailed, match="reported feasible"):
        checks.check_optimum(levels, protections, utilities, [True, False, True], 2)
    with pytest.raises(CheckFailed, match="reported feasible"):
        checks.check_optimum(levels, protections, utilities, [True, False, True], 3)


def test_optimum_under_thresholds():
    levels = [2, 3, 4]
    protections = [1.0, 2.0, 3.0]
    utilities = [1.0, 0.9, 0.1]
    # Tp = 2.5 leaves only level 4 feasible.
    flags = [False, False, True]
    checks.check_optimum(levels, protections, utilities, flags, 4, thresholds=(2.5, None))
    with pytest.raises(CheckFailed, match="not feasible"):
        checks.check_optimum(levels, protections, utilities, flags, 3, thresholds=(2.5, None))
    # Tu = 0.5 rules out level 4, which the program must not call feasible.
    with pytest.raises(CheckFailed, match="reported feasible"):
        checks.check_optimum(levels, protections, utilities, [True, True, True], 3,
                             thresholds=(None, 0.5))
    checks.check_optimum(levels, protections, utilities, [True, True, False], 3,
                         thresholds=(None, 0.5))


def test_mislinked_pages_lower_precision_below_the_floor():
    truth = {"Ann": (1.0,), "Bob": (2.0,), "Cid": (3.0,)}
    queries = ["Ann", "Bob", "Cid", "Dee"]
    right = {"Ann": (1.0,), "Bob": (2.0,), "Cid": (3.0,)}
    assert checks.check_linkage(queries, right, truth, 1.0, 1.0) == (1.0, 1.0)
    mislinked = {"Ann": (1.0,), "Bob": (3.0,), "Cid": (3.0,), "Dee": (2.0,)}
    precision, recall = checks.linkage_quality(queries, mislinked, truth)
    assert (precision, recall) == (0.5, pytest.approx(2 / 3))
    with pytest.raises(CheckFailed, match="precision"):
        checks.check_linkage(queries, mislinked, truth, 0.9, 0.5)
    with pytest.raises(CheckFailed, match="recall"):
        checks.check_linkage(queries, {"Ann": (1.0,)}, truth, 0.9, 0.5)


def test_cached_body_must_be_byte_identical():
    checks.check_same_body(GOOD, bytes(GOOD))
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_same_body(GOOD, GOOD.replace(b"Ann", b"Anna"))


def test_fred_result_checks_pass_on_the_program_and_catch_a_corrupted_level():
    import workloads

    spec = workloads.WorkloadSpec(
        workloads.SessionSpec(rows=10, delta=1, hits_per_batch=1),
        fred="linkage", faculty=60, levels=(2, 3, 4),
    )
    inputs = workloads.build_fred(spec, seed=3)
    inputs.floors = (0.5, 0.5)
    result = inputs.fred.run(inputs.private)
    precision, recall = workloads.check_fred_result(result, inputs)
    assert precision > 0.5 and recall > 0.5
    result.outcomes[1].utility *= 1.5
    with pytest.raises(CheckFailed, match="utility"):
        workloads.check_fred_result(result, inputs)


def test_scoped_tracer_keeps_pipeline_layers_inside_the_fred_run_only():
    import tracing

    tracer = tracing.Tracer(scope="core.fred")

    def anonymize():
        tracer.count("anonymize.calls", 1)
        tracer.count("dataset.bytes_out", 10)

    traced_anonymize = tracer._wrap(anonymize, "anonymize.mdav")
    fred = tracer._wrap(traced_anonymize, "core.fred")
    fred()  # the FRED run
    traced_anonymize()  # a service session's release, outside the FRED run
    spans, counts = tracer.take("pass")
    assert counts == {"anonymize.calls": 1, "dataset.bytes_out": 20}
    inside = next(s for s in spans if s.name == "anonymize.mdav" and s.parent is not None)
    scoped = tracing.layer_metrics(spans, counts, {}, tracer.scope)
    assert scoped["anonymize.mdav_s"] == inside.duration
    whole = tracing.layer_metrics(spans, counts, {})
    assert whole["anonymize.mdav_s"] == sum(
        s.duration for s in spans if s.name == "anonymize.mdav"
    )
