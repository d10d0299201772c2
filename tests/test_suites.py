import pytest

from cpgraphs.suites import (
    Recorder,
    Report,
    UnknownSuite,
    available_suites,
    run_suite,
    tree_from_pruefer,
)
from cpgraphs.graphs import path_graph


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nosuch")


def test_available_suites():
    names = available_suites()
    assert "all" in names and "congruence" in names and "addressing" in names
    assert len(names) == 12


def test_report_shape():
    r = run_suite("fixtures")
    assert isinstance(r, Report)
    assert r.failed == 0 and r.passed > 0
    assert r.ok
    obj = r.to_json_obj()
    assert obj["suite"] == "fixtures"
    assert obj["failures"] == []
    assert isinstance(obj["wall_time_s"], float)


def test_seeded_suites_are_deterministic():
    a = run_suite("attach", seed=7)
    b = run_suite("attach", seed=7)
    assert (a.results, a.passed, a.failed, a.failures) == (
        b.results,
        b.passed,
        b.failed,
        b.failures,
    )


def test_alternate_seed_still_passes():
    assert run_suite("attach", seed=123).ok
    assert run_suite("block-inertia", seed=99).ok


def test_scale_caps_work():
    small = run_suite("congruence", scale=4)
    assert small.ok
    assert small.results["families"] == 1 + 1 + 2  # orders 2, 3, 4
    tiny = run_suite("linalg-crossval", scale=20)
    assert tiny.ok and tiny.results["matrices"] == 20


def test_recorder_caps_failure_list():
    rec = Recorder()
    for i in range(30):
        rec.check(False, f"boom {i}")
    assert rec.failed == 30
    assert len(rec.failures) == 20


def test_pruefer_decoder():
    # code (v,) on 3 vertices joins both leaves to v
    assert tree_from_pruefer(3, (2,)) == path_graph(3)
    t = tree_from_pruefer(6, (1, 1, 1, 1))
    assert sorted(t.degree(v) for v in range(1, 7)) == [1, 1, 1, 1, 1, 5]
    assert tree_from_pruefer(2, ()) == path_graph(2)
