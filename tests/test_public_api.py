"""Tests for the top-level public API surface of the package."""

import importlib
import inspect

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_are_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists {name} but it is missing"

    def test_all_is_sorted_for_readability(self):
        assert list(repro.__all__) == sorted(repro.__all__)

    def test_version_is_a_pep440_like_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_engine_and_granularity_are_exported(self):
        assert repro.CograEngine is not None
        assert repro.Granularity("type").value == "type"

    def test_quickstart_snippet_from_readme_works(self):
        engine = repro.CograEngine.from_text(
            """
            RETURN COUNT(*)
            PATTERN (SEQ(A+, B))+
            SEMANTICS skip-till-any-match
            """
        )
        stream = [repro.Event(t, i + 1.0) for i, t in enumerate("ABAA") ] + [
            repro.Event("C", 5.0),
            repro.Event("B", 6.0),
            repro.Event("A", 7.0),
            repro.Event("B", 8.0),
        ]
        results = engine.run(stream)
        assert results[0]["COUNT(*)"] == 43


#: names that the adaptive re-planner exported; a query keeps its static
#: plan for its whole life, so none of them may linger as a fallback
REMOVED_NAMES = [
    ("repro", "QueryObservation"),
    ("repro", "ReplanConfig"),
    ("repro", "ReplanPolicy"),
    ("repro.streaming", "QueryObservation"),
    ("repro.streaming", "ReplanConfig"),
    ("repro.streaming", "ReplanController"),
    ("repro.streaming", "ReplanPolicy"),
    ("repro.streaming", "migrate_engine"),
    ("repro.streaming.config", "ReplanConfig"),
    ("repro.analyzer.cost", "ObservedStatistics"),
    ("repro.analyzer.cost", "compare_observed_costs"),
    ("repro.analyzer.cost", "observed_updates_per_event"),
    ("repro.analyzer.cost", "recommend_granularity"),
]

#: runtime members that migrated a query's plan or reported on it
REMOVED_MEMBERS = [
    "migrate_granularity",
    "plan_versions",
    "query_observations",
    "replan_log",
]


class TestRemovedSurface:
    @pytest.mark.parametrize("module_name, name", REMOVED_NAMES)
    def test_a_removed_name_is_gone(self, module_name, name):
        module = importlib.import_module(module_name)
        assert not hasattr(module, name)
        assert name not in getattr(module, "__all__", ())

    def test_the_replan_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.streaming.replan")

    @pytest.mark.parametrize("runtime", ["StreamingRuntime", "ShardedRuntime"])
    @pytest.mark.parametrize("member", REMOVED_MEMBERS)
    def test_a_removed_runtime_member_is_gone(self, runtime, member):
        assert not hasattr(getattr(repro, runtime), member)


class TestSubpackagesAreDocumented:
    SUBPACKAGES = [
        "repro.analyzer",
        "repro.baselines",
        "repro.bench",
        "repro.core",
        "repro.datasets",
        "repro.events",
        "repro.extensions",
        "repro.query",
    ]

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_every_subpackage_has_a_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 40

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_every_exported_class_and_function_is_documented(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            member = getattr(module, name)
            if inspect.isclass(member) or inspect.isfunction(member):
                assert member.__doc__, f"{module_name}.{name} lacks a docstring"
