"""Unit tests for the Query Repository (history + recall/re-run)."""

from __future__ import annotations

import pytest

from repro.errors import QueryError, StorageError


@pytest.fixture
def history(store):
    return store.history


class TestRecording:
    def test_record_and_entry(self, history):
        query_id = history.record(
            "lca", {"taxa": ["Lla", "Syn"]}, tree_name="fig1",
            duration_ms=1.5, result_summary="R",
        )
        entry = history.entry(query_id)
        assert entry.operation == "lca"
        assert entry.params == {"taxa": ["Lla", "Syn"]}
        assert entry.tree_name == "fig1"
        assert entry.duration_ms == 1.5
        assert entry.result_summary == "R"

    def test_unknown_entry_raises(self, history):
        with pytest.raises(StorageError):
            history.entry(42)

    def test_recent_ordering(self, history):
        for index in range(5):
            history.record(f"op{index}", {})
        entries = history.recent(limit=3)
        assert [entry.operation for entry in entries] == ["op4", "op3", "op2"]

    def test_recent_filter_by_tree(self, history):
        history.record("a", {}, tree_name="one")
        history.record("b", {}, tree_name="two")
        entries = history.recent(tree_name="one")
        assert [entry.operation for entry in entries] == ["a"]

    def test_clear(self, history):
        history.record("a", {})
        history.record("b", {})
        assert history.clear() == 2
        assert history.recent() == []


class TestRunAndRerun:
    def test_run_recorded_executes_and_records(self, history):
        calls = []
        history.register_operation("double", lambda value: calls.append(value) or value * 2)
        result = history.run_recorded("double", {"value": 21})
        assert result == 42
        assert calls == [21]
        entry = history.recent(limit=1)[0]
        assert entry.operation == "double"
        assert entry.duration_ms is not None

    def test_unregistered_operation_raises(self, history):
        with pytest.raises(QueryError):
            history.run_recorded("ghost", {})

    def test_rerun_recalls_params(self, history):
        seen = []
        history.register_operation("echo", lambda text: seen.append(text) or text)
        history.run_recorded("echo", {"text": "hello"})
        first_id = history.recent(limit=1)[0].query_id
        history.rerun(first_id)
        assert seen == ["hello", "hello"]

    def test_rerun_is_itself_recorded(self, history):
        history.register_operation("noop", lambda: None)
        history.run_recorded("noop", {})
        history.rerun(history.recent(limit=1)[0].query_id)
        assert len(history.recent()) == 2

    def test_custom_summarizer(self, history):
        history.register_operation("listing", lambda: list(range(100)))
        history.run_recorded(
            "listing", {}, summarize=lambda result: f"{len(result)} items"
        )
        assert history.recent(limit=1)[0].result_summary == "100 items"
