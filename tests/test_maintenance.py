"""Unit tests for store integrity verification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.birth_death import yule_tree
from repro.storage.maintenance import verify_store, verify_tree
from repro.trees.build import caterpillar


@pytest.fixture
def stored(store, fig1):
    return store.trees.store_tree(fig1, f=2)


class TestHealthyStores:
    def test_fig1_passes(self, store, stored):
        report = verify_tree(store, "fig1-sample")
        assert report.ok
        assert "OK" in str(report)

    def test_deep_tree_passes(self, store):
        store.trees.store_tree(caterpillar(500), name="deep", f=3)
        assert verify_tree(store, "deep").ok

    def test_random_trees_pass(self, store):
        rng = np.random.default_rng(0)
        repo = store.trees
        for index, f in enumerate((1, 2, 4, 8)):
            repo.store_tree(yule_tree(50, rng=rng), name=f"y{index}", f=f)
        reports = verify_store(store)
        assert len(reports) == 4
        assert all(report.ok for report in reports)

    def test_empty_store(self, store):
        assert verify_store(store) == []


class TestDetectsCorruption:
    def test_missing_nodes(self, store, stored):
        store.db.execute("DELETE FROM nodes WHERE name = 'Lla'")
        report = verify_tree(store, "fig1-sample")
        assert not report.ok
        assert any("nodes" in problem for problem in report.problems)

    def test_orphaned_parent_pointer(self, store, stored):
        store.db.execute("UPDATE nodes SET parent_id = 999 WHERE name = 'Lla'")
        report = verify_tree(store, "fig1-sample")
        assert any("parent" in problem for problem in report.problems)

    def test_broken_interval(self, store, stored):
        store.db.execute("UPDATE nodes SET pre_order_end = 0 WHERE name = 'x'")
        report = verify_tree(store, "fig1-sample")
        assert any("interval" in problem for problem in report.problems)

    def test_missing_canonical_inode(self, store, stored):
        store.db.execute(
            "DELETE FROM inodes WHERE is_canonical = 1 AND orig_node_id = "
            "(SELECT node_id FROM nodes WHERE name = 'Spy')"
        )
        report = verify_tree(store, "fig1-sample")
        assert any("canonical" in problem for problem in report.problems)

    def test_label_over_bound(self, store, stored):
        store.db.execute("UPDATE inodes SET label_depth = 99 WHERE local_label != ''")
        report = verify_tree(store, "fig1-sample")
        assert any("bound" in problem for problem in report.problems)

    def test_duplicate_label(self, store, stored):
        # The unique index must be dropped to inject this corruption —
        # which is itself evidence the schema guards the invariant.
        store.db.execute("DROP INDEX idx_inodes_label")
        store.db.execute(
            "UPDATE inodes SET block_id = 0, local_label = '1' "
            "WHERE block_id = 1 AND local_label = '2'"
        )
        report = verify_tree(store, "fig1-sample")
        assert any("duplicated" in problem for problem in report.problems)

    def test_missing_rep(self, store, stored):
        store.db.execute("UPDATE blocks SET rep_inode_id = NULL WHERE layer = 0")
        report = verify_tree(store, "fig1-sample")
        assert any("representatives" in problem for problem in report.problems)

    def test_invalid_source(self, store, stored):
        store.db.execute(
            "UPDATE blocks SET source_inode_id = 9999 "
            "WHERE source_inode_id IS NOT NULL"
        )
        report = verify_tree(store, "fig1-sample")
        assert any("source" in problem for problem in report.problems)

    def test_split_top_layer(self, store, stored):
        store.db.execute("UPDATE blocks SET layer = 1 WHERE block_id = 1")
        report = verify_tree(store, "fig1-sample")
        assert not report.ok

    def test_report_string_lists_problems(self, store, stored):
        store.db.execute("DELETE FROM nodes WHERE name = 'Lla'")
        text = str(verify_tree(store, "fig1-sample"))
        assert "problem" in text


class TestStoreVerification:
    """Verification through the store: pooled readers, shard sweeps."""

    def _seed(self, store):
        from repro.trees.build import sample_tree

        store.load_tree(sample_tree(), name="fig1")
        store.load_tree(caterpillar(80), name="deep")
        store.load_newick_text("((a:1,b:1):1,c:2);", name="tiny")

    def test_verify_runs_on_pooled_readers_only(self, tmp_path):
        """Regression: verification must not touch the writer, so an
        integrity sweep never contends with a concurrent load."""
        from repro.storage.store import CrimsonStore

        with CrimsonStore.open(tmp_path / "v.db", readers=2) as store:
            self._seed(store)
            writer_before = store.db.statements_executed
            reports = store.verify()
            assert len(reports) == 3 and all(r.ok for r in reports)
            assert store.db.statements_executed == writer_before
            assert store.pool.statements_executed() > 0

    def test_verify_iterates_shards(self, tmp_path):
        from repro.storage.store import CrimsonStore

        with CrimsonStore.open(tmp_path / "v.db", readers=2, shards=3) as store:
            self._seed(store)
            assert {i.shard for i in store.trees.list_trees()} == {0, 1, 2}
            reports = store.verify()
            assert len(reports) == 3 and all(r.ok for r in reports)
            assert store.verify("deep")[0].ok

    def test_verify_detects_damage_on_a_shard(self, tmp_path):
        from repro.storage.store import CrimsonStore

        with CrimsonStore.open(tmp_path / "v.db", shards=2) as store:
            self._seed(store)
            victim = next(i for i in store.trees.list_trees() if i.shard == 1)
            with store.shard_database(1).transaction() as connection:
                connection.execute(
                    "DELETE FROM nodes WHERE tree_id = ? AND is_leaf = 1 "
                    "AND node_id = (SELECT MAX(node_id) FROM nodes "
                    "WHERE tree_id = ?)",
                    (victim.tree_id, victim.tree_id),
                )
            report = store.verify(victim.name)[0]
            assert not report.ok
            assert any("nodes" in problem for problem in report.problems)

    def test_verify_reports_orphan_shard_rows(self, tmp_path):
        """Rows whose catalogue entry is gone are flagged per shard."""
        from repro.storage.store import CrimsonStore

        with CrimsonStore.open(tmp_path / "v.db", shards=2) as store:
            self._seed(store)
            victim = next(i for i in store.trees.list_trees() if i.shard == 1)
            # Simulate the residue of a crash between the two commits of
            # a cross-file delete: catalogue row gone, shard rows left.
            with store.db.transaction() as connection:
                connection.execute(
                    "DELETE FROM trees WHERE tree_id = ?", (victim.tree_id,)
                )
            reports = store.verify()
            orphaned = [r for r in reports if not r.ok]
            assert len(orphaned) == 1
            assert orphaned[0].tree_name == "<shard 1>"
            assert str(victim.tree_id) in orphaned[0].problems[0]


class TestCliVerify:
    def test_verify_ok(self, tmp_path, capsys):
        from repro.cli.main import main

        dbpath = str(tmp_path / "v.db")
        nexus = tmp_path / "t.nex"
        nexus.write_text(
            "#NEXUS\nBEGIN TREES;\nTREE demo = ((a:1,b:1):1,c:1);\nEND;\n"
        )
        assert main(["--db", dbpath, "load", str(nexus)]) == 0
        assert main(["--db", dbpath, "verify"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_detects_damage(self, tmp_path, capsys):
        from repro.cli.main import main
        from repro.storage.store import CrimsonStore

        dbpath = str(tmp_path / "v.db")
        nexus = tmp_path / "t.nex"
        nexus.write_text(
            "#NEXUS\nBEGIN TREES;\nTREE demo = ((a:1,b:1):1,c:1);\nEND;\n"
        )
        main(["--db", dbpath, "load", str(nexus)])
        with CrimsonStore.open(dbpath) as store:
            with store.db.transaction() as connection:
                connection.execute("DELETE FROM nodes WHERE name = 'a'")
        # The tree is stored under the file stem 't'.
        assert main(["--db", dbpath, "verify", "t"]) == 1
        assert "problem" in capsys.readouterr().out

    def test_verify_empty_store(self, tmp_path, capsys):
        from repro.cli.main import main

        assert main(["--db", str(tmp_path / "e.db"), "verify"]) == 0
        assert "no trees" in capsys.readouterr().out
