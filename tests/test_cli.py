"""End-to-end tests of the ``crimson`` command-line interface."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main

NEXUS = """#NEXUS
BEGIN CHARACTERS;
    FORMAT DATATYPE=DNA;
    MATRIX
        a ACGTACGT
        b ACGTACGA
        c ACCTACGT
        d GCGTACGT
    ;
END;
BEGIN TREES;
    TREE demo = ((a:1,b:1):0.5,(c:1,d:1):0.5);
END;
"""


@pytest.fixture
def dbpath(tmp_path):
    return str(tmp_path / "cli.db")


def run(dbpath, *args, seed=None):
    argv = ["--db", dbpath]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv + [str(a) for a in args])


@pytest.fixture
def loaded(dbpath, tmp_path):
    path = tmp_path / "demo.nex"
    path.write_text(NEXUS)
    assert run(dbpath, "load", path) == 0
    return dbpath


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            ["list"],
            ["info", "t"],
            ["lca", "t", "a", "b"],
            ["benchmark", "t", "-k", "5"],
            ["simulate", "--name", "x"],
            ["serve", "--port", "2006"],
        ):
            assert parser.parse_args(command).command == command[0]

    def test_serve_accepts_port_zero(self):
        assert build_parser().parse_args(["serve", "--port", "0"]).port == 0


class TestArgumentValidation:
    """Bad numeric flags exit 2 with a one-line message, no traceback."""

    BAD_FLAGS = [
        (["--readers", "-1", "list"], "must be at least 0"),
        (["--readers", "many", "list"], "is not an integer"),
        (["--shards", "0", "list"], "must be at least 1"),
        (["--shards", "-3", "list"], "must be at least 1"),
        (["--cache-size", "0", "list"], "must be at least 1"),
        (["ping", "--port", "0"], "between 1 and 65535"),
        (["serve", "--port", "-1"], "or 0 for a free one"),
        (["serve", "--port", "65536"], "between 1 and 65535"),
        (["serve", "--port", "meh"], "is not an integer"),
    ]

    @pytest.mark.parametrize(
        "argv, message", BAD_FLAGS, ids=lambda v: " ".join(v) if isinstance(v, list) else v
    )
    def test_clean_one_line_error(self, dbpath, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--db", dbpath, *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_valid_flags_still_accepted(self, loaded, capsys):
        assert (
            main(
                ["--db", loaded, "--readers", "2", "--shards", "1",
                 "lca", "demo", "a", "b"]
            )
            == 0
        )
        assert "LCA:" in capsys.readouterr().out


class TestLoadAndCatalogue:
    def test_load_and_list(self, loaded, capsys):
        assert run(loaded, "list") == 0
        assert "demo" in capsys.readouterr().out

    def test_info(self, loaded, capsys):
        assert run(loaded, "info", "demo") == 0
        output = capsys.readouterr().out
        assert "leaves:" in output
        assert "species rows" in output

    def test_load_newick(self, dbpath, tmp_path, capsys):
        path = tmp_path / "t.nwk"
        path.write_text("(a:1,b:2);")
        assert run(dbpath, "load", path, "--format", "newick") == 0

    def test_delete(self, loaded, capsys):
        assert run(loaded, "delete", "demo") == 0
        run(loaded, "list")
        assert "no trees stored" in capsys.readouterr().out

    def test_error_on_unknown_tree(self, dbpath, capsys):
        assert run(dbpath, "info", "ghost") == 1
        assert "error:" in capsys.readouterr().err

    def test_append_species(self, loaded, tmp_path, capsys):
        matrix = tmp_path / "chars.nex"
        matrix.write_text(NEXUS)
        assert run(loaded, "append-species", "demo", matrix, "--replace") == 0


class TestQueries:
    def test_lca(self, loaded, capsys):
        assert run(loaded, "lca", "demo", "a", "b") == 0
        assert "LCA:" in capsys.readouterr().out

    def test_lca_batch(self, loaded, capsys):
        assert run(loaded, "lca-batch", "demo", "a,b", "c,d") == 0
        output = capsys.readouterr().out
        assert "LCA(a, b):" in output
        assert "LCA(c, d):" in output

    def test_lca_batch_stats(self, loaded, capsys):
        assert run(loaded, "lca-batch", "demo", "a,b", "a,b", "--stats") == 0
        output = capsys.readouterr().out
        assert "cache" in output
        assert "hits=" in output

    def test_lca_batch_malformed_pair(self, loaded, capsys):
        assert run(loaded, "lca-batch", "demo", "a") == 1
        assert "comma-separated" in capsys.readouterr().err

    def test_cache_size_flag(self, loaded, capsys):
        assert (
            main(["--db", loaded, "--cache-size", "2", "lca", "demo", "a", "b"])
            == 0
        )
        assert "LCA:" in capsys.readouterr().out

    def test_readers_flag(self, loaded, capsys):
        assert (
            main(["--db", loaded, "--readers", "2", "lca", "demo", "a", "b"])
            == 0
        )
        assert "LCA:" in capsys.readouterr().out

    def test_readers_flag_rejects_negative(self, loaded):
        with pytest.raises(SystemExit) as excinfo:
            main(["--db", loaded, "--readers", "-1", "list"])
        assert excinfo.value.code == 2

    def test_load_missing_file_exits_one(self, dbpath, capsys):
        assert run(dbpath, "load", "/no/such/file.nex") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unknown_taxon_exits_one(self, loaded, capsys):
        assert run(loaded, "lca", "demo", "a", "ghost") == 1
        assert "error:" in capsys.readouterr().err

    def test_clade(self, loaded, capsys):
        assert run(loaded, "clade", "demo", "a", "b") == 0
        output = capsys.readouterr().out
        assert "leaf" in output

    def test_frontier(self, loaded, capsys):
        assert run(loaded, "frontier", "demo", "--time", "0.7") == 0
        output = capsys.readouterr().out
        assert "dist=" in output

    def test_sample(self, loaded, capsys):
        assert run(loaded, "sample", "demo", "-k", "2", seed=1) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_sample_time(self, loaded, capsys):
        assert (
            run(loaded, "sample", "demo", "-k", "2", "--method", "time",
                "--time", "0.7", seed=1)
            == 0
        )

    def test_project_explicit(self, loaded, capsys):
        assert run(loaded, "project", "demo", "--taxa", "a", "b", "c") == 0
        assert capsys.readouterr().out.strip().endswith(";")

    def test_project_random(self, loaded, capsys):
        assert run(loaded, "project", "demo", "-k", "2", seed=3) == 0

    def test_match_success_exit_code(self, loaded, capsys):
        assert run(loaded, "match", "demo", "((a,b),(c,d));") == 0
        assert "matched:    True" in capsys.readouterr().out

    def test_match_failure_exit_code(self, loaded, capsys):
        assert run(loaded, "match", "demo", "((a,c),(b,d));") == 1

    def test_history_records_queries(self, loaded, capsys):
        run(loaded, "lca", "demo", "a", "b")
        run(loaded, "history")
        assert "lca" in capsys.readouterr().out


@pytest.fixture
def profile_db(dbpath, tmp_path):
    """Three stored trees over one leaf set (two agree, one dissents)."""
    shapes = {
        "t1": "((a:1,b:1):0.5,(c:1,d:1):0.5)r;",
        "t2": "((a:1,c:1):0.5,(b:1,d:1):0.5)r;",
        "t3": "((a:1,b:1):0.5,(c:1,d:1):0.5)r;",
    }
    for name, newick in shapes.items():
        path = tmp_path / f"{name}.nwk"
        path.write_text(newick + "\n")
        assert run(dbpath, "load", path, "--format", "newick", "--name", name) == 0
    return dbpath


class TestAnalyticsCommands:
    def test_compare_two_trees(self, profile_db, capsys):
        assert run(profile_db, "compare", "t1", "t2") == 0
        output = capsys.readouterr().out
        assert "RF distance:     2" in output
        assert "shared clusters:" in output
        assert "normalized RF:" in output

    def test_compare_identical_trees(self, profile_db, capsys):
        assert run(profile_db, "compare", "t1", "t3") == 0
        assert "RF distance:     0" in capsys.readouterr().out

    def test_compare_many_prints_matrix(self, profile_db, capsys):
        assert run(profile_db, "compare", "t1", "t2", "t3") == 0
        output = capsys.readouterr().out
        lines = output.strip().splitlines()
        assert lines[0].split() == ["t1", "t2", "t3"]
        assert lines[1].split() == ["t1", "0", "2", "0"]

    def test_consensus_prints_newick(self, profile_db, capsys):
        assert run(profile_db, "consensus", "t1", "t2", "t3") == 0
        output = capsys.readouterr().out
        # The majority groups (a,b) and (c,d): t2 is outvoted 2-to-1.
        assert output.startswith("(")
        assert "a" in output and "d" in output

    def test_consensus_support_table(self, profile_db, capsys):
        assert run(
            profile_db, "consensus", "t1", "t2", "t3", "--support"
        ) == 0
        output = capsys.readouterr().out
        assert "66.7%" in output
        assert "{a, b}" in output

    def test_consensus_strict(self, profile_db, capsys):
        assert run(profile_db, "consensus", "t1", "t3", "--strict") == 0
        assert capsys.readouterr().out.startswith("(")

    def test_consensus_ascii_format(self, profile_db, capsys):
        assert run(
            profile_db, "consensus", "t1", "t3", "--format", "ascii"
        ) == 0
        assert capsys.readouterr().out

    def test_disjoint_leaf_sets_exit_one(self, profile_db, tmp_path, capsys):
        other = tmp_path / "other.nwk"
        other.write_text("((x:1,y:1):1,z:1)r;\n")
        assert run(profile_db, "load", other, "--format", "newick") == 0
        capsys.readouterr()
        assert run(profile_db, "compare", "t1", "other") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "different leaf sets" in err

    def test_bad_threshold_exit_codes(self, profile_db, capsys):
        # Out-of-range: a typed QueryError, exit 1.
        assert run(profile_db, "consensus", "t1", "--threshold", "0.3") == 1
        assert "threshold" in capsys.readouterr().err
        # Unparseable: an argparse error, exit 2.
        with pytest.raises(SystemExit) as excinfo:
            run(profile_db, "consensus", "t1", "--threshold", "meh")
        assert excinfo.value.code == 2

    def test_compare_single_tree_exit_one(self, profile_db, capsys):
        assert run(profile_db, "compare", "t1") == 1
        assert "at least two trees" in capsys.readouterr().err

    def test_unknown_tree_exit_one(self, profile_db, capsys):
        assert run(profile_db, "compare", "t1", "missing") == 1
        assert "no tree named" in capsys.readouterr().err

    def test_analytics_recorded_and_rerunnable(self, profile_db, capsys):
        assert run(profile_db, "compare", "t1", "t2") == 0
        assert run(profile_db, "consensus", "t1", "t2", "t3") == 0
        capsys.readouterr()
        assert run(profile_db, "history") == 0
        history = capsys.readouterr().out
        assert "compare" in history and "consensus" in history
        # Recorded query #1 is the compare; rerun replays it.
        assert run(profile_db, "rerun", "1") == 0
        output = capsys.readouterr().out
        assert "re-running #1: compare" in output
        assert "RF distance:     2" in output


class TestViewAndExport:
    @pytest.mark.parametrize(
        "fmt,needle",
        [
            ("ascii", "└──"),
            ("phylogram", "|"),
            ("newick", ";"),
            ("nexus", "#NEXUS"),
            ("walrus", "walrus-json"),
        ],
    )
    def test_view_formats(self, loaded, capsys, fmt, needle):
        assert run(loaded, "view", "demo", "--format", fmt) == 0
        assert needle in capsys.readouterr().out

    def test_export_walrus(self, loaded, tmp_path, capsys):
        out = tmp_path / "demo.json"
        assert run(loaded, "export", "demo", out, "--format", "walrus") == 0
        document = json.loads(out.read_text())
        assert document["n_nodes"] == 7


class TestSimulateAndBenchmark:
    def test_simulate_structure_only(self, dbpath, capsys):
        assert (
            run(dbpath, "simulate", "--name", "sim", "--leaves", "20", seed=5)
            == 0
        )
        run(dbpath, "info", "sim")
        assert "leaves:      20" in capsys.readouterr().out

    def test_simulate_with_sequences_and_benchmark(self, dbpath, capsys):
        assert (
            run(
                dbpath, "simulate", "--name", "sim", "--leaves", "30",
                "--seq-length", "200", "--subst-model", "hky85", seed=6,
            )
            == 0
        )
        assert (
            run(
                dbpath, "benchmark", "sim", "-k", "8", "--trials", "1",
                "--algorithms", "nj-jc69", "random", seed=7,
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "nj-jc69" in output
        assert "random" in output

    def test_simulate_birth_death(self, dbpath, capsys):
        assert (
            run(
                dbpath, "simulate", "--name", "bd", "--model", "birth-death",
                "--leaves", "15", "--death", "0.2", seed=8,
            )
            == 0
        )

    def test_simulate_coalescent(self, dbpath, capsys):
        assert (
            run(
                dbpath, "simulate", "--name", "co", "--model", "coalescent",
                "--leaves", "12", seed=9,
            )
            == 0
        )


class TestBootstrapCommand:
    def test_bootstrap_end_to_end(self, dbpath, capsys):
        assert (
            run(
                dbpath, "simulate", "--name", "sim", "--leaves", "25",
                "--seq-length", "300", seed=11,
            )
            == 0
        )
        assert (
            run(
                dbpath, "bootstrap", "sim", "-k", "6",
                "--replicates", "20", "--algorithm", "nj-jc69", seed=12,
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "replicates" in output
        assert "mean support" in output

    def test_bootstrap_without_species_data_fails(self, loaded, capsys):
        # The 'demo' fixture tree has species data, so delete it first.
        from repro.storage.store import CrimsonStore

        with CrimsonStore.open(loaded) as store:
            repo = store.trees
            species = store.species
            species.delete_for_tree(repo.open("demo"))
        assert run(loaded, "bootstrap", "demo", "-k", "3", seed=1) == 1
        assert "error:" in capsys.readouterr().err

    def test_bootstrap_recorded_in_history(self, dbpath, capsys):
        run(dbpath, "simulate", "--name", "sim", "--leaves", "20",
            "--seq-length", "200", seed=13)
        run(dbpath, "bootstrap", "sim", "-k", "5", "--replicates", "10",
            seed=14)
        capsys.readouterr()
        run(dbpath, "history")
        assert "bootstrap" in capsys.readouterr().out


class TestMonitoringCommands:
    def test_health_local_is_ok_and_exit_zero(self, loaded, capsys):
        assert run(loaded, "health") == 0
        output = capsys.readouterr().out
        assert output.startswith("status: ok")
        assert "inflight_fraction" in output

    def test_health_json_is_parseable(self, loaded, capsys):
        assert run(loaded, "health", "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "ok"
        assert {check["name"] for check in report["checks"]} == {
            "error_rate", "p99_ms", "queue_depth", "inflight_fraction"
        }

    def test_top_renders_one_bounded_frame(self, loaded, capsys):
        assert run(loaded, "lca", "demo", "a", "b") == 0
        capsys.readouterr()
        assert run(loaded, "top", "--iterations", "1") == 0
        frame = capsys.readouterr().out
        assert frame.startswith("crimson top —")
        assert "transport=local" in frame

    def test_top_rejects_negative_iterations(self, loaded, capsys):
        with pytest.raises(SystemExit):
            run(loaded, "top", "--iterations", "-1")


class TestServeOnAFreePort:
    def test_banner_names_the_port_the_os_picked(self, loaded, capsys):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(__file__).parents[1] / "src"),
                          env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main", "--db", loaded,
             "serve", "--port", "0", "--drain-timeout", "2"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r" on 127\.0\.0\.1:(\d+) ", banner)
            assert match, banner
            port = match.group(1)
            assert port != "0"
            assert main(["ping", "--host", "127.0.0.1", "--port", port]) == 0
            assert json.loads(capsys.readouterr().out)["transport"] == "tcp"
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=20)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=10)
        assert process.returncode == 0
