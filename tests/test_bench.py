"""Benchmark harness: measured op counts, report structure, CSV schema."""

import csv
import io
import json
import os
import random

import pytest

from hsc import bench, cli, group, keys
from hsc.bench import CSV_COLUMNS, bench_run, git_commit

EXPECTED_OPS = [
    "scalar_mult", "scalar_mult_fixed", "scalar_mult_repeat", "group_add",
    "hash_to_scalar", "decode_element", "decode_element_repeat",
    "keygen", "pchs_signcrypt", "pchs_unsigncrypt",
    "cphs_signcrypt", "cphs_unsigncrypt",
]


@pytest.fixture(scope="module")
def toy_report():
    params, _ = keys.setup("toy-101", n=64, rng=random.Random(8))
    return bench_run(params, iterations=200, algo_iterations=3,
                     rng=random.Random(9))


class TestReportShape:
    def test_all_operations_timed(self, toy_report):
        assert [t.name for t in toy_report.timings] == EXPECTED_OPS
        for t in toy_report.timings:
            assert t.mean_s >= 0 and t.median_s >= 0

    def test_iteration_counts_recorded(self, toy_report):
        assert toy_report.timing("scalar_mult").iterations == 200
        assert toy_report.timing("pchs_signcrypt").iterations == 3

    def test_group_name(self, toy_report):
        assert toy_report.group_name == "toy-101"

    def test_timing_defaults_to_one_pass_without_spread(self):
        t = bench.OpTiming("row", 3, 0.5, 0.25)
        assert (t.passes, t.pass_median_s, t.pass_iqr_s) == (1, 0.0, 0.0)
        assert t == ("row", 3, 0.5, 0.25, 1, 0.0, 0.0)

    def test_a_new_report_holds_nothing_of_another(self):
        a, b = bench.BenchReport("toy-13"), bench.BenchReport("toy-13")
        assert (a.timings, a.op_counts, a.reference_s) == ([], {}, [])
        assert a.timings is not b.timings and a.op_counts is not b.op_counts
        assert a.reference_s is not b.reference_s

    def test_rejects_zero_iterations(self):
        params, _ = keys.setup("toy-13", rng=random.Random(1))
        with pytest.raises(ValueError):
            bench_run(params, iterations=0)

    @pytest.mark.parametrize("algo_iterations", [0, -1])
    def test_rejects_nonpositive_algo_iterations(self, algo_iterations):
        params, _ = keys.setup("toy-13", rng=random.Random(1))
        with pytest.raises(ValueError, match="algo_iterations must be >= 1"):
            bench_run(params, 10, algo_iterations=algo_iterations)


class TestRowFilter:
    def test_times_only_the_named_rows(self):
        params, _ = keys.setup("toy-101", rng=random.Random(3))
        report = bench_run(params, iterations=50, rng=random.Random(4),
                           rows=("hash_to_scalar", "scalar_mult"))
        assert [t.name for t in report.timings] == ["scalar_mult", "hash_to_scalar"]
        assert report.timing("scalar_mult").iterations == 50
        assert report.op_counts == {}

    def test_repeat_row_reads_a_promoted_table(self, table_builds):
        params, _ = keys.setup("secp256k1", rng=random.Random(5))
        builds = table_builds["_fixed_window_rows"]
        group._promotion.cache_clear()
        report = bench_run(params, iterations=20, rng=random.Random(6),
                           rows=("scalar_mult_repeat",))
        assert [t.name for t in report.timings] == ["scalar_mult_repeat"]
        assert builds == [params.Ppub.value]  # in the untimed warm-up
        # scalar_mult cycles 64 points through the 16-entry cache, so it
        # keeps timing the first-use path, which C8 relies on
        bench_run(params, iterations=150, rng=random.Random(7), rows=("scalar_mult",))
        assert builds == [params.Ppub.value]

    def test_repeat_row_times_only_the_promoted_path(self, table_builds, monkeypatch):
        # scalar_mult, timed just before, evicts Ppub from the cache in
        # every pass; the warm-up, not a timed call, must promote it again
        params, _ = keys.setup("secp256k1", rng=random.Random(5))
        builds = table_builds["_fixed_window_rows"]
        timed_builds = []
        time_loop = bench._time_loop

        def spy(fn, inputs):
            before = len(builds)
            samples = time_loop(fn, inputs)
            timed_builds.extend(builds[before:])
            return samples

        monkeypatch.setattr(bench, "_time_loop", spy)
        group._promotion.cache_clear()
        bench_run(params, iterations=20, rng=random.Random(6),
                  rows=("scalar_mult", "scalar_mult_repeat"), repeat=3)
        assert timed_builds == []
        assert builds == [params.Ppub.value] * 3

    def test_pool_rows_miss_the_caches_at_few_iterations(self, table_builds, monkeypatch):
        # with fewer iterations than the 16 entries of the caches of
        # recent points and decodes, every timed call of the pool rows
        # must still be a first use and a square root
        params, _ = keys.setup("secp256k1", rng=random.Random(5))
        builds = table_builds["_fixed_window_rows"]
        timed_builds, timed_hits = [], []
        time_loop = bench._time_loop

        def spy(fn, inputs):
            before, hits = len(builds), group._decompress.cache_info().hits
            samples = time_loop(fn, inputs)
            timed_builds.extend(builds[before:])
            timed_hits.append(group._decompress.cache_info().hits - hits)
            return samples

        monkeypatch.setattr(bench, "_time_loop", spy)
        bench_run(params, iterations=10, rng=random.Random(6),
                  rows=("scalar_mult", "decode_element"), repeat=3)
        assert timed_builds == []
        assert timed_hits == [0] * 6

    def test_mult_and_add_rows_time_one_inversion_per_call(self, inversions, monkeypatch):
        # each timed call makes its product or sum affine, as every call
        # did when results were affine on return; the pool points are
        # affine when made, so group_add is a mixed addition in every pass
        params, _ = keys.setup("secp256k1", rng=random.Random(5))
        full_adds = []

        def jac_add(*args, add=group._jac_add):
            full_adds.append(args)
            return add(*args)

        monkeypatch.setattr(group, "_jac_add", jac_add)
        timed = []
        time_loop = bench._time_loop

        def spy(fn, inputs):
            before = len(inversions)
            samples = time_loop(fn, inputs)
            timed.append(len(inversions) - before)
            return samples

        monkeypatch.setattr(bench, "_time_loop", spy)
        bench_run(params, iterations=10, rng=random.Random(6), repeat=2,
                  rows=("scalar_mult", "scalar_mult_fixed", "scalar_mult_repeat", "group_add"))
        assert timed == [10] * 8
        assert full_adds == []

    def test_unknown_row_raises(self):
        params, _ = keys.setup("toy-13", rng=random.Random(1))
        with pytest.raises(ValueError, match="keygen"):
            bench_run(params, 10, rows=("scalar_mult", "keygen"))


class TestRepeatedPasses:
    def test_each_row_reports_its_pass_means(self, monkeypatch):
        calls = []

        def fake_time_loop(fn, inputs):
            # every sample of the c-th timed pass of any row takes c seconds
            calls.append(fn)
            return [float(len(calls))] * len(inputs)

        monkeypatch.setattr("hsc.bench._time_loop", fake_time_loop)
        params, _ = keys.setup("toy-101", rng=random.Random(3))
        report = bench_run(params, iterations=5, rng=random.Random(4),
                           rows=("scalar_mult", "hash_to_scalar"), repeat=4)
        # the passes interleave: scalar_mult is timed 1st, 3rd, 5th and 7th
        assert len(calls) == 8 and calls[0] is not calls[1]
        row = report.timing("scalar_mult")
        assert (row.passes, row.iterations) == (4, 5)
        assert row.mean_s == row.pass_median_s == 4.0
        assert row.pass_iqr_s == 5.5 - 2.5
        assert report.timing("hash_to_scalar").pass_median_s == 5.0

    def test_single_pass_has_no_spread(self, toy_report):
        for t in toy_report.timings:
            assert t.passes == 1 and t.pass_iqr_s == 0.0
            assert t.pass_median_s == pytest.approx(t.mean_s)

    def test_every_row_in_csv_and_json(self):
        params, _ = keys.setup("toy-101", n=64, rng=random.Random(8))
        report = bench_run(params, iterations=20, algo_iterations=2,
                           rng=random.Random(9), repeat=3)
        assert [t.name for t in report.timings] == EXPECTED_OPS
        timing_rows = [r for r in csv.DictReader(io.StringIO(report.to_csv()))
                       if r["record"] == "timing"]
        assert len(timing_rows) == len(EXPECTED_OPS)
        for row in timing_rows:
            assert row["passes"] == "3"
            assert float(row["pass_median_s"]) > 0 and float(row["pass_iqr_s"]) >= 0
        data = json.loads(report.to_json())
        assert data["rows"][0]["passes"] == 3
        # the host-speed reference, timed once before each pass
        assert len(data["meta"]["reference_s"]) == 3
        assert all(t > 0 for t in data["meta"]["reference_s"])

    @pytest.mark.parametrize("repeat", [0, -1])
    def test_rejects_nonpositive_repeat(self, repeat):
        params, _ = keys.setup("toy-13", rng=random.Random(1))
        with pytest.raises(ValueError, match="repeat must be >= 1"):
            bench_run(params, 10, repeat=repeat)

    def test_cli_repeat(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["setup", "--group", "toy-101", "--params", "p.hsc",
                         "--out", "m.hsc"]) == 0
        assert cli.main(["bench", "--params", "p.hsc", "--iters", "20",
                         "--repeat", "2", "--out", "r.csv"]) == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "r.csv").read_text())))
        assert {r["passes"] for r in rows if r["record"] == "timing"} == {"2"}
        assert cli.main(["bench", "--params", "p.hsc", "--iters", "20",
                         "--repeat", "0"]) == 2


class TestKernelRows:
    """secp256k1 adds a row for each point kernel, two for its tables and
    two for the imports that start a CLI and a demo process; toy groups
    have none."""

    def test_secp256k1_times_the_kernels(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["setup", "--group", "secp256k1", "--params", "p.hsc",
                         "--out", "m.hsc"]) == 0
        assert cli.main(["bench", "--params", "p.hsc", "--iters", "20",
                         "--json", "b.json"]) == 0
        rows = [r for r in json.loads((tmp_path / "b.json").read_text())["rows"]
                if r["record"] == "timing"]
        assert [r["name"] for r in rows] == EXPECTED_OPS[:7] + [
            "jac_double", "jac_madd", "jac_add", "load_g_table", "promotion_build",
            "cli_import", "demo_import"] + EXPECTED_OPS[7:]
        for row in rows[7:10]:
            assert row["iterations"] == 20 and float(row["mean_s"]) > 0
        # the table rows and the import rows run as often as the
        # algorithms: 20 // 100, at least 1
        for row in rows[10:14]:
            assert row["iterations"] == 1 and float(row["mean_s"]) > 0

    def test_cli_import_row_imports_this_hsc(self, tmp_path, monkeypatch):
        # the child starts in the working directory, which comes first on
        # its path; a package named hsc there must not be the one timed
        (tmp_path / "hsc").mkdir()
        (tmp_path / "hsc" / "__init__.py").write_text("raise ImportError('decoy')\n")
        monkeypatch.chdir(tmp_path)
        imported = []
        import_s = bench._import_s
        monkeypatch.setattr(bench, "_import_s",
                            lambda module: imported.append(module) or import_s(module))
        params, _ = keys.setup("secp256k1", rng=random.Random(5))
        report = bench_run(params, iterations=8, algo_iterations=2, rng=random.Random(6),
                           rows=("demo_import", "cli_import"))
        assert [(t.name, t.iterations) for t in report.timings] == \
            [("cli_import", 2), ("demo_import", 2)]
        assert all(t.mean_s > 0 for t in report.timings)
        assert imported == ["hsc.cli"] * 2 + ["hsc.netdemo"] * 2

    def test_rows_filter_selects_them(self):
        params, _ = keys.setup("secp256k1", rng=random.Random(5))
        report = bench_run(params, iterations=8, rng=random.Random(6),
                           rows=("jac_add", "jac_madd", "jac_double"))
        assert [(t.name, t.iterations) for t in report.timings] == \
            [("jac_double", 8), ("jac_madd", 8), ("jac_add", 8)]
        toy, _ = keys.setup("toy-101", rng=random.Random(5))
        with pytest.raises(ValueError, match="jac_double"):
            bench_run(toy, 8, rows=("jac_double",))

    def test_table_rows_load_and_build_the_tables(self, monkeypatch):
        params, _ = keys.setup("secp256k1", rng=random.Random(5))
        calls = {}
        # load_g_table times the loader behind its cache
        for name, owner, attr in (("_load_g_table", bench._load_g_table, "__wrapped__"),
                                  ("_fixed_window_rows", bench, "_fixed_window_rows")):
            def spy(*args, fn=getattr(owner, attr), name=name):
                table = fn(*args)
                calls.setdefault(name, []).append((args, len(table)))
                return table
            monkeypatch.setattr(owner, attr, spy)
        report = bench_run(params, iterations=8, algo_iterations=3, rng=random.Random(6),
                           rows=("promotion_build", "load_g_table"), repeat=2)
        assert [(t.name, t.iterations) for t in report.timings] == \
            [("load_g_table", 3), ("promotion_build", 3)]
        # every call is a cold load: read, checked and parsed again
        assert calls["_load_g_table"] == [((), group._G_ROWS << (group._G_WIDTH - 1))] * 6
        # a width-7 table of 19 rows of a point other than G
        builds = calls["_fixed_window_rows"]
        assert len(builds) == 6
        assert all(rest == [19, 7] and X != (group._GX, group._GY) and size == 19 * 64
                   for (X, *rest), size in builds)


class TestToyGroupKeys:
    """On toy-13, x_c + d == 0 has probability 1/12 per draw, so the
    bench's own CLC keys must go through the resampling finalize."""

    @pytest.mark.parametrize("seed", range(20))
    def test_bench_run_completes_on_toy13(self, seed):
        rng = random.Random(seed)
        params, _ = keys.setup("toy-13", rng=rng)
        report = bench_run(params, iterations=50, rng=rng)
        assert [t.name for t in report.timings] == EXPECTED_OPS
        assert report.op_counts["pchs_signcrypt"].scalar_mults == 4
        assert report.op_counts["cphs_signcrypt"].scalar_mults == 3


class TestMeasuredOpCounts:
    """The count table comes from scoped counters, so it reflects what
    the code actually does."""

    def test_key_generation(self, toy_report):
        c = toy_report.op_counts["key_generation"]
        assert (c.scalar_mults, c.hash_calls) == (4, 1)

    def test_pchs_signcrypt(self, toy_report):
        c = toy_report.op_counts["pchs_signcrypt"]
        assert (c.scalar_mults, c.hash_calls) == (4, 2)

    def test_pchs_unsigncrypt(self, toy_report):
        c = toy_report.op_counts["pchs_unsigncrypt"]
        assert (c.scalar_mults, c.hash_calls) == (4, 2)

    def test_cphs_signcrypt(self, toy_report):
        c = toy_report.op_counts["cphs_signcrypt"]
        assert (c.scalar_mults, c.hash_calls) == (3, 2)

    def test_cphs_unsigncrypt(self, toy_report):
        c = toy_report.op_counts["cphs_unsigncrypt"]
        assert (c.scalar_mults, c.hash_calls) == (4, 2)


class TestMachineReadableRows:
    def test_stable_schema(self, toy_report):
        parsed = list(csv.DictReader(io.StringIO(toy_report.to_csv())))
        assert list(parsed[0].keys()) == CSV_COLUMNS
        kinds = {row["record"] for row in parsed}
        assert kinds == {"timing", "opcount"}

    def test_timing_rows_parse_as_floats(self, toy_report):
        for row in toy_report.rows():
            if row["record"] == "timing":
                assert float(row["mean_s"]) >= 0
                assert float(row["median_s"]) >= 0
                assert int(row["iterations"]) >= 1

    def test_opcount_rows_carry_counts(self, toy_report):
        rows = {r["name"]: r for r in toy_report.rows() if r["record"] == "opcount"}
        assert rows["cphs_signcrypt"]["scalar_mults"] == 3

    def test_human_table_renders(self, toy_report):
        text = toy_report.table()
        assert "scalar_mult" in text and "cphs_unsigncrypt" in text


class TestJsonReport:
    def test_json_holds_every_csv_row(self, toy_report):
        data = json.loads(toy_report.to_json())
        csv_rows = list(csv.DictReader(io.StringIO(toy_report.to_csv())))
        json_rows = [{k: str(v) for k, v in row.items()} for row in data["rows"]]
        assert json_rows == csv_rows
        assert list(data["rows"][0]) == CSV_COLUMNS

    def test_meta(self, toy_report):
        meta = json.loads(toy_report.to_json())["meta"]
        assert meta["cpu_count"] == os.cpu_count()
        assert meta["python"].count(".") == 2
        assert meta["commit"] is None or len(meta["commit"]) == 40
        assert len(meta["reference_s"]) == 1 and meta["reference_s"][0] > 0

    def test_cli_writes_json(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["setup", "--group", "toy-101", "--params", "p.hsc",
                         "--out", "m.hsc"]) == 0
        assert cli.main(["bench", "--params", "p.hsc", "--iters", "50",
                         "--json", "bench.json"]) == 0
        data = json.loads((tmp_path / "bench.json").read_text())
        names = {(r["record"], r["name"]) for r in data["rows"]}
        assert ("timing", "scalar_mult") in names
        assert ("opcount", "cphs_unsigncrypt") in names


class TestGitCommit:
    COMMIT = "0123456789abcdef0123456789abcdef01234567"

    def _repo(self, tmp_path, head):
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text(head)
        return tmp_path

    def test_loose_ref_from_a_subdirectory(self, tmp_path):
        root = self._repo(tmp_path, "ref: refs/heads/main\n")
        (root / ".git" / "refs" / "heads" / "main").write_text(self.COMMIT + "\n")
        (root / "src" / "pkg").mkdir(parents=True)
        assert git_commit(root / "src" / "pkg") == self.COMMIT

    def test_packed_ref(self, tmp_path):
        root = self._repo(tmp_path, "ref: refs/heads/main\n")
        (root / ".git" / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{'f' * 40} refs/heads/other\n{self.COMMIT} refs/heads/main\n")
        assert git_commit(root) == self.COMMIT

    def test_detached_head(self, tmp_path):
        assert git_commit(self._repo(tmp_path, self.COMMIT + "\n")) == self.COMMIT

    def test_unborn_branch(self, tmp_path):
        assert git_commit(self._repo(tmp_path, "ref: refs/heads/main\n")) is None

    def test_submodule_reads_its_own_git_dir(self, tmp_path):
        # the submodule's .git is a file naming a directory inside the
        # enclosing repository's .git, whose own HEAD is another commit
        outer = self._repo(tmp_path, "ref: refs/heads/main\n")
        (outer / ".git" / "refs" / "heads" / "main").write_text("1" * 40 + "\n")
        modules = outer / ".git" / "modules" / "sub"
        modules.mkdir(parents=True)
        (modules / "HEAD").write_text(self.COMMIT + "\n")
        (outer / "sub" / "pkg").mkdir(parents=True)
        (outer / "sub" / ".git").write_text("gitdir: ../.git/modules/sub\n")
        assert git_commit(outer / "sub" / "pkg") == self.COMMIT

    def test_linked_worktree_reads_refs_from_its_commondir(self, tmp_path):
        main = self._repo(tmp_path / "main", "ref: refs/heads/main\n")
        (main / ".git" / "refs" / "heads" / "main").write_text("1" * 40 + "\n")
        (main / ".git" / "packed-refs").write_text(
            f"{self.COMMIT} refs/heads/feature\n")
        worktree_dir = main / ".git" / "worktrees" / "wt"
        worktree_dir.mkdir(parents=True)
        (worktree_dir / "HEAD").write_text("ref: refs/heads/feature\n")
        (worktree_dir / "commondir").write_text("../..\n")
        wt = tmp_path / "wt"
        wt.mkdir()
        (wt / ".git").write_text(f"gitdir: {worktree_dir}\n")
        assert git_commit(wt) == self.COMMIT
