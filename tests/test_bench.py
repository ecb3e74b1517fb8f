"""Benchmark harness: measured op counts, report structure, JSON schema."""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hsc import bench, cli, group, keys
from hsc.bench import bench_run, source_sha256

# the fixed columns of every row of the JSON report, in order
COLUMNS = [
    "record", "group", "name", "iterations",
    "mean_s", "median_s",
    "scalar_mults", "group_adds", "hash_calls",
    "passes", "pass_median_s", "pass_iqr_s",
]

EXPECTED_OPS = [
    "scalar_mult", "scalar_mult_fixed", "scalar_mult_repeat", "group_add",
    "hash_to_scalar", "h3_1k", "decode_element", "decode_element_repeat",
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

    @pytest.mark.parametrize("n,mask_len", [(64, 8), (16384, 1024)])
    def test_h3_row_squeezes_at_most_1k(self, monkeypatch, n, mask_len):
        # a pool point's keystream of min(1024, max_message_bytes) bytes
        params, _ = keys.setup("toy-101", n=n, rng=random.Random(3))
        h3, calls = params.oracles.h3, []
        monkeypatch.setattr(params.oracles, "h3",
                            lambda R2, out_len: calls.append(out_len) or h3(R2, out_len))
        report = bench_run(params, iterations=5, rng=random.Random(4), rows=("h3_1k",))
        assert [(t.name, t.iterations) for t in report.timings] == [("h3_1k", 5)]
        assert calls == [mask_len] * 5

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

    def test_no_timed_call_builds_a_table(self, table_builds, monkeypatch):
        # the keygen row makes a fresh Ppub in every call, which evicts
        # the bench keys' tables; each algorithm row's untimed warm-up,
        # not a timed call, must promote them again in every pass
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
        monkeypatch.setattr(bench, "_child_s", lambda *args: 0.0)  # no child processes
        report = bench_run(params, iterations=8, algo_iterations=2,
                           rng=random.Random(6), repeat=2)
        assert report.timing("cphs_unsigncrypt").iterations == 2
        assert builds and timed_builds == []

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

    def test_every_row_in_json(self):
        params, _ = keys.setup("toy-101", n=64, rng=random.Random(8))
        report = bench_run(params, iterations=20, algo_iterations=2,
                           rng=random.Random(9), repeat=3)
        assert [t.name for t in report.timings] == EXPECTED_OPS
        data = json.loads(report.to_json())
        timing_rows = [r for r in data["rows"] if r["record"] == "timing"]
        assert [r["name"] for r in timing_rows] == EXPECTED_OPS
        for row in timing_rows:
            assert row["passes"] == 3
            assert float(row["pass_median_s"]) > 0 and float(row["pass_iqr_s"]) >= 0
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
                         "--repeat", "2", "--json", "r.json"]) == 0
        rows = json.loads((tmp_path / "r.json").read_text())["rows"]
        assert {r["passes"] for r in rows if r["record"] == "timing"} == {2}
        assert cli.main(["bench", "--params", "p.hsc", "--iters", "20",
                         "--repeat", "0"]) == 2


class TestKernelRows:
    """secp256k1 adds a row for each point kernel, two for its tables,
    two for the imports that start a CLI and a demo process and one for
    a process's first two k*P; toy groups have none."""

    def test_secp256k1_times_the_kernels(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["setup", "--group", "secp256k1", "--params", "p.hsc",
                         "--out", "m.hsc"]) == 0
        assert cli.main(["bench", "--params", "p.hsc", "--iters", "20",
                         "--json", "b.json"]) == 0
        rows = [r for r in json.loads((tmp_path / "b.json").read_text())["rows"]
                if r["record"] == "timing"]
        assert [r["name"] for r in rows] == EXPECTED_OPS[:8] + [
            "jac_double", "jac_madd", "jac_add", "load_g_table", "promotion_build",
            "cli_import", "demo_import", "first_kp_process"] + EXPECTED_OPS[8:]
        for row in rows[8:11]:
            assert row["iterations"] == 20 and float(row["mean_s"]) > 0
        # the table rows and the process rows run as often as the
        # algorithms: 20 // 100, at least 1
        for row in rows[11:16]:
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

    def test_first_kp_row_runs_this_hsc(self, tmp_path, monkeypatch):
        # as for cli_import, a package named hsc in the working directory
        # must not be the one timed
        (tmp_path / "hsc").mkdir()
        (tmp_path / "hsc" / "__init__.py").write_text("raise ImportError('decoy')\n")
        monkeypatch.chdir(tmp_path)
        params, _ = keys.setup("secp256k1", rng=random.Random(5))
        report = bench_run(params, iterations=8, algo_iterations=2, rng=random.Random(6),
                           rows=("first_kp_process",))
        assert [(t.name, t.iterations) for t in report.timings] == [("first_kp_process", 2)]
        # two first uses of G, a millisecond or so each on any host
        assert 0 < report.timings[0].mean_s < 1

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
        parsed = json.loads(toy_report.to_json())["rows"]
        assert all(list(row) == COLUMNS for row in parsed)
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
    def test_json_holds_every_row(self, toy_report):
        data = json.loads(toy_report.to_json())
        assert data["rows"] == toy_report.rows()
        # times are strings with nine decimals; an op-count row leaves them empty
        timing = data["rows"][0]
        assert timing["record"] == "timing"
        assert all(isinstance(timing[k], str) and len(timing[k].partition(".")[2]) == 9
                   for k in ("mean_s", "median_s", "pass_median_s", "pass_iqr_s"))
        opcount = data["rows"][-1]
        assert opcount["record"] == "opcount"
        assert opcount["mean_s"] == opcount["passes"] == ""

    def test_meta(self, toy_report):
        meta = json.loads(toy_report.to_json())["meta"]
        assert meta["cpu_count"] == os.cpu_count()
        assert meta["python"].count(".") == 2
        assert sorted(meta) == ["cpu_count", "python", "reference_s", "source_sha256"]
        digest = meta["source_sha256"]
        assert digest == source_sha256()
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
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


class TestSeededCommand:
    def test_setup_and_run_share_one_generator(self, monkeypatch, capsys):
        # under HSC_SEED a generator made afresh for the run would replay
        # the setup's stream: the bench's first pool point would be s*P,
        # which is Ppub
        monkeypatch.setenv("HSC_SEED", "7")
        seen = {}
        real_setup = keys.setup

        def spy_setup(*args, rng=None, **kwargs):
            seen["setup_rng"] = rng
            seen["params"], _ = result = real_setup(*args, rng=rng, **kwargs)
            return result

        def spy_run(params, *args, rng=None, **kwargs):
            seen["run_rng"] = rng
            # the draw bench_run makes first, for its first pool point
            seen["first_pool_point"] = params.group.random_scalar(rng) * params.P
            return bench.BenchReport(params.group.descriptor.name)

        monkeypatch.setattr(keys, "setup", spy_setup)
        monkeypatch.setattr(bench, "bench_run", spy_run)
        assert cli.main(["bench", "--iters", "20"]) == 0
        assert "group: secp256k1" in capsys.readouterr().out
        assert isinstance(seen["setup_rng"], random.Random)
        assert seen["run_rng"] is seen["setup_rng"]
        assert seen["first_pool_point"] != seen["params"].Ppub


class TestSourceDigest:
    """meta.source_sha256 names the code by its files, wherever they lie."""

    PACKAGE = Path(bench.__file__).resolve().parent

    def _copy(self, root):
        shutil.copytree(self.PACKAGE, root / "src" / "hsc",
                        ignore=shutil.ignore_patterns("__pycache__"))
        return root / "src"

    def _imported_digest(self, src):
        # a fresh interpreter imports hsc.bench from `src`, as a run of
        # an unpacked archive does
        out = subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
             "import hsc.bench as b; print(b.__file__); print(b.source_sha256())", str(src)],
            capture_output=True, text=True, check=True).stdout.split()
        assert Path(out[0]).resolve().parent == (src / "hsc").resolve()
        return out[1]

    def test_a_copy_outside_any_checkout_gives_the_same_digest(self, tmp_path):
        assert self._imported_digest(self._copy(tmp_path)) == source_sha256()

    def test_a_copy_inside_another_checkout_gives_its_own_digest(self, tmp_path):
        (tmp_path / ".git" / "refs" / "heads").mkdir(parents=True)
        (tmp_path / ".git" / "HEAD").write_text("0123456789abcdef0123456789abcdef01234567\n")
        assert self._imported_digest(self._copy(tmp_path)) == source_sha256()

    def test_one_changed_byte_in_any_file_changes_it(self, tmp_path, monkeypatch):
        package = self._copy(tmp_path) / "hsc"
        monkeypatch.setattr(bench, "__file__", str(package / "bench.py"))
        original = source_sha256()
        seen = {original}
        for path in sorted(package.glob("*.py")):
            data = path.read_bytes()
            path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
            seen.add(source_sha256())
            path.write_bytes(data)
        assert len(seen) == 1 + len(list(package.glob("*.py")))
        assert source_sha256() == original

    def test_a_bytecode_cache_does_not_change_it(self, tmp_path, monkeypatch):
        package = self._copy(tmp_path) / "hsc"
        monkeypatch.setattr(bench, "__file__", str(package / "bench.py"))
        before = source_sha256()
        (package / "__pycache__").mkdir()
        (package / "__pycache__" / "bench.cpython-311.pyc").write_bytes(b"\0" * 64)
        (package / "__pycache__" / "stray.py").write_text("x = 1\n")
        assert source_sha256() == before
