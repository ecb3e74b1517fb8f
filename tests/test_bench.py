"""Benchmark harness: measured op counts, report structure, CSV schema."""

import csv
import io
import json
import os
import random

import pytest

from hsc import cli, keys
from hsc.bench import CSV_COLUMNS, bench_run, git_commit

EXPECTED_OPS = [
    "scalar_mult", "scalar_mult_fixed", "group_add", "hash_to_scalar",
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

    def test_rejects_zero_iterations(self):
        params, _ = keys.setup("toy-13", rng=random.Random(1))
        with pytest.raises(ValueError):
            bench_run(params, iterations=0)

    @pytest.mark.parametrize("algo_iterations", [0, -1])
    def test_rejects_nonpositive_algo_iterations(self, algo_iterations):
        params, _ = keys.setup("toy-13", rng=random.Random(1))
        with pytest.raises(ValueError, match="algo_iterations must be >= 1"):
            bench_run(params, 10, algo_iterations=algo_iterations)


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
