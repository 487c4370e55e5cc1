"""Tests for the ``repro-hc`` command-line front end."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.harness import validate_metrics_payload

from tests.conftest import generator_fallback


def canonical_records(path):
    """A JSONL store's records minus ``elapsed_s``, as sorted-key JSON."""
    with path.open() as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    for record in records:
        record.pop("elapsed_s", None)
    return [json.dumps(record, sort_keys=True) for record in records]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_dhc2_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dhc2", "--nodes", "64",
            "--delta", "0.5", "--c", "6", "--seed", "3", "--json")
        payload = json.loads(out)
        assert payload["algorithm"] == "dhc2"
        assert payload["n"] == 64
        assert isinstance(payload["rounds"], int)
        assert code in (0, 1)
        assert code == (0 if payload["success"] else 1)

    def test_legacy_flags_imply_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "--algorithm", "dra", "--nodes", "48", "--seed", "1",
            "--json")
        payload = json.loads(out)
        assert payload["algorithm"] == "dra"

    def test_human_output_mentions_cycle(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dra", "--nodes", "48",
            "--seed", "1")
        assert "graph: gnp(n=48" in out
        if code == 0:
            assert "cycle:" in out

    def test_levy_baseline_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "levy", "--nodes", "96",
            "--delta", "0.25", "--c", "2", "--seed", "1", "--json")
        payload = json.loads(out)
        assert payload["algorithm"] == "levy"
        assert payload["engine"] == "fast"

    def test_local_baseline_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "local", "--nodes", "96",
            "--seed", "1", "--json")
        payload = json.loads(out)
        assert payload["algorithm"] == "local"
        assert payload["bits"] > 0

    def test_kmachine_conversion_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dra", "--nodes", "48",
            "--seed", "2", "--k-machines", "4", "--json")
        payload = json.loads(out)
        assert "kmachine" in payload
        assert payload["kmachine"]["k"] == 4.0

    def test_kmachine_rejected_for_centralized(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--algorithm", "upcast", "--nodes", "48",
            "--k-machines", "4")
        assert code == 2
        assert "fully-distributed" in err

    def test_native_kmachine_engine_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dra", "--nodes", "64",
            "--delta", "1.0", "--c", "8", "--seed", "2",
            "--engine", "kmachine", "--k-machines", "4", "--json")
        payload = json.loads(out)
        assert payload["engine"] == "kmachine"
        assert payload["detail"]["k_machines"] == 4
        assert payload["detail"]["kmachine_rounds"] >= payload["rounds"] > 0
        assert payload["kmachine"]["k"] == 4.0

    def test_native_kmachine_defaults_and_link_words(self, capsys):
        base = ("run", "--algorithm", "dra", "--nodes", "64",
                "--delta", "1.0", "--c", "8", "--seed", "2",
                "--engine", "kmachine", "--json")
        _, out_default, _ = run_cli(capsys, *base)
        _, out_narrow, _ = run_cli(capsys, *base, "--link-words", "1")
        default = json.loads(out_default)
        narrow = json.loads(out_narrow)
        assert default["detail"]["k_machines"] == 8  # DEFAULT_K_MACHINES
        assert narrow["detail"]["link_words"] == 1
        assert (narrow["detail"]["kmachine_rounds"]
                > default["detail"]["kmachine_rounds"])
        # The cost model never perturbs the protocol.
        assert narrow["rounds"] == default["rounds"]

    def test_native_kmachine_dhc2_keeps_color_k(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dhc2", "--nodes", "96",
            "--delta", "0.5", "--c", "6", "--seed", "2",
            "--engine", "kmachine", "--k", "4", "--k-machines", "2",
            "--json")
        payload = json.loads(out)
        assert payload["detail"]["k"] == 4            # colour count
        assert payload["detail"]["k_machines"] == 2   # machine count

    def test_native_kmachine_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--algorithm", "dra", "--engine", "kmachine",
            "--sizes", "48,64", "--trials", "2", "--c", "8",
            "--delta", "1.0", "--seed", "5", "--k-machines", "4", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["engine"] == "kmachine"
        assert all(row[2] >= 0 for row in payload["rows"])

    def test_converted_report_honours_link_words(self, capsys):
        base = ("run", "--algorithm", "dra", "--nodes", "48", "--seed", "2",
                "--k-machines", "4", "--json")
        _, out_wide, _ = run_cli(capsys, *base)
        _, out_narrow, _ = run_cli(capsys, *base, "--link-words", "1")
        wide = json.loads(out_wide)["kmachine"]
        narrow = json.loads(out_narrow)["kmachine"]
        assert narrow["kmachine_rounds"] > wide["kmachine_rounds"]

    def test_gnm_model(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dra", "--engine", "fast", "--nodes", "64",
            "--model", "gnm", "--seed", "2", "--json")
        payload = json.loads(out)
        assert payload["m"] > 0

    def test_regular_model(self, capsys):
        # delta=1, c=2 keeps the matched degree inside the pairing
        # model's samplable range.
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dra", "--engine", "fast", "--nodes", "64",
            "--model", "regular", "--delta", "1.0", "--c", "2",
            "--seed", "2", "--json")
        payload = json.loads(out)
        assert payload["m"] > 0

    def test_regular_model_infeasible_degree_is_a_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--algorithm", "dra", "--engine", "fast", "--nodes", "64",
            "--model", "regular", "--delta", "0.5", "--c", "6")
        assert code == 2
        assert "pairing model" in err


class TestEngineSelection:
    def test_explicit_congest_engine(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dra", "--engine", "congest",
            "--nodes", "48", "--c", "8", "--delta", "1.0", "--seed", "1",
            "--json")
        payload = json.loads(out)
        assert payload["engine"] == "congest"
        assert payload["messages"] > 0

    def test_explicit_fast_engine(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dra", "--engine", "fast",
            "--nodes", "48", "--c", "8", "--delta", "1.0", "--seed", "1",
            "--json")
        payload = json.loads(out)
        assert payload["engine"] == "fast"

    def test_auto_engine_picks_fast_for_plain_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dra", "--nodes", "48",
            "--c", "8", "--delta", "1.0", "--seed", "1", "--json")
        assert json.loads(out)["engine"] == "fast"

    def test_auto_engine_honours_audit_memory(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dra", "--nodes", "48",
            "--c", "8", "--delta", "1.0", "--seed", "1", "--audit-memory",
            "--json")
        assert json.loads(out)["engine"] == "congest"

    def test_engines_identical_cycles(self, capsys):
        """The CLI surfaces the engine parity the registry declares."""
        args = ("--algorithm", "dra", "--nodes", "48", "--c", "8",
                "--delta", "1.0", "--seed", "3", "--json")
        _, out_fast, _ = run_cli(capsys, "run", "--engine", "fast", *args)
        _, out_congest, _ = run_cli(capsys, "run", "--engine", "congest", *args)
        fast, congest = json.loads(out_fast), json.loads(out_congest)
        assert fast["rounds"] == congest["rounds"]
        assert fast["steps"] == congest["steps"]

    def test_retired_fast_alias_is_rejected(self, capsys):
        # The pre-registry names are gone: spell dra-fast as
        # --algorithm dra --engine fast.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algorithm", "dra-fast", "--nodes", "48"])
        assert exc.value.code == 2
        assert "invalid choice: 'dra-fast'" in capsys.readouterr().err

    def test_sequential_engine(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "posa", "--nodes", "64",
            "--c", "8", "--delta", "1.0", "--seed", "1", "--json")
        payload = json.loads(out)
        assert payload["engine"] == "sequential"
        assert payload["rounds"] == 0

    def test_unsupported_capability_is_a_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--algorithm", "levy", "--audit-memory",
            "--nodes", "48")
        assert code == 2
        assert "audit_memory" in err


class TestEnginesCommand:
    def test_engines_table(self, capsys):
        code, out, _ = run_cli(capsys, "engines")
        assert code == 0
        assert "dhc2" in out and "congest" in out and "fast" in out

    def test_engines_json_lists_capabilities(self, capsys):
        code, out, _ = run_cli(capsys, "engines", "--json")
        specs = {(s["algorithm"], s["engine"]): s for s in json.loads(out)}
        assert specs[("dra", "congest")]["kmachine_convertible"] is True
        assert specs[("dra", "fast")]["kmachine_convertible"] is False
        assert "rounds" in specs[("dra", "fast")]["parity"]

    def test_engines_listing_includes_related_work_entries(self, capsys):
        code, out, _ = run_cli(capsys, "engines", "--json")
        specs = {(s["algorithm"], s["engine"]): s for s in json.loads(out)}
        assert specs[("turau", "congest")]["kmachine_convertible"] is True
        assert "network" in specs[("turau", "congest")]["supported_kwargs"]
        assert specs[("turau", "fast")]["parity"] == ["cycle", "steps"]
        assert specs[("cre", "fast")]["parity"] == ["cycle", "steps"]
        assert specs[("cre", "sequential")]["kmachine_convertible"] is False
        # And the human-readable table names them too.
        code, out, _ = run_cli(capsys, "engines")
        assert "turau" in out and "cre" in out

    def test_engines_listing_shows_batch_capability(self, capsys):
        code, out, _ = run_cli(capsys, "engines", "--json")
        specs = {(s["algorithm"], s["engine"]): s for s in json.loads(out)}
        for algorithm in ("dra", "cre", "dhc2", "turau"):
            assert specs[(algorithm, "fast-batch")]["batched"] is True
            assert specs[(algorithm, "fast")]["batched"] is False
        # No entry needs a compiled kernel, so none lists a jit column.
        assert all("jit" not in spec for spec in specs.values())
        code, out, _ = run_cli(capsys, "engines")
        header = out.splitlines()[1]
        assert "batched" in header and "jit" not in header

    def test_engines_listing_shows_async_capability(self, capsys):
        code, out, _ = run_cli(capsys, "engines", "--json")
        specs = {(s["algorithm"], s["engine"]): s for s in json.loads(out)}
        for algorithm in ("dra", "dhc1", "dhc2", "turau"):
            assert specs[(algorithm, "async")]["async_capable"] is True
            assert specs[(algorithm, "congest")]["async_capable"] is False
            assert "network" in specs[(algorithm, "async")]["supported_kwargs"]
        code, out, _ = run_cli(capsys, "engines")
        assert "async" in out.splitlines()[1]


class TestMergeCommand:
    def _sweep_into(self, capsys, tmp_path, name):
        shard_dir = tmp_path / name
        code, _, _ = run_cli(
            capsys, "sweep", "--algorithm", "dra", "--engine", "fast",
            "--sizes", "24,32", "--trials", "2", "--c", "8",
            "--delta", "1.0", "--seed", "3", "--store-backend", "sharded",
            "--store", str(shard_dir), "--json")
        assert code == 0
        return shard_dir

    def test_merge_nonexistent_source_is_a_clean_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "merge", str(tmp_path / "missing"),
            "--out", str(tmp_path / "out.jsonl"))
        assert code == 2
        assert "does not exist" in err
        assert not (tmp_path / "out.jsonl").exists()

    def test_merge_empty_shard_directory_is_a_clean_error(
            self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(
            capsys, "merge", str(empty), "--out", str(tmp_path / "out.jsonl"))
        assert code == 2
        assert "no shard files" in err
        assert not (tmp_path / "out.jsonl").exists()

    def test_merge_zero_records_refuses_empty_output(self, capsys, tmp_path):
        # A JSONL file that exists but holds no records: the merge must
        # not silently produce an empty store.
        empty_file = tmp_path / "empty.jsonl"
        empty_file.write_text("")
        code, _, err = run_cli(
            capsys, "merge", str(empty_file),
            "--out", str(tmp_path / "out.jsonl"))
        assert code == 2
        assert "no trial records" in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("flag", ["--trials", "--points"])
    def test_merge_rejects_nonpositive_counts_by_name(self, capsys,
                                                      tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["merge", str(tmp_path), "--out",
                  str(tmp_path / "out.jsonl"), flag, "-1"])
        assert exc.value.code == 2
        assert (f"argument {flag}: expected a positive integer, got -1"
                in capsys.readouterr().err)
        assert not (tmp_path / "out.jsonl").exists()

    def test_merge_happy_path_still_works(self, capsys, tmp_path):
        shard_dir = self._sweep_into(capsys, tmp_path, "shards")
        out = tmp_path / "merged.jsonl"
        code, text, _ = run_cli(
            capsys, "merge", str(shard_dir), "--out", str(out),
            "--trials", "2", "--points", "2", "--json")
        assert code == 0
        assert json.loads(text)["records"] == 4
        assert out.exists()


class TestSweepCommand:
    def test_sweep_fits_exponent(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--algorithm", "dra", "--engine", "fast",
            "--sizes", "48,96,192", "--trials", "2", "--c", "8",
            "--delta", "1.0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 3
        assert payload["fitted_exponent"] is not None

    def test_sweep_table_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--algorithm", "dra", "--engine", "fast",
            "--sizes", "48,96", "--trials", "1", "--c", "8", "--delta", "1.0")
        assert code == 0
        assert "mean rounds" in out
        assert "fitted rounds ~ n^" in out

    def test_sweep_point_without_success_has_no_mean(self, capsys):
        # At n=16 no gnm trial succeeds, so that point has no mean
        # rounds: JSON null (not the invalid NaN token), n/a in the
        # table.
        def refuse(token):
            raise ValueError(f"invalid JSON constant {token}")

        base = ("sweep", "--algorithm", "dhc2", "--engine", "fast",
                "--model", "gnm", "--sizes", "16,24", "--trials", "3")
        code, out, _ = run_cli(capsys, *base, "--json")
        assert code == 0
        rows = json.loads(out, parse_constant=refuse)["rows"]
        assert rows[0][0] == 16 and rows[0][2] == 0
        assert rows[0][4] is None
        code, out, _ = run_cli(capsys, *base)
        assert code == 0
        row = next(line for line in out.splitlines()
                   if line.startswith("16 "))
        assert row.split()[-1] == "n/a"

    def test_sweep_needs_two_sizes(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--sizes", "64")
        assert code == 2
        assert "two sizes" in err

    def test_sweep_rejects_duplicate_sizes(self, capsys):
        # Two equal sizes would leave the power-law fit no spread; the
        # sweep refuses before running a trial.
        code, out, err = run_cli(capsys, "sweep", "--sizes", "128,128",
                                 "--trials", "1")
        assert code == 2
        assert "distinct" in err and out == ""

    def test_sweep_rejects_nonpositive_batch_size(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--sizes", "48,64", "--batch-size", "0")
        assert code == 2
        assert "--batch-size" in err

    def test_sweep_batch_size_falls_back_without_batch_runner(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--algorithm", "dra", "--engine", "fast",
            "--sizes", "48,64", "--trials", "2", "--c", "8",
            "--delta", "1.0", "--seed", "5", "--batch-size", "4", "--json")
        assert code == 0
        assert "no batch runner" in err
        assert json.loads(out)["rows"]

    def test_sweep_batched_records_match_unbatched(self, capsys, tmp_path):
        base = ("sweep", "--algorithm", "dra", "--engine", "fast-batch",
                "--sizes", "32,48", "--trials", "5", "--c", "8",
                "--delta", "1.0", "--seed", "5", "--json")
        code, _, _ = run_cli(capsys, *base, "--store",
                             str(tmp_path / "solo.jsonl"))
        assert code == 0
        code, _, _ = run_cli(capsys, *base, "--batch-size", "3",
                             "--store", str(tmp_path / "batched.jsonl"))
        assert code == 0

        assert canonical_records(tmp_path / "solo.jsonl") \
            == canonical_records(tmp_path / "batched.jsonl")

    def test_explicit_fast_batch_uses_auto_caps(self, capsys, monkeypatch):
        # An explicit --engine fast-batch without --batch-size batches
        # under the same per-point caps auto uses; --batch-size 1 still
        # opts out to per-trial calls.
        from repro import cli

        groups = []
        inner = cli._SweepTrialBatch.__call__

        def counting(self, point, seeds):
            groups.append(len(seeds))
            return inner(self, point, seeds)

        monkeypatch.setattr(cli._SweepTrialBatch, "__call__", counting)
        base = ("sweep", "--algorithm", "cre", "--engine", "fast-batch",
                "--sizes", "24,32", "--trials", "6", "--c", "8",
                "--delta", "1.0", "--seed", "5", "--json")
        code, out, _ = run_cli(capsys, *base)
        assert code == 0
        assert json.loads(out)["engine"] == "fast-batch"
        assert groups and all(size > 1 for size in groups)
        assert sum(groups) == 12
        del groups[:]
        code, _, _ = run_cli(capsys, *base, "--batch-size", "1")
        assert code == 0
        assert groups == []

    @pytest.mark.parametrize("algorithm", ["dra", "dhc2", "cre", "turau"])
    def test_sweep_auto_engine_stays_per_trial(self, capsys, algorithm):
        # fast-batch runs each trial on fast, so auto keeps its own
        # pick however many same-point trials a sweep queues.
        code, out, _ = run_cli(capsys, "sweep", "--algorithm", algorithm,
                               "--sizes", "24,32", "--trials", "100",
                               "--c", "8", "--delta", "1.0", "--seed", "5",
                               "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["engine"] == "fast"
        assert [row[0] for row in payload["rows"]] == [24, 32]

    @pytest.mark.parametrize("algorithm", ["dra", "dhc2", "cre", "turau"])
    def test_sweep_auto_batched_records_match_fast(self, capsys, monkeypatch,
                                                   tmp_path, algorithm):
        # Auto-capped batches must be invisible in the store: same
        # seeds, same records as an explicit per-trial fast sweep.
        base = ("sweep", "--algorithm", algorithm, "--sizes", "24,32",
                "--trials", "5", "--c", "8", "--delta", "1.0",
                "--seed", "5", "--json")
        code, _, _ = run_cli(capsys, *base, "--engine", "fast",
                             "--store", str(tmp_path / "fast.jsonl"))
        assert code == 0
        code, out, _ = run_cli(capsys, *base, "--engine", "fast-batch",
                               "--store", str(tmp_path / "auto.jsonl"))
        assert code == 0
        assert json.loads(out)["engine"] == "fast-batch"

        assert canonical_records(tmp_path / "fast.jsonl") \
            == canonical_records(tmp_path / "auto.jsonl")

    def test_sweep_sequential_algorithm_skips_power_law(self, capsys):
        # Sequential engines report rounds=0; the sweep must still
        # print its table instead of dying inside fit_power_law.
        code, out, _ = run_cli(
            capsys, "sweep", "--algorithm", "posa", "--sizes", "24,32",
            "--trials", "2", "--c", "8", "--delta", "1.0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 2
        assert payload["fitted_exponent"] is None

    def test_kmachines_with_unsupported_kwarg_is_a_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--algorithm", "dra", "--k", "4",
            "--k-machines", "2", "--nodes", "48")
        assert code == 2
        assert "does not support: k" in err

    def test_sweep_jobs_matches_serial_store(self, capsys, tmp_path):
        """A --jobs sweep writes the same records a serial sweep does."""
        args = ("sweep", "--algorithm", "dra", "--engine", "fast",
                "--sizes", "48,64", "--trials", "4", "--c", "8",
                "--delta", "1.0", "--seed", "5", "--json")
        serial_store = tmp_path / "serial.jsonl"
        parallel_store = tmp_path / "parallel.jsonl"
        code_s, out_s, _ = run_cli(capsys, *args, "--store", str(serial_store))
        code_p, out_p, _ = run_cli(capsys, *args, "--jobs", "2",
                                   "--store", str(parallel_store))
        assert code_s == code_p == 0
        assert json.loads(out_s)["rows"] == json.loads(out_p)["rows"]

        assert canonical_records(serial_store) \
            == canonical_records(parallel_store)

    @pytest.mark.parametrize("flag", ["--trials", "--jobs"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_sweep_rejects_nonpositive_counts_by_name(self, capsys, flag,
                                                      value):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--sizes", "48,64", flag, value])
        assert exc.value.code == 2
        assert (f"argument {flag}: expected a positive integer, got {value}"
                in capsys.readouterr().err)

    def test_sweep_related_algorithms_through_full_harness(
            self, capsys, tmp_path):
        """turau and cre run the whole orchestration stack unchanged.

        Two workers, two-shard sharded store, `repro merge` with the
        joint-exhaustiveness check — and the merged JSONL is
        canonically identical to a serial single-host sweep.
        """
        for algorithm, extra in (("turau", ()), ("cre", ())):
            base = ("sweep", "--algorithm", algorithm, "--sizes", "24,32",
                    "--trials", "3", "--delta", "0.5", "--c", "6",
                    "--seed", "7", "--json", *extra)
            serial_store = tmp_path / f"{algorithm}-serial.jsonl"
            shard_dir = tmp_path / f"{algorithm}-shards"
            merged = tmp_path / f"{algorithm}-merged.jsonl"
            code, _, _ = run_cli(capsys, *base, "--store", str(serial_store))
            assert code == 0
            for shard in ("0/2", "1/2"):
                code, _, _ = run_cli(
                    capsys, *base, "--jobs", "2", "--shard", shard,
                    "--store-backend", "sharded", "--store", str(shard_dir))
                assert code == 0
            code, out, _ = run_cli(
                capsys, "merge", str(shard_dir), "--out", str(merged),
                "--trials", "3", "--points", "2", "--json")
            assert code == 0
            assert json.loads(out)["records"] == 6

            assert canonical_records(serial_store) \
                == canonical_records(merged), algorithm

    def test_sweep_store_resume_skips_completed(self, capsys, tmp_path):
        store = tmp_path / "resume.jsonl"
        args = ("sweep", "--algorithm", "dra", "--engine", "fast",
                "--sizes", "48,64", "--trials", "2", "--c", "8",
                "--delta", "1.0", "--store", str(store), "--json")
        run_cli(capsys, *args)
        first = store.read_text()
        run_cli(capsys, *args)  # rerun: everything loaded, nothing appended
        assert store.read_text() == first

    def test_sweep_batched_store_resume_mid_batch(self, capsys, tmp_path):
        # Kill a batched sweep after one point, resume with a different
        # batch size: the final store must be byte-identical (modulo
        # timings) to an uninterrupted serial sweep — the batch task
        # regenerates graphs from (point, seeds), so grouping is
        # invisible to the records.
        base = ("sweep", "--algorithm", "dra", "--engine", "fast-batch",
                "--sizes", "24,32,48", "--trials", "4", "--c", "8",
                "--delta", "1.0", "--seed", "11", "--json")
        full = tmp_path / "full.jsonl"
        code, _, _ = run_cli(capsys, *base, "--store", str(full))
        assert code == 0
        partial = tmp_path / "partial.jsonl"
        code, _, _ = run_cli(capsys, *base, "--sizes", "24,32",
                             "--batch-size", "4", "--store", str(partial))
        assert code == 0
        # Resume over the full grid with a different grouping.
        code, _, _ = run_cli(capsys, *base, "--batch-size", "3",
                             "--store", str(partial))
        assert code == 0

        assert canonical_records(full) == canonical_records(partial)


class TestSweepJobsWithBatching:
    """--jobs composed with batched engine passes."""

    def test_serial_kernel_composes_jobs_with_batching(
            self, capsys, tmp_path):
        # Batches are split across workers and records stay identical
        # to serial.
        base = ("sweep", "--algorithm", "dra", "--engine", "fast-batch",
                "--sizes", "24,32", "--trials", "4", "--c", "8",
                "--delta", "1.0", "--seed", "5", "--json")
        serial = tmp_path / "serial.jsonl"
        fanout = tmp_path / "fanout.jsonl"
        code_s, _, _ = run_cli(capsys, *base, "--batch-size", "2",
                               "--store", str(serial))
        code_p, _, _ = run_cli(capsys, *base, "--batch-size", "2",
                               "--jobs", "2", "--store", str(fanout))
        assert code_s == code_p == 0

        assert canonical_records(serial) == canonical_records(fanout)

    def test_generator_fallback_through_full_sweep(self, capsys,
                                                   monkeypatch, tmp_path):
        # The streams' per-node-Generator fallback (replication check
        # failed) must be invisible end-to-end: a full fast-batch sweep
        # writes the same records either way.
        base = ("sweep", "--algorithm", "dra", "--engine", "fast-batch",
                "--sizes", "24,32", "--trials", "4", "--c", "8",
                "--delta", "1.0", "--seed", "5", "--batch-size", "4",
                "--json")
        exact = tmp_path / "exact.jsonl"
        fallback = tmp_path / "fallback.jsonl"
        code, _, _ = run_cli(capsys, *base, "--store", str(exact))
        assert code == 0
        with generator_fallback(monkeypatch):
            code, _, _ = run_cli(capsys, *base, "--store", str(fallback))
        assert code == 0

        assert canonical_records(exact) == canonical_records(fallback)


class TestNetworkFlag:
    """--network JSON|@file and the async engine on the CLI."""

    def test_async_engine_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dra", "--engine", "async",
            "--nodes", "32", "--c", "8", "--delta", "1.0", "--seed", "3",
            "--json")
        payload = json.loads(out)
        assert payload["engine"] == "async"
        assert payload["detail"]["async"]["limited"] == 0

    def test_async_engine_matches_congest(self, capsys):
        args = ("--algorithm", "dra", "--nodes", "32", "--c", "8",
                "--delta", "1.0", "--seed", "3", "--json")
        _, out_sync, _ = run_cli(capsys, "run", "--engine", "congest", *args)
        _, out_async, _ = run_cli(capsys, "run", "--engine", "async", *args)
        sync, against = json.loads(out_sync), json.loads(out_async)
        for field in ("success", "rounds", "messages", "bits"):
            assert against[field] == sync[field], field

    def test_network_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dra", "--nodes", "32",
            "--c", "8", "--delta", "1.0", "--seed", "2", "--json",
            "--network", '{"fault_plan": {"drop_probability": 1.0}}')
        payload = json.loads(out)
        assert code == 1  # blackout: clean failure
        assert payload["engine"] == "congest"  # auto never picks async
        assert payload["detail"]["faults"]["dropped"] > 0

    def test_network_file_document(self, capsys, tmp_path):
        doc = tmp_path / "net.json"
        doc.write_text('{"mode": "async", '
                       '"latency": {"kind": "uniform", "low": 0.5, '
                       '"high": 1.5}, "seed": 7}')
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dra", "--engine", "async",
            "--nodes", "32", "--c", "8", "--delta", "1.0", "--seed", "2",
            "--json", "--network", f"@{doc}")
        payload = json.loads(out)
        assert payload["engine"] == "async"
        assert payload["detail"]["async"]["reordered"] > 0

    def test_async_engine_defaults_mode(self, capsys):
        # With --engine async a document without "mode" is taken async.
        code, out, _ = run_cli(
            capsys, "run", "--algorithm", "dra", "--engine", "async",
            "--nodes", "24", "--c", "8", "--delta", "1.0", "--seed", "1",
            "--json", "--network", '{"latency": {"kind": "fixed", '
            '"value": 2.0}}')
        assert json.loads(out)["engine"] == "async"

    def test_invalid_network_json_is_a_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--algorithm", "dra", "--nodes", "24",
            "--network", "{not json")
        assert code == 2
        assert "not valid JSON" in err

    def test_unknown_network_field_is_a_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--algorithm", "dra", "--nodes", "24",
            "--network", '{"topology": "ring"}')
        assert code == 2
        assert "unknown NetworkModel" in err

    def test_missing_network_file_is_a_clean_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--algorithm", "dra", "--nodes", "24",
            "--network", f"@{tmp_path}/missing.json")
        assert code == 2
        assert "cannot read --network file" in err

    def test_network_does_not_compose_with_kmachine_conversion(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--algorithm", "dra", "--nodes", "24",
            "--k-machines", "4", "--network", "{}")
        assert code == 2
        assert "does not compose" in err

    def test_sweep_with_network_pins_congest(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--algorithm", "dra", "--sizes", "24,32",
            "--trials", "2", "--c", "8", "--delta", "1.0", "--seed", "5",
            "--json",
            "--network", '{"fault_plan": {"drop_probability": 0.01}}')
        assert code == 0
        payload = json.loads(out)
        assert payload["engine"] == "congest"
        assert len(payload["rows"]) == 2

    def test_sweep_async_engine_with_metrics(self, capsys, tmp_path):
        path = tmp_path / "kpis.json"
        code, out, _ = run_cli(
            capsys, "sweep", "--algorithm", "dra", "--engine", "async",
            "--sizes", "24,32", "--trials", "2", "--c", "8",
            "--delta", "1.0", "--seed", "5", "--json",
            "--network", '{"latency": {"kind": "uniform", "low": 0.5, '
            '"high": 1.5}}', "--metrics", str(path))
        assert code == 0
        assert json.loads(out)["engine"] == "async"
        payload = validate_metrics_payload(json.loads(path.read_text()))
        text = json.dumps(payload)
        assert "async_stretch" in text
        assert "async_termination_rate" in text


class TestMainModule:
    def test_python_dash_m_repro(self):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "bounds", "--nodes", "64",
             "--json"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["p"] > 0


    def test_fast_batch_sweep_never_imports_batchwalk(self):
        # fast-batch runs each trial on fast, so a fresh interpreter
        # that sweeps every fast-batch entry (pooled generation
        # included) never loads the batch-major walk module.
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = (os.path.join(root, "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "for algorithm in ('dra', 'dhc2', 'cre', 'turau'):\n"
            "    assert main(['sweep', '--algorithm', algorithm,\n"
            "                 '--engine', 'fast-batch', '--sizes', '24,32',\n"
            "                 '--trials', '3', '--c', '8', '--delta', '1.0',\n"
            "                 '--json']) == 0\n"
            "assert 'repro.graphs.batch_gnp' in sys.modules\n"
            "print('repro.engines.batchwalk' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


class TestBrokenPipe:
    @pytest.mark.parametrize("argv", [
        ["graph", "--nodes", "64", "--seed", "0", "--json"],
        ["bounds", "--json"],
    ])
    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    def test_closed_reader_exits_quietly(self, argv, unbuffered):
        # The reader is gone before the CLI writes a byte, so its first
        # write to stdout fails with EPIPE, as under `... | head -1`.
        # Unbuffered, that write is the print itself; buffered, it is
        # the flush of the output the command left behind.
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = (os.path.join(root, "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == ""  # no traceback, no "Exception ignored"
        assert proc.returncode == 1


class TestGraphCommand:
    def test_graph_properties_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "graph", "--nodes", "128", "--delta", "0.5",
            "--c", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 128
        assert payload["above_threshold"] is True
        assert payload["connected"] is True
        assert payload["degree"]["mean"] > 0

    def test_graph_exact_diameter(self, capsys):
        code, out, _ = run_cli(
            capsys, "graph", "--nodes", "64", "--delta", "0.5",
            "--c", "4", "--exact-diameter", "--json")
        payload = json.loads(out)
        assert payload["diameter"] >= 1

    def test_graph_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--nodes", "64")
        assert "property" in out
        assert "degree_mean" in out


class TestBoundsCommand:
    def test_bounds_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--nodes", "1024", "--delta", "0.5",
            "--c", "6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["partitions (n^(1-delta))"] == 32
        assert payload["dra_step_budget (Thm 2)"] > 0
        assert 0 <= payload["partition_size_failure (Lem 4/7)"] <= 1

    def test_bounds_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--nodes", "256")
        assert "Thm 10" in out


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 2
        assert "Subcommand" in out or "usage" in out.lower()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("argv", [
        ["run", "--seed", "-1"],
        ["--nodes", "16", "--seed", "-1"],
        ["graph", "--seed", "-1"],
        ["bounds", "--seed", "-1"],
        ["sweep", "--algorithm", "dra", "--sizes", "16", "--seed", "-3"],
        ["run", "--seed", "one"],
    ])
    def test_bad_seed_is_rejected_at_parse_time(self, capsys, argv):
        # SeedSequence takes only non-negative integers; the parser
        # names the flag instead of numpy failing mid-sampling.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: expected a non-negative integer" in err

    @pytest.mark.parametrize("engine", [[], ["--engine", "kmachine"]],
                             ids=["converted", "native"])
    def test_bad_machine_count_is_named(self, capsys, engine):
        code, _, err = run_cli(capsys, "run", "--algorithm", "dra",
                               "--nodes", "16", "--k-machines", "0", *engine)
        assert code == 2
        assert "k_machines must be at least 1, got 0" in err
        assert "Traceback" not in err

    def test_zero_seed_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--nodes", "16", "--seed", "0",
                               "--json")
        assert code == 0
        assert json.loads(out)["n"] == 16


class TestSweepMetrics:
    def test_metrics_report_and_store_sidecar(self, capsys, tmp_path):
        store = tmp_path / "sweep.jsonl"
        code, out, err = run_cli(
            capsys, "sweep", "--algorithm", "dra", "--engine", "fast",
            "--sizes", "32,48", "--trials", "2", "--c", "8",
            "--delta", "1.0", "--seed", "7", "--store", str(store),
            "--metrics", "--json")
        assert code == 0
        assert json.loads(out)["rows"]
        assert "== sweep metrics (schema v1) ==" in err
        sidecar = tmp_path / "sweep.metrics.json"
        assert f"metrics -> {sidecar}" in err
        payload = validate_metrics_payload(json.loads(sidecar.read_text()))
        assert payload["kpis"]["trials"] == 4
        assert payload["context"]["algorithm"] == "dra"
        assert payload["context"]["engine"] == "fast"
        assert payload["context"]["schedule"] == "serial"

    def test_metrics_explicit_path_without_store(self, capsys, tmp_path):
        path = tmp_path / "kpis.json"
        code, _, err = run_cli(
            capsys, "sweep", "--algorithm", "dra", "--engine", "fast",
            "--sizes", "32,48", "--trials", "1", "--c", "8",
            "--delta", "1.0", "--seed", "7", "--metrics", str(path))
        assert code == 0
        assert path.exists()
        payload = validate_metrics_payload(json.loads(path.read_text()))
        assert payload["kpis"]["trials"] == 2

    def test_metrics_without_store_or_path_reports_only(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--algorithm", "dra", "--engine", "fast",
            "--sizes", "32,48", "--trials", "1", "--c", "8",
            "--delta", "1.0", "--seed", "7", "--metrics")
        assert code == 0
        assert "== sweep metrics (schema v1) ==" in err
        assert "metrics ->" not in err

    def test_metrics_parallel_kpis_match_serial(self, capsys, tmp_path):
        paths = {}
        for label, extra in (("serial", []),
                             ("parallel", ["--jobs", "2"])):
            paths[label] = tmp_path / f"{label}.json"
            code, _, _ = run_cli(
                capsys, "sweep", "--algorithm", "dra", "--engine", "fast",
                "--sizes", "32,48", "--trials", "4", "--c", "8",
                "--delta", "1.0", "--seed", "5",
                "--metrics", str(paths[label]), *extra)
            assert code == 0
        serial = json.loads(paths["serial"].read_text())
        parallel = json.loads(paths["parallel"].read_text())
        assert serial["kpis"] == parallel["kpis"]

    def test_metrics_rejects_bad_interval(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--sizes", "32,48", "--metrics",
            "--metrics-interval", "0")
        assert code == 2
        assert "--metrics-interval" in err
