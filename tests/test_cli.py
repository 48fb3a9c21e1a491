"""Command-line behavior: exit codes, output lines, artifact files."""

import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import dessim.cli as cli
from dessim import data, models
from dessim.artifacts import rows_to_json, rows_to_tsv
from dessim.costmodel import CommReportRow
from dessim.data import SyntheticSpec
from dessim.models import ModelGraph
from dessim.training import RunConfig

TINY_TRAIN = [
    "train", "--model", "lr", "--workers", "2", "--batch", "64",
    "--epochs", "1", "--seed", "3", "--train-samples", "256",
    "--test-samples", "128",
]


class TestTrainCommand:
    def test_tiny_run_prints_metrics(self, capsys):
        assert cli.main(TINY_TRAIN) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "model=lr workers=2 batch=64 epochs=1 seed=3"
        assert lines[1].startswith("step=4 auc=0.")
        assert "bwd_bytes=0" in lines[1]

    def test_zero_epochs_message(self, capsys):
        assert cli.main(TINY_TRAIN[:8] + ["0"] + TINY_TRAIN[9:]) == 0
        assert "no training steps" in capsys.readouterr().out

    def test_out_dir_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(TINY_TRAIN + ["--out", str(out)]) == 0
        assert (out / "metrics.tsv").exists()
        assert (out / "metrics.json").exists()
        assert (out / "config.json").exists()
        assert (out / "checkpoint.npz").is_file()
        assert f"artifacts written to {out}" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = RunConfig(
            graph=ModelGraph(kind="fm", n_fields=4, seed=2),
            n_workers=2, batch_size=64, epochs=5, seed=7,
            synthetic=SyntheticSpec(n_fields=4, vocab_per_field=50,
                                    min_active_fields=4, max_active_fields=4),
            train_samples=128, test_samples=64,
        )
        path = tmp_path / "run.json"
        path.write_text(cfg.to_json())
        assert cli.main(["train", "--config", str(path), "--epochs", "1"]) == 0
        header = capsys.readouterr().out.strip().split("\n")[0]
        assert header == "model=fm workers=2 batch=64 epochs=1 seed=7"

    def test_empty_held_out_split_fails_before_training(self, capsys):
        assert cli.main(TINY_TRAIN[:-1] + ["0"]) == 2
        captured = capsys.readouterr()
        assert "held-out split is empty (test_samples=0)" in captured.err
        assert captured.out == ""

    def test_criteo_file_without_held_out_line(self, tmp_path, capsys):
        line = "\t".join(["1"] + ["2"] * 13 + ["tok"] * 26)
        path = tmp_path / "short.tsv"
        path.write_text((line + "\n") * 19, encoding="utf-8")
        assert cli.main(["train", "--data", str(path), "--epochs", "1", "--batch", "8"]) == 2
        captured = capsys.readouterr()
        assert "held-out split is empty" in captured.err
        assert "fewer than 20" in captured.err
        assert captured.out == ""

    def late_bad_label_log(self, tmp_path, monkeypatch):
        """A 100-line log read in blocks of 16 lines whose line 99, in the last
        training block, has a bad label."""
        monkeypatch.setattr(data, "BLOCK_LINES", 16)
        lines = ["\t".join([str(i % 2)] + ["2"] * 13 + [f"tok{i % 7}"] * 26) for i in range(100)]
        lines[98] = "\t".join(["yes"] + lines[98].split("\t")[1:])
        path = tmp_path / "late.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_bad_line_in_a_late_training_block(self, tmp_path, monkeypatch, capsys):
        path = self.late_bad_label_log(tmp_path, monkeypatch)
        steps = []
        step = models.SubstitutedModel.train_step
        monkeypatch.setattr(models.SubstitutedModel, "train_step",
                            lambda engine, batch: steps.append(step(engine, batch)))
        out = tmp_path / "run"
        args = ["train", "--data", str(path), "--model", "fm", "--workers", "2",
                "--batch", "8", "--epochs", "1", "--out", str(out)]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == "dessim train: bad label 'yes', expected 0 or 1 at line 99\n"
        assert captured.out == ""
        assert not out.exists()
        assert len(steps) == 10  # the five blocks before the bad one trained

    def test_zero_epochs_never_read_the_training_split(self, tmp_path, monkeypatch, capsys):
        path = self.late_bad_label_log(tmp_path, monkeypatch)
        assert cli.main(["train", "--data", str(path), "--epochs", "0", "--batch", "8"]) == 0
        assert "no training steps (0 epochs)" in capsys.readouterr().out

    @pytest.mark.parametrize("active,n_fields,want", [
        pytest.param((10, 10), 4, (4, 4), id="all-active-4"),
        pytest.param((10, 10), 12, (12, 12), id="all-active-12"),
        pytest.param((2, 6), 4, (2, 4), id="range-4"),
        pytest.param((2, 6), 12, (2, 6), id="range-12"),
    ])
    def test_fields_sets_the_synthetic_field_count(self, active, n_fields, want, tmp_path,
                                                   capsys):
        spec = SyntheticSpec(min_active_fields=active[0], max_active_fields=active[1])
        path = tmp_path / "run.json"
        path.write_text(RunConfig(graph=ModelGraph(kind="lr", n_fields=10),
                                  synthetic=spec).to_json())
        out = tmp_path / "run"
        args = TINY_TRAIN + ["--config", str(path), "--fields", str(n_fields), "--out", str(out)]
        assert cli.main(args) == 0
        assert capsys.readouterr().out.startswith("model=lr workers=2 ")
        cfg = RunConfig.from_json((out / "config.json").read_text())
        assert cfg.graph.n_fields == cfg.synthetic.n_fields == n_fields
        assert (cfg.synthetic.min_active_fields, cfg.synthetic.max_active_fields) == want

    @pytest.mark.parametrize("with_config", [False, True])
    def test_zero_fields_is_a_value(self, with_config, tmp_path, capsys):
        args = list(TINY_TRAIN)
        if with_config:
            path = tmp_path / "run.json"
            path.write_text(RunConfig(graph=ModelGraph(kind="lr", n_fields=4)).to_json())
            args += ["--config", str(path)]
        assert cli.main(args + ["--fields", "0"]) == 2
        assert "need at least one field" in capsys.readouterr().err

    def test_missing_data_file(self, capsys):
        code = cli.main(["train", "--data", "/nonexistent/clicks.tsv", "--epochs", "1"])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestVerifyCommand:
    def test_small_budget_passes(self, capsys):
        code = cli.main([
            "verify", "--trials", "1", "--identity-trials", "5",
            "--grad-instances", "1", "--workers-grid", "1,2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "equivalence: PASS" in out
        assert "second-order-identity: PASS" in out
        assert "gradients: PASS" in out
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize("grid", ["1,x", "0", ","])
    def test_bad_workers_grid(self, grid, capsys):
        code = cli.main(["verify", "--workers-grid", grid])
        assert code == 2
        assert "workers-grid" in capsys.readouterr().err


def stub_rows(deviate=False):
    rows = []
    for kind, measured in (("lr", 48), ("fm", 432), ("dnn", 768)):
        rows.append(CommReportRow(
            model=kind, batch_size=8, n_workers=4, uniq_feats=100,
            q_mesh=900.0, q_des=float(measured),
            ratio=1.0 - measured / 900.0,
            measured_bytes=measured + (4 if deviate and kind == "fm" else 0),
            deviation=0.0,
        ))
    return rows


class TestBenchCommand:
    def test_exact_match_exits_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "bench_comm", lambda **kw: stub_rows())
        out = tmp_path / "bench"
        assert cli.main(["bench-comm", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "measured == predicted q_des for all rows: yes" in text
        assert (out / "comm-report.tsv").exists()
        doc = json.loads((out / "comm-report.json").read_text())
        assert doc["version"] == 1
        assert len(doc["rows"]) == 3

    @pytest.mark.parametrize("name", ["comm-report.tsv", "comm-report.json"])
    def test_refused_rename_keeps_previous_report(self, name, tmp_path, monkeypatch, capsys):
        out = tmp_path / "bench"
        monkeypatch.setattr(cli, "bench_comm", lambda **kw: stub_rows())
        assert cli.main(["bench-comm", "--out", str(out)]) == 0
        before = (out / name).read_bytes()
        real_replace = os.replace

        def refuse(src, dst):
            if str(dst) == str(out / name):
                raise OSError("rename refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse)
        monkeypatch.setattr(cli, "bench_comm", lambda **kw: stub_rows(deviate=True))
        assert cli.main(["bench-comm", "--out", str(out)]) == 2
        assert "rename refused" in capsys.readouterr().err
        assert (out / name).read_bytes() == before
        assert [p.name for p in out.iterdir() if p.name.endswith(".tmp")] == []

    def test_mismatch_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "bench_comm", lambda **kw: stub_rows(deviate=True))
        assert cli.main(["bench-comm"]) == 1
        assert "NO" in capsys.readouterr().out

    def test_real_engine_small_grid(self, monkeypatch, capsys):
        # wire through the real benchmark on one small row per component
        import dessim.training as training

        real = training.bench_comm
        monkeypatch.setattr(
            cli, "bench_comm",
            lambda **kw: real(n_workers=2, rows=[(8, 64)], n_fields=4),
        )
        assert cli.main(["bench-comm"]) == 0
        assert "yes" in capsys.readouterr().out

    def test_uneven_ring_chunks_match(self, monkeypatch, capsys):
        # at N=3 the ring's chunks differ by a byte, so the ranks send
        # different counts; their mean is what q_des predicts
        import dessim.training as training

        real = training.bench_comm
        monkeypatch.setattr(
            cli, "bench_comm", lambda **kw: real(**kw, rows=[(8, 64)], n_fields=4),
        )
        assert cli.main(["bench-comm", "--workers", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            "measured == predicted q_des for all rows: yes"
        assert cli.main(["bench-comm", "--workers", "1"]) == 2
        assert "saving ratio undefined" in capsys.readouterr().err


class TestDigestCommand:
    def test_one_line_per_case_and_repeatable(self, monkeypatch, capsys):
        import dessim.training as training

        monkeypatch.setattr(training, "MODEL_KINDS", ("lr", "fm"))
        monkeypatch.setattr(training, "DIGEST_WORKERS", (1, 3))
        monkeypatch.setattr(training, "DIGEST_BATCHES", (2048,))
        outs = []
        for _ in range(2):
            assert cli.main(["digest"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        lines = outs[0].splitlines()
        assert [line.split()[0] for line in lines] == [
            "lr/1/2048", "lr/3/2048", "fm/1/2048", "fm/3/2048"]
        pattern = (r"\S+ checkpoint=[0-9a-f]{64} auc=0x1\.[0-9a-f]+p-1 "
                   r"logloss=0x1\.[0-9a-f]+p-1 ledger=[0-9a-f]{64}")
        assert all(re.fullmatch(pattern, line) for line in lines)
        # one shard and three write different shard files and ledger records
        assert lines[0].split()[1] != lines[1].split()[1]
        assert lines[0].split()[4] != lines[1].split()[4]


class TestReportCommand:
    def test_renders_tsv_aligned(self, tmp_path, capsys):
        path = tmp_path / "comm-report.tsv"
        path.write_text(rows_to_tsv(CommReportRow, stub_rows()))
        assert cli.main(["report", str(path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("model")
        assert len(lines) == 4
        assert "\t" not in lines[0]

    def test_renders_json(self, tmp_path, capsys):
        path = tmp_path / "comm-report.json"
        rows = [asdict(r) for r in stub_rows()]
        path.write_text(json.dumps({"version": 1, "rows": rows}))
        assert cli.main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("model")
        assert "48" in out

    def test_tsv_and_json_twins_print_alike(self, tmp_path, capsys):
        rows = stub_rows() + [CommReportRow(
            model="dnn", batch_size=3, n_workers=3, uniq_feats=7, q_mesh=1 / 3,
            q_des=2e-20, ratio=0.1 + 0.2, measured_bytes=10 / 3, deviation=-1e300)]
        printed = []
        for name, text in (("r.tsv", rows_to_tsv(CommReportRow, rows)),
                           ("r.json", rows_to_json(rows))):
            (tmp_path / name).write_text(text, encoding="utf-8")
            assert cli.main(["report", str(tmp_path / name)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert "0.30000000000000004" in printed[0]

    def test_missing_file(self, capsys):
        assert cli.main(["report", "/nonexistent/x.tsv"]) == 2
        assert "not found" in capsys.readouterr().err


    @pytest.mark.parametrize("name,text,code,expected", [
        pytest.param("rows.json", '[{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}]', 0, "a  b",
                     id="json-list-of-rows"),
        pytest.param("rows.json", '{"rows": [{"a": 1}, {"b": 2.5}]}', 0,
                     "a  b  \n1     \n   2.5\n", id="json-rows-with-different-keys"),
        pytest.param("rows.json", "{}", 0, "(empty report)", id="json-empty-object"),
        pytest.param("rows.json", '{"rows": 5}', 2, "list of row objects", id="json-rows-5"),
        pytest.param("rows.json", '"a string"', 2, "list of row objects", id="json-string"),
        pytest.param("rows.json", "[1, 2]", 2, "list of row objects", id="json-list-of-numbers"),
        pytest.param("rows.tsv", "a\tb\n1\t2\n\n3\t4\t5\n", 2, "line 4 has 3 cells",
                     id="tsv-row-longer-than-header"),
    ])
    def test_document_shapes(self, name, text, code, expected, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert cli.main(["report", str(path)]) == code
        captured = capsys.readouterr()
        assert expected in (captured.out if code == 0 else captured.err)


class TestParser:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--model", "transformer"])
        assert exc.value.code == 2


class TestErrorBoundary:
    @pytest.mark.parametrize("python_flags,argv", [
        ([], ["bench-comm"]),
        (["-u"], ["verify", "--trials", "1", "--identity-trials", "1", "--grad-instances", "1",
                  "--workers-grid", "1,2"]),
    ], ids=["bench-comm-buffered", "verify-unbuffered"])
    def test_closed_stdout_exits_141(self, python_flags, argv):
        # The pipe's read end is closed before the command starts, so its first
        # write fails: at the end of the run when stdout is buffered, at once when not.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        try:
            done = subprocess.run([sys.executable, *python_flags, "-m", "dessim", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_nonpositive_workers_is_usage_error(self, capsys):
        assert cli.main(TINY_TRAIN[:4] + ["0"] + TINY_TRAIN[5:]) == 2
        assert "positive worker count" in capsys.readouterr().err

    def test_bench_single_worker_is_usage_error(self, capsys):
        assert cli.main(["bench-comm", "--workers", "1"]) == 2
        assert "saving ratio undefined" in capsys.readouterr().err

    def test_malformed_report_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("not json{{", encoding="utf-8")
        assert cli.main(["report", str(path)]) == 2
        assert capsys.readouterr().err.startswith("dessim report:")

    def test_config_with_unknown_key(self, tmp_path, capsys):
        cfg = RunConfig(graph=ModelGraph(kind="lr", n_fields=4, seed=1),
                        synthetic=SyntheticSpec(n_fields=4, min_active_fields=4,
                                                max_active_fields=4))
        doc = json.loads(cfg.to_json())
        doc["graph"]["embed_dim"] = 4
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["train", "--config", str(path)]) == 2
        assert "embed_dim" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,expected", [
        pytest.param(lambda d: d["graph"]["dense_opt"].update(lrr=0.1),
                     "RunConfig.graph.dense_opt: unknown keys: lrr", id="optimizer-unknown-key"),
        pytest.param(lambda d: d["graph"]["dense_opt"].pop("kind"),
                     "RunConfig.graph.dense_opt: missing keys: kind", id="optimizer-no-kind"),
        pytest.param(lambda d: d["graph"].update(embedding_opt="adam"),
                     "RunConfig.graph.embedding_opt: expected an object, got str",
                     id="optimizer-string"),
        pytest.param(lambda d: d["graph"].update(hidden_widths=16),
                     "RunConfig.graph.hidden_widths: expected a list, got int",
                     id="integer-hidden-widths"),
        pytest.param(lambda d: [d], "RunConfig: expected an object, got list", id="list"),
        pytest.param(lambda d: d["graph"].update(kind="rnn"),
                     "RunConfig.graph: unknown model kind 'rnn'; expected one of "
                     "('lr', 'fm', 'wdl', 'deepfm', 'dcn-demo')", id="unknown-kind"),
        pytest.param(lambda d: d.update(graph=5),
                     "RunConfig.graph: expected an object, got int", id="integer-graph"),
        pytest.param(lambda d: d.update(synthetic=None),
                     "RunConfig.synthetic: expected an object, got NoneType", id="null-synthetic"),
    ])
    def test_malformed_config_names_the_key_path(self, edit, expected, tmp_path, capsys):
        doc = json.loads(RunConfig(graph=ModelGraph(kind="wdl", n_fields=4)).to_json())
        edited = edit(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(edited if isinstance(edited, list) else doc), encoding="utf-8")
        assert cli.main(["train", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"dessim train: {expected}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("keys,value,expected", [
        pytest.param(("seed",), "x", "RunConfig.seed: expected int, got str", id="string-seed"),
        pytest.param(("n_workers",), True, "RunConfig.n_workers: expected int, got bool",
                     id="bool-workers"),
        pytest.param(("seed",), 1.5, "RunConfig.seed: expected int, got float", id="float-seed"),
        pytest.param(("batch_size",), "64", "RunConfig.batch_size: expected int, got str",
                     id="string-batch"),
        pytest.param(("out_dir",), 7, "RunConfig.out_dir: expected str or None, got int",
                     id="integer-out-dir"),
        pytest.param(("graph", "dense_opt", "lr"), "0.1",
                     "RunConfig.graph.dense_opt.lr: expected float, got str", id="string-lr"),
        pytest.param(("synthetic", "noise_rate"), False,
                     "RunConfig.synthetic.noise_rate: expected float, got bool", id="bool-noise"),
    ])
    def test_wrong_scalar_type_names_the_key_path(self, keys, value, expected, tmp_path, capsys):
        doc = json.loads(RunConfig(graph=ModelGraph(kind="wdl", n_fields=4)).to_json())
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["train", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"dessim train: {expected}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("width,shown", [
        (1.5, "1.5"), (True, "True"), ("a", "'a'"), (-3, "-3"), (0, "0"),
    ], ids=["float", "bool", "string", "negative", "zero"])
    def test_hidden_width_not_a_positive_int(self, width, shown, tmp_path, capsys):
        doc = json.loads(RunConfig(graph=ModelGraph(kind="wdl", n_fields=4)).to_json())
        doc["graph"]["hidden_widths"] = [8, width]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["train", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"dessim train: RunConfig.graph: hidden_widths: {shown} "
                                "is not an int of at least 1\n")
        assert captured.out == ""
