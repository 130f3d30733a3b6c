"""Command line interface: subcommands, file formats, exit codes."""

import json

import pytest

from cfgexec.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main

LISTING = """\
f:
    mov eax, 1
    cmp eax, 0
    jz done
    add eax, 2
done: ret
"""


def write_spec(path, **overrides):
    spec = {"n_graphs": 12, "node_count_range": [13, 15], "chain_length": 8,
            "seed": 3, "vocab_size": 16}
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return path


class TestUsage:
    def test_no_args_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_vocab_without_subcommand(self):
        assert main(["vocab"]) == EXIT_USAGE


class TestVocabCli:
    def test_train_vocab(self, tmp_path):
        asm = tmp_path / "f.s"
        asm.write_text(LISTING)
        out = tmp_path / "vocab.json"
        assert main(["vocab", "train", "--input", str(asm), "--size", "48",
                     "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["format_version"] == 1
        assert data["pieces"][0] == "<pad>"

    def test_too_small_size_is_data_error(self, tmp_path):
        asm = tmp_path / "f.s"
        asm.write_text(LISTING)
        code = main(["vocab", "train", "--input", str(asm), "--size", "5",
                     "--out", str(tmp_path / "v.json")])
        assert code == EXIT_DATA


class TestParseCli:
    def test_parse_listing_to_graphs(self, tmp_path):
        asm = tmp_path / "f.s"
        asm.write_text(LISTING)
        vocab = tmp_path / "vocab.json"
        main(["vocab", "train", "--input", str(asm), "--size", "48", "--out", str(vocab)])
        out = tmp_path / "graphs.json"
        assert main(["parse", "--input", str(asm), "--vocab", str(vocab),
                     "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert len(data["graphs"]) == 1
        assert len(data["graphs"][0]["nodes"]) == 3

    def test_unknown_target_is_data_error(self, tmp_path):
        asm = tmp_path / "bad.s"
        asm.write_text("f:\njmp nowhere\n")
        vocab = tmp_path / "vocab.json"
        good = tmp_path / "good.s"
        good.write_text(LISTING)
        main(["vocab", "train", "--input", str(good), "--size", "48", "--out", str(vocab)])
        code = main(["parse", "--input", str(asm), "--vocab", str(vocab),
                     "--out", str(tmp_path / "g.json")])
        assert code == EXIT_DATA


class TestGenerateTrainEval:
    def test_pipeline(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        data = tmp_path / "data.json"
        assert main(["generate", "--spec", str(spec), "--out", str(data)]) == EXIT_OK

        out_dir = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out-dir", str(out_dir),
                     "--epochs", "1", "--h", "8", "--batch-size", "4",
                     "--max-iter", "15"]) == EXIT_OK
        csv = (out_dir / "metrics.csv").read_text().splitlines()
        assert csv[0] == "epoch,split,loss,accuracy,precision,recall,f1,auc"
        assert len(csv) == 3
        assert (out_dir / "checkpoint.json").exists()
        assert (out_dir / "checkpoint.bin").exists()

        assert main(["eval", "--checkpoint", str(out_dir / "checkpoint"),
                     "--data", str(data)]) == EXIT_OK

    def test_eval_dump_artifacts(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", n_graphs=4)
        data = tmp_path / "data.json"
        main(["generate", "--spec", str(spec), "--out", str(data)])
        out_dir = tmp_path / "run"
        main(["train", "--data", str(data), "--out-dir", str(out_dir),
              "--epochs", "1", "--h", "8", "--batch-size", "2", "--max-iter", "10"])
        traces = tmp_path / "traces.json"
        solver_csv = tmp_path / "solver.csv"
        assert main(["eval", "--checkpoint", str(out_dir / "checkpoint"),
                     "--data", str(data), "--dump-traces", str(traces),
                     "--dump-solver", str(solver_csv)]) == EXIT_OK
        recs = json.loads(traces.read_text())
        assert recs and {"selected", "residual"} <= set(recs[0]["steps"][0])
        lines = solver_csv.read_text().splitlines()
        assert lines[0] == "graph_id,iter,residual"
        graph_ids = {g["id"] for g in json.loads(data.read_text())["graphs"]}
        assert {line.split(",")[0] for line in lines[1:]} == graph_ids

    def test_eval_unlabeled_graphs_is_data_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", n_graphs=4, vocab_size=48)
        data = tmp_path / "data.json"
        main(["generate", "--spec", str(spec), "--out", str(data)])
        out_dir = tmp_path / "run"
        main(["train", "--data", str(data), "--out-dir", str(out_dir),
              "--epochs", "1", "--h", "8", "--batch-size", "2", "--max-iter", "10"])
        asm = tmp_path / "f.s"
        asm.write_text(LISTING)
        vocab = tmp_path / "vocab.json"
        main(["vocab", "train", "--input", str(asm), "--size", "48", "--out", str(vocab)])
        graphs = tmp_path / "graphs.json"
        main(["parse", "--input", str(asm), "--vocab", str(vocab), "--out", str(graphs)])
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out_dir / "checkpoint"),
                     "--data", str(graphs)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "label-missing" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag,value,field", [("--lr", "-1", "lr"),
                                                  ("--batch-size", "0", "batch_size")])
    def test_invalid_train_flag_is_usage_error(self, tmp_path, capsys, flag, value, field):
        spec = write_spec(tmp_path / "spec.json", n_graphs=4)
        data = tmp_path / "data.json"
        main(["generate", "--spec", str(spec), "--out", str(data)])
        capsys.readouterr()
        code = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "run"),
                     "--epochs", "1", "--h", "8", flag, value])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.splitlines() == [f"usage error: {field} must be positive"]
        assert not (tmp_path / "run").exists()

    def test_infeasible_spec_is_data_error(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", chain_length=20)
        code = main(["generate", "--spec", str(spec), "--out", str(tmp_path / "d.json")])
        assert code == EXIT_DATA


class TestChecks:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--seed", "7", "--h", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "overall max rel err" in out

    def test_solvercheck_passes(self, capsys):
        assert main(["solvercheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cos fixed point" in out
