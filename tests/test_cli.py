"""Command line interface: subcommands, file formats, exit codes."""

import json

import numpy as np
import pytest

from cfgexec.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from cfgexec.graphs import read_graph_file, write_graph_file
from cfgexec.model import derive_seed, forward, init_model_params, prepare_graph
from cfgexec.solver import SolverConfig
from cfgexec.synth import SyntheticSpec, generate_dataset
from cfgexec.training import (AdamState, CheckpointError, TrainConfig, load_checkpoint,
                               save_checkpoint, train)

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


def init_checkpoint(tmp_path, n_graphs=4, **config):
    """A checkpoint of seeded initial parameters, plus a generated data file."""
    spec = write_spec(tmp_path / "spec.json", n_graphs=n_graphs)
    data = tmp_path / "data.json"
    main(["generate", "--spec", str(spec), "--out", str(data)])
    cfg = TrainConfig(h=8, **config)
    store = init_model_params(cfg, 16, cfg.seed)
    base = tmp_path / "checkpoint"
    save_checkpoint(base, store, cfg, AdamState.init(store), epoch=0)
    return base, data


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


    @pytest.mark.parametrize("where", ["missing.s", "empty-dir"])
    def test_no_listing_is_data_error_naming_the_input(self, tmp_path, capsys, where):
        (tmp_path / "empty-dir").mkdir()
        out = tmp_path / "v.json"
        code = main(["vocab", "train", "--input", str(tmp_path / where), "--size", "48",
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            f"data error: no assembly tokens found in {tmp_path / where}"]
        assert not out.exists()


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


    @pytest.mark.parametrize("v_max", ["0", "-3"])
    def test_v_max_below_one_is_usage_error(self, tmp_path, capsys, v_max):
        asm = tmp_path / "f.s"
        asm.write_text(LISTING)
        vocab = tmp_path / "vocab.json"
        main(["vocab", "train", "--input", str(asm), "--size", "48", "--out", str(vocab)])
        capsys.readouterr()
        out = tmp_path / "graphs.json"
        code = main(["parse", "--input", str(asm), "--vocab", str(vocab),
                     "--out", str(out), "--v-max", v_max])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.splitlines() == [f"usage error: v_max must be >= 1, got {v_max}"]
        assert not out.exists()


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

    @pytest.mark.parametrize("flag,value", [("--tau", "0"), ("--dropout", "1.5"),
                                            ("--v-max", "0"), ("--h", "0"),
                                            ("--max-iter", "0"), ("--epochs", "0")])
    def test_out_of_range_train_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        spec = write_spec(tmp_path / "spec.json", n_graphs=4)
        data = tmp_path / "data.json"
        main(["generate", "--spec", str(spec), "--out", str(data)])
        capsys.readouterr()
        args = ["train", "--data", str(data), "--out-dir", str(tmp_path / "run"),
                "--h", "8", "--batch-size", "2", "--max-iter", "10", "--epochs", "1"]
        code = main(args + [flag, value])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_one_graph_file_is_data_error(self, tmp_path, capsys):
        # the 75/25 split of one graph leaves no training graph
        data = tmp_path / "one.json"
        write_graph_file(generate_dataset(SyntheticSpec(n_graphs=2, node_count_range=(13, 15),
                                                        chain_length=8, seed=3))[:1], data)
        capsys.readouterr()
        code = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "run"),
                     "--h", "8", "--epochs", "1"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("data error: ")
        assert "empty-dataset" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_dump_traces_follow_the_scored_solve(self, tmp_path):
        base, data = init_checkpoint(tmp_path, n_graphs=8, agent_mode="hard", phi="sigmoid")
        traces = tmp_path / "traces.json"
        solver_csv = tmp_path / "solver.csv"
        assert main(["eval", "--checkpoint", str(base), "--data", str(data),
                     "--dump-traces", str(traces), "--dump-solver", str(solver_csv)]) == EXIT_OK
        steps_by_id = {r["graph_id"]: r["steps"] for r in json.loads(traces.read_text())}
        rows_by_id = {}
        for line in solver_csv.read_text().splitlines()[1:]:
            graph_id, _, residual = line.split(",")
            rows_by_id.setdefault(graph_id, []).append(residual)
        store, config, _, _ = load_checkpoint(base)
        graphs = read_graph_file(data)
        assert set(steps_by_id) == {g.id for g in graphs}
        for g in graphs:
            _, cache = forward(prepare_graph(g, config), store, config, mode="eval",
                               seed=derive_seed(config.seed, "eval", g.id, 0))
            steps = steps_by_id[g.id]
            assert len(steps) == cache.solver_result.iterations
            assert [f"{s['residual']:.10g}" for s in steps] == rows_by_id[g.id]
            assert [s.get("stop") for s in steps] == [None] * (len(steps) - 1) + [cache.termination]
            assert all(0 <= s["selected"] < g.n for s in steps)
            if cache.termination != "max-steps":
                assert steps[-1]["selected"] == int(np.argmax(cache.step_cache.z))

    def test_eval_averages_the_checkpoint_noise_seeds(self, tmp_path, capsys):
        # on these 6 eval graphs one noise draw gives AUC 0.333, three give 0.556
        graphs = generate_dataset(SyntheticSpec(n_graphs=12, node_count_range=(13, 15),
                                                chain_length=8, vocab_size=16, seed=3))
        config = TrainConfig(h=8, epochs=1, batch_size=4, eval_noise_seeds=3,
                             solver=SolverConfig(max_iter=10))
        result = train(graphs[:6], config, graphs[6:], vocab_size=16)
        base = tmp_path / "checkpoint"
        save_checkpoint(base, result.store, config, result.adam, epoch=result.last_epoch)
        data = tmp_path / "eval.json"
        write_graph_file(graphs[6:], data)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(base), "--data", str(data)]) == EXIT_OK
        last = [r for r in result.history if r.split == "eval"][-1]
        r = last.report
        assert capsys.readouterr().out.splitlines()[0] == (
            f"loss={last.loss:.6f} accuracy={r.accuracy:.4f} precision={r.precision:.4f} "
            f"recall={r.recall:.4f} f1={r.f1:.4f} auc={r.auc:.4f}")

    def test_infeasible_spec_is_data_error(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", chain_length=20)
        code = main(["generate", "--spec", str(spec), "--out", str(tmp_path / "d.json")])
        assert code == EXIT_DATA


def _edit_manifest(edit):
    def damage(manifest, blob):
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
    return damage


CHECKPOINT_DAMAGE = {
    "version": _edit_manifest(lambda doc: doc.update(format_version=2)),
    "solver-field": _edit_manifest(lambda doc: doc["config"]["solver"].update(momentum=0.5)),
    "truncated-json": lambda manifest, blob: manifest.write_text(manifest.read_text()[:200]),
    "short-blob": lambda manifest, blob: blob.write_bytes(blob.read_bytes()[:-4]),
    **{f"no-{key}": _edit_manifest(lambda doc, key=key: doc.pop(key))
       for key in ("tensors", "config", "dtype", "adam_t", "epoch")},
    "no-config-solver": _edit_manifest(lambda doc: doc["config"].pop("solver")),
    "tensor-without-offset": _edit_manifest(lambda doc: doc["tensors"][0].pop("offset")),
    "unknown-role": _edit_manifest(lambda doc: doc["tensors"][0].update(role="bias")),
    "json-list": lambda manifest, blob: manifest.write_text(f"[{manifest.read_text()}]"),
    "dtype-q9": _edit_manifest(lambda doc: doc.update(dtype="<q9")),
    "no-emb": _edit_manifest(lambda doc: doc.update(tensors=[
        rec for rec in doc["tensors"] if (rec["name"], rec["role"]) != ("emb", "param")])),
    **{damage: _edit_manifest(edit) for damage, edit in (
        ("W-4x8", lambda doc: _tensor(doc, "W", "param").update(shape=[4, 8])),
        ("emb-1d", lambda doc: _tensor(doc, "emb", "param").update(shape=[16])),
        ("adam-v-W-shape", lambda doc: _tensor(doc, "W", "adam_v").update(shape=[8, 8, 1])),
        ("unknown-param", lambda doc: doc["tensors"].append(
            dict(_tensor(doc, "W", "param"), name="W2"))),
        ("no-adam-m-W", lambda doc: doc["tensors"].remove(_tensor(doc, "W", "adam_m"))),
    )},
}


def _tensor(doc, name, role):
    return next(rec for rec in doc["tensors"] if (rec["name"], rec["role"]) == (name, role))


class TestCheckpointFiles:
    @pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
    def test_bad_checkpoint_is_data_error(self, tmp_path, capsys, damage):
        base, data = init_checkpoint(tmp_path)
        CHECKPOINT_DAMAGE[damage](base.with_suffix(".json"), base.with_suffix(".bin"))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(base), "--data", str(data)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("data error: ")

    @pytest.mark.parametrize("damage", ["W-4x8", "no-adam-m-W"])
    def test_shape_and_moment_faults_fail_at_load(self, tmp_path, damage):
        # both loaded before: the first failed in eval's matmul, the second at resume
        base, _ = init_checkpoint(tmp_path)
        CHECKPOINT_DAMAGE[damage](base.with_suffix(".json"), base.with_suffix(".bin"))
        with pytest.raises(CheckpointError, match="W"):
            load_checkpoint(base)

    def test_manifest_with_solver_kappa_loads_and_scores_the_same(self, tmp_path, capsys):
        # checkpoints written while SolverConfig had a kappa field carry it
        base, data = init_checkpoint(tmp_path)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(base), "--data", str(data)]) == EXIT_OK
        expected = capsys.readouterr().out
        manifest = base.with_suffix(".json")
        doc = json.loads(manifest.read_text())
        doc["config"]["solver"]["kappa"] = 0.9
        manifest.write_text(json.dumps(doc, indent=1))
        _, config, _, _ = load_checkpoint(base)
        assert config.solver == SolverConfig()
        assert main(["eval", "--checkpoint", str(base), "--data", str(data)]) == EXIT_OK
        assert capsys.readouterr().out == expected


# Every command that reads an input file, with "{name}" for each input; each
# writes "{out}" only when it succeeds.
READERS = {
    "vocab": ["vocab", "train", "--input", "{listing}", "--size", "48", "--out", "{out}"],
    "parse": ["parse", "--input", "{listing}", "--vocab", "{vocab}", "--out", "{out}"],
    "generate": ["generate", "--spec", "{spec}", "--out", "{out}"],
    "train": ["train", "--data", "{data}", "--out-dir", "{out}", "--h", "8", "--epochs", "1"],
    "eval": ["eval", "--checkpoint", "{checkpoint}", "--data", "{data}",
             "--dump-traces", "{out}"],
}
# the first bytes of an ELF object file: not UTF-8
OBJECT_BYTES = b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256))


def run_reader(tmp_path, capsys, command, name, bad):
    """Run `command` on valid inputs except `name`, which is `bad`; assert a
    data error naming `bad` (the manifest, for a checkpoint), with nothing
    written, and return its message."""
    base, data = init_checkpoint(tmp_path)
    listing = tmp_path / "f.s"
    listing.write_text(LISTING)
    vocab = tmp_path / "vocab.json"
    main(["vocab", "train", "--input", str(listing), "--size", "48", "--out", str(vocab)])
    inputs = {"listing": listing, "vocab": vocab, "spec": tmp_path / "spec.json",
              "data": data, "checkpoint": base, "out": tmp_path / "out"}
    inputs[name] = bad.with_suffix("") if name == "checkpoint" else bad
    capsys.readouterr()
    code = main([arg.format(**inputs) for arg in READERS[command]])
    err = capsys.readouterr().err
    assert code == EXIT_DATA, err
    assert len(err.splitlines()) == 1
    assert err.startswith("data error: ")
    assert str(bad) in err
    assert not (tmp_path / "out").exists()
    return err


class TestUnreadableInputs:
    @pytest.mark.parametrize("command,name", [("vocab", "listing"), ("parse", "listing"),
                                              ("parse", "vocab"), ("generate", "spec"),
                                              ("train", "data"), ("eval", "data"),
                                              ("eval", "checkpoint")])
    def test_file_that_is_not_utf8_is_data_error(self, tmp_path, capsys, command, name):
        bad = tmp_path / "compiled.json"
        bad.write_bytes(OBJECT_BYTES)
        assert "not UTF-8" in run_reader(tmp_path, capsys, command, name, bad)

    @pytest.mark.parametrize("command,name", [("parse", "listing"), ("parse", "vocab"),
                                              ("generate", "spec"), ("train", "data"),
                                              ("eval", "data")])
    def test_directory_is_data_error(self, tmp_path, capsys, command, name):
        bad = tmp_path / "folder"
        bad.mkdir()
        assert "is a directory" in run_reader(tmp_path, capsys, command, name, bad)

    @pytest.mark.parametrize("text,message", [
        ('{"n_graphs": 4,', "line 1"),
        ('{"n_graphs": 4, "colour": "red"}', "unknown field 'colour'"),
        ("[4, 8]", "not a JSON object"),
        ('{"node_count_range": [13]}', "node_count_range is [13]"),
        ('{"node_count_range": [13, "15"]}', "node_count_range"),
        ('{"n_graphs": "4"}', "n_graphs is \"4\""),
        ('{"n_graphs": 4.5}', "n_graphs is 4.5"),
        ('{"seed": true}', "seed is true"),
        ('{"exclusive_branching": 1}', "exclusive_branching is 1"),
    ])
    def test_malformed_spec_is_data_error(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad-spec.json"
        bad.write_text(text)
        err = run_reader(tmp_path, capsys, "generate", "spec", bad)
        assert "bad-spec" in err and message in err

    @pytest.mark.parametrize("field", ["n_graphs", "tokens_per_block"])
    def test_spec_below_one_is_data_error(self, tmp_path, capsys, field):
        # n_graphs 0 wrote an empty dataset; tokens_per_block 0 raised from numpy
        spec = write_spec(tmp_path / "spec.json", **{field: 0})
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert main(["generate", "--spec", str(spec), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            f"data error: infeasible-spec: {field} must be >= 1, got 0"]
        assert not out.exists()

    def test_token_id_outside_the_vocabulary_is_data_error(self, tmp_path, capsys):
        # the checkpoint's embedding has 16 rows; one block of one graph holds id 40
        base, data = init_checkpoint(tmp_path)
        doc = json.loads(data.read_text())
        doc["graphs"][2]["nodes"][1] = [2, 40, 3]
        data.write_text(json.dumps(doc))
        traces = tmp_path / "traces.json"
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(base), "--data", str(data),
                     "--dump-traces", str(traces)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.splitlines() == [
            f"data error: id-out-of-range: graph {doc['graphs'][2]['id']!r} has token id 40, "
            "but the checkpoint's vocabulary has 16 ids (0-15)"]
        assert not traces.exists()


class TestChecks:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--seed", "7", "--h", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "overall max rel err" in out

    def test_solvercheck_passes(self, capsys):
        assert main(["solvercheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cos fixed point" in out
