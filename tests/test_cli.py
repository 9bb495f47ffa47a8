"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from ttn import evaluate, lda, nn
from ttn.cli import build_parser, main
from ttn.fileio import MAGIC_FEATURES, MAGIC_LDA


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny dataset plus trained artifacts, produced entirely via the CLI."""
    root = str(tmp_path_factory.mktemp("cliws"))
    data = os.path.join(root, "data")
    paths = {
        "root": root,
        "data": data,
        "corpus": os.path.join(data, "corpus.jsonl"),
        "vocab": os.path.join(root, "vocab.json"),
        "model": os.path.join(root, "model.lda"),
        "netdir": os.path.join(root, "net"),
        "index": os.path.join(root, "index.bin"),
        "features": os.path.join(root, "feats.bin"),
    }
    assert main([
        "synth", "-o", data, "--topics", "2", "--docs-per-topic", "10",
        "--tokens-per-doc", "20", "--words-per-topic", "10",
        "--held-out-per-topic", "2", "--seed", "3",
    ]) == 0
    assert main(["vocab", "build", paths["corpus"], "-o", paths["vocab"], "--min-df", "2"]) == 0
    assert main([
        "lda", "train", paths["corpus"], paths["vocab"], "-o", paths["model"],
        "-k", "2", "--alpha", "0.1", "--iters", "60", "--seed", "0",
    ]) == 0
    assert main([
        "net", "train", paths["corpus"], paths["model"], "-o", paths["netdir"],
        "--iters", "120", "--batch-size", "8", "--seed", "0",
    ]) == 0
    paths["ckpt"] = os.path.join(paths["netdir"], "final.ckpt")
    assert main([
        "index", "build", paths["corpus"], "-o", paths["index"], "--modality", "both",
        "--lda", paths["model"], "--ckpt", paths["ckpt"],
    ]) == 0
    assert main([
        "net", "features", paths["ckpt"], paths["corpus"],
        "--layer", "fc7", "-o", paths["features"],
    ]) == 0
    return paths


def test_artifacts_exist(workspace):
    for key in ("corpus", "vocab", "model", "ckpt", "index", "features"):
        assert os.path.exists(workspace[key]), key
    assert os.path.exists(os.path.join(workspace["netdir"], "loss.csv"))
    assert os.path.exists(os.path.join(workspace["netdir"], "effective_config.json"))


def test_loss_csv_format(workspace):
    with open(os.path.join(workspace["netdir"], "loss.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "iter,lr,loss"
    assert len(lines) == 121
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(0.001)
    float(first[2])  # parses


def test_lda_topics_output(workspace, capsys):
    assert main(["lda", "topics", workspace["model"], "--top-n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("topic 0:")
    assert "topic 1:" in out


def test_lda_infer_prints_distribution(workspace, capsys):
    with open(os.path.join(workspace["data"], "queries.json"), encoding="utf-8") as fh:
        queries = json.load(fh)
    word = queries[0]["word"]
    assert main(["lda", "infer", workspace["model"], "--text", word]) == 0
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 2
    assert sum(values) == pytest.approx(1.0)


def test_lda_infer_oov_exits_3(workspace, capsys):
    assert main(["lda", "infer", workspace["model"], "--text", "zzz qqq"]) == 3
    err = capsys.readouterr().err
    assert "EmptyDocument" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["lda", "train"])  # missing positionals
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_missing_file_exits_3(tmp_path, capsys):
    assert main(["lda", "topics", str(tmp_path / "absent.lda")]) == 3
    assert "error:" in capsys.readouterr().err


def test_corrupt_model_exits_3(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.lda"
    with open(workspace["model"], "rb") as fh:
        bad.write_bytes(fh.read()[:40])
    assert main(["lda", "topics", str(bad)]) == 3
    assert "CorruptFile" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_exits_4(workspace, tmp_path, capsys):
    # lr large enough to overflow float64 on the first update
    out = str(tmp_path / "diverge")
    code = main([
        "net", "train", workspace["corpus"], workspace["model"], "-o", out,
        "--iters", "5", "--batch-size", "4", "--base-lr", "1e300", "--seed", "0",
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert "NonFinite" in err


def test_query_text_to_image(workspace, capsys):
    with open(os.path.join(workspace["data"], "queries.json"), encoding="utf-8") as fh:
        queries = json.load(fh)
    topic0_word = next(q["word"] for q in queries if q["topic"] == 0)
    assert main([
        "query", workspace["index"], "--text", topic0_word, "--lda", workspace["model"],
        "--top-n", "5",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rank\tid\tdivergence"
    assert len(lines) == 6
    rank1 = lines[1].split("\t")
    assert rank1[0] == "1"
    assert rank1[1].endswith(".ppm")  # text query targets images by default
    divs = [float(line.split("\t")[2]) for line in lines[1:]]
    assert divs == sorted(divs)


def test_query_image_to_text(workspace, capsys):
    image = os.path.join(workspace["data"], "heldout", "topic1_000.ppm")
    assert main([
        "query", workspace["index"], "--image", image, "--ckpt", workspace["ckpt"],
        "--top-n", "3",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.split("\t")[1].startswith("doc") for line in lines[1:])


def test_query_needs_exactly_one_input(workspace, capsys):
    assert main(["query", workspace["index"]]) == 3
    assert main([
        "query", workspace["index"], "--text", "x", "--image", "y",
        "--lda", workspace["model"], "--ckpt", workspace["ckpt"],
    ]) == 3


def test_query_writes_tsv_file(workspace, tmp_path, capsys):
    out = str(tmp_path / "results.tsv")
    with open(os.path.join(workspace["data"], "queries.json"), encoding="utf-8") as fh:
        word = json.load(fh)[0]["word"]
    assert main([
        "query", workspace["index"], "--text", word, "--lda", workspace["model"], "-o", out,
    ]) == 0
    with open(out, encoding="utf-8") as fh:
        assert fh.readline() == "rank\tid\tdivergence\n"


def test_net_embed_prints_simplex(workspace, capsys):
    image = os.path.join(workspace["data"], "heldout", "topic0_000.ppm")
    assert main(["net", "embed", workspace["ckpt"], "--image", image]) == 0
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 2
    assert sum(values) == pytest.approx(1.0)


def test_net_embed_layer_features(workspace, capsys):
    image = os.path.join(workspace["data"], "heldout", "topic0_000.ppm")
    assert main(["net", "embed", workspace["ckpt"], "--image", image, "--layer", "fc7"]) == 0
    values = capsys.readouterr().out.split()
    assert len(values) == 128


def test_eval_svm_report(workspace, capsys):
    labels = os.path.join(workspace["data"], "image_labels.csv")
    assert main(["eval", "svm", "--features", workspace["features"], "--labels", labels]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "class_id,ap"
    summary = dict(line.split(",") for line in lines[1:])
    assert float(summary["mAP"]) > 0.9
    assert float(summary["lambda"]) == pytest.approx(1e-3)


def test_eval_svm_selects_lambda_without_retraining(workspace, capsys, monkeypatch):
    # select_lambda trains one set of one-vs-rest SVMs per grid lambda; the
    # report reuses the chosen lambda's set instead of training it again.
    labels = os.path.join(workspace["data"], "image_labels.csv")
    argv = ["eval", "svm", "--features", workspace["features"], "--labels", labels,
            "--val-features", workspace["features"]]
    calls = []
    train_one_vs_rest = evaluate.train_one_vs_rest

    def counting(*args, **kwargs):
        calls.append(kwargs["lam"])
        return train_one_vs_rest(*args, **kwargs)

    monkeypatch.setattr(evaluate, "train_one_vs_rest", counting)
    assert main(argv) == 0
    selected = capsys.readouterr().out
    assert sorted(calls) == sorted(evaluate.LAMBDA_GRID)
    lam = selected.splitlines()[-1].split(",")[1]
    assert main(argv + [f"--lambda={lam}"]) == 0
    assert capsys.readouterr().out == selected


@pytest.mark.parametrize(
    "lam, with_val",
    [("0", False), ("0", True), ("-1", False), ("nan", False), ("nan", True), ("inf", False)],
    ids=["zero", "zero-with-val", "negative", "nan", "nan-with-val", "inf"],
)
def test_eval_svm_rejects_lambda_not_finite_and_positive(workspace, capsys, lam, with_val):
    labels = os.path.join(workspace["data"], "image_labels.csv")
    argv = ["eval", "svm", "--features", workspace["features"], "--labels", labels, f"--lambda={lam}"]
    if with_val:
        argv += ["--val-features", workspace["features"]]
    assert main(argv) == 3
    assert "lam must be finite and positive" in capsys.readouterr().err


def test_eval_map_from_csv(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "query_id,item_id,score,relevant\n"
        "q1,a,0.9,1\nq1,b,0.8,0\nq1,c,0.7,1\n"
        "q2,a,0.5,0\nq2,b,0.9,1\n",
        encoding="utf-8",
    )
    assert main(["eval", "map", "--scores", str(scores)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "query_id,ap"
    rows = dict(line.split(",") for line in lines[1:])
    assert float(rows["q1"]) == pytest.approx(5.0 / 6.0, abs=5e-7)
    assert float(rows["q2"]) == pytest.approx(1.0)
    assert float(rows["mAP"]) == pytest.approx(11.0 / 12.0, abs=5e-7)


def test_eval_map_rejects_bad_header(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    assert main(["eval", "map", "--scores", str(scores)]) == 3


@pytest.mark.parametrize(
    "rows",
    ["q1,a\n", "q1,a,high,1\n", "q1,a,0.5,yes\n", "q1,a,nan,1\nq1,b,0.5,0\n"],
    ids=["short-row", "non-numeric-score", "non-numeric-relevant", "nan-score"],
)
def test_eval_map_rejects_bad_rows(tmp_path, capsys, rows):
    scores = tmp_path / "scores.csv"
    scores.write_text("query_id,item_id,score,relevant\n" + rows, encoding="utf-8")
    assert main(["eval", "map", "--scores", str(scores)]) == 3
    assert "DataError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, error",
    [("doc000\n", "CorruptFile"), ("doc000,0,1\n", "DataError"), ("doc000,0\ndoc000,1\n", "DuplicateId")],
    ids=["no-class", "two-classes", "duplicate-id"],
)
def test_eval_sweep_rejects_bad_label_rows(workspace, tmp_path, capsys, row, error):
    labels = tmp_path / "labels.csv"
    with open(os.path.join(workspace["data"], "labels.csv"), encoding="utf-8") as fh:
        labels.write_text(row + fh.read(), encoding="utf-8")
    assert main([
        "eval", "sweep", workspace["corpus"], "--ks", "2", "--labels", str(labels), "--iters", "2",
    ]) == 3
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("fraction", ["0", "-0.25", "0.6", "nan", "inf"])
def test_eval_sweep_rejects_val_fraction_outside_half(workspace, capsys, fraction):
    labels = os.path.join(workspace["data"], "labels.csv")
    assert main([
        "eval", "sweep", workspace["corpus"], "--ks", "2", "--labels", labels, "--iters", "2",
        f"--val-fraction={fraction}",
    ]) == 3
    assert "DataError: --val-fraction must be in (0, 0.5]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lda-train", "eval-sweep"])
@pytest.mark.parametrize("prior", ["--alpha=nan", "--alpha=inf", "--beta=nan", "--beta=inf"])
def test_lda_priors_not_finite_exit_3_before_sampling(workspace, tmp_path, capsys, monkeypatch, command, prior):
    def no_sweep(*args):
        raise AssertionError("a Gibbs sweep ran")

    monkeypatch.setattr(lda, "gibbs_sweep", no_sweep)
    out = tmp_path / "model.lda"
    if command == "lda-train":
        argv = ["lda", "train", workspace["corpus"], workspace["vocab"], "-o", str(out), "-k", "2", prior]
    else:
        labels = os.path.join(workspace["data"], "labels.csv")
        argv = ["eval", "sweep", workspace["corpus"], "--ks", "2,3", "--labels", labels, prior]
    assert main(argv) == 3
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["-1", "nan", "inf"])
def test_index_build_rejects_epsilon_the_reader_refuses(workspace, tmp_path, capsys, epsilon):
    out = tmp_path / "index.bin"
    assert main([
        "index", "build", workspace["corpus"], "-o", str(out), "--modality", "text",
        "--lda", workspace["model"], f"--epsilon={epsilon}",
    ]) == 3
    assert "epsilon must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_query_rejects_index_with_negative_embedding_exits_3(workspace, tmp_path, capsys):
    raw = bytearray(open(workspace["index"], "rb").read())
    matrix_start = 16 + int.from_bytes(raw[8:16], "little")  # magic, header length, header
    raw[matrix_start:matrix_start + 8] = np.float64(-5.0).tobytes()
    bad = tmp_path / "index.bin"
    bad.write_bytes(bytes(raw))
    with open(os.path.join(workspace["data"], "queries.json"), encoding="utf-8") as fh:
        word = json.load(fh)[0]["word"]
    assert main(["query", workspace["index"], "--text", word, "--lda", workspace["model"]]) == 0
    assert main(["query", str(bad), "--text", word, "--lda", workspace["model"]]) == 3
    assert "CorruptFile" in capsys.readouterr().err


def _with_first_payload_value(path, value, out):
    raw = bytearray(open(path, "rb").read())
    payload_start = 16 + int.from_bytes(raw[8:16], "little")  # magic, header length, header
    raw[payload_start:payload_start + 8] = np.float64(value).tobytes()
    out.write_bytes(bytes(raw))
    return str(out)


def test_non_finite_model_or_checkpoint_exits_3(workspace, tmp_path, capsys):
    # phi[0, 0] and conv1's first weight
    bad_model = _with_first_payload_value(workspace["model"], np.nan, tmp_path / "model.lda")
    assert main(["lda", "topics", bad_model]) == 3
    assert "phi rows must be finite and non-negative" in capsys.readouterr().err
    bad_ckpt = _with_first_payload_value(workspace["ckpt"], np.inf, tmp_path / "net.ckpt")
    argv = ["net", "features", bad_ckpt, workspace["corpus"], "--layer", "fc7", "-o", str(tmp_path / "f.bin")]
    assert main(argv) == 3
    assert "conv1 weight is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["labels", "scores"])
def test_overlong_csv_field_exits_3(workspace, tmp_path, capsys, reader):
    # Past the csv module's 131072-character field limit.
    path = tmp_path / "long.csv"
    long_id = "x" * 200_000
    if reader == "labels":
        path.write_text(f"{long_id},0\n", encoding="utf-8")
        argv = ["eval", "svm", "--features", workspace["features"], "--labels", str(path)]
    else:
        path.write_text(f"query_id,item_id,score,relevant\nq1,{long_id},0.5,1\n", encoding="utf-8")
        argv = ["eval", "map", "--scores", str(path)]
    assert main(argv) == 3
    assert "CorruptFile: " in capsys.readouterr().err


def test_index_build_rejects_checkpoint_of_another_model(workspace, tmp_path, capsys):
    other = str(tmp_path / "other.lda")
    assert main([
        "lda", "train", workspace["corpus"], workspace["vocab"], "-o", other,
        "-k", "2", "--alpha", "0.1", "--iters", "5", "--seed", "1",
    ]) == 0
    capsys.readouterr()
    assert main([
        "index", "build", workspace["corpus"], "-o", str(tmp_path / "index.bin"),
        "--lda", other, "--ckpt", workspace["ckpt"],
    ]) == 3
    assert "different topic model" in capsys.readouterr().err
    assert not (tmp_path / "index.bin").exists()


@pytest.mark.parametrize(
    "modality, given, missing",
    [("both", "--lda", "--ckpt"), ("image", "--lda", "--ckpt"), ("both", "--ckpt", "--lda"), ("text", "--ckpt", "--lda")],
)
def test_index_build_names_missing_artifact(workspace, tmp_path, capsys, modality, given, missing):
    artifact = {"--lda": workspace["model"], "--ckpt": workspace["ckpt"]}[given]
    out = tmp_path / "index.bin"
    assert main([
        "index", "build", workspace["corpus"], "-o", str(out), "--modality", modality, given, artifact,
    ]) == 3
    assert f"--modality {modality} needs {missing}" in capsys.readouterr().err
    assert not out.exists()


def test_query_names_missing_artifact(workspace, capsys):
    assert main(["query", workspace["index"], "--text", "anything"]) == 3
    assert "--text needs --lda" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    ["{}", '{"layers": 5}', '{"in_shape": [3, 32, 32], "layers": [{"type": "flatten"}, {"type": "dense", "out_dim": 2.5}]}'],
    ids=["empty", "layers-not-a-list", "float-size"],
)
def test_net_train_malformed_spec_exits_3(workspace, tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(spec, encoding="utf-8")
    assert main([
        "net", "train", workspace["corpus"], workspace["model"], "-o", str(tmp_path / "net"),
        "--iters", "1", "--batch-size", "4", "--spec", str(path),
    ]) == 3
    assert "ShapeMismatch: malformed net spec" in capsys.readouterr().err


DEEP = "[" * 200_000  # nested far beyond the JSON parser's recursion limit


@pytest.mark.parametrize(
    "command, text",
    [
        ("vocab", DEEP),
        ("lda", DEEP),
        ("spec", DEEP),
    ],
    ids=["corpus-line", "vocab", "spec"],
)
def test_unparsable_json_inputs_exit_3(workspace, tmp_path, capsys, command, text):
    path = str(tmp_path / "input.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    net = ["net", "train", workspace["corpus"], workspace["model"], "-o", str(tmp_path / "net"),
           "--iters", "1", "--batch-size", "4"]
    argv = {
        "vocab": ["vocab", "build", path, "-o", str(tmp_path / "vocab.json")],
        "lda": ["lda", "train", workspace["corpus"], path, "-o", str(tmp_path / "m.lda"), "-k", "2"],
        "spec": net + ["--spec", path],
    }[command]
    assert main(argv) == 3
    assert "CorruptFile" in capsys.readouterr().err


def test_out_of_domain_vocabulary_exits_3(workspace, tmp_path, capsys):
    path = tmp_path / "vocab.json"
    path.write_text('{"words": ["ab"], "doc_freq": [-3], "min_df": -1, "max_df_ratio": NaN, "n_docs": 0}',
                    encoding="utf-8")
    assert main(["lda", "train", workspace["corpus"], str(path), "-o", str(tmp_path / "m.lda"), "-k", "2"]) == 3
    assert "CorruptFile: invalid vocabulary file" in capsys.readouterr().err


def test_malformed_containers_exit_3(workspace, tmp_path, capsys):
    def container(magic, header, declared_len=None):
        n = len(header) if declared_len is None else declared_len
        path = tmp_path / f"c{len(list(tmp_path.iterdir()))}.bin"
        path.write_bytes(magic + n.to_bytes(8, "little") + header)
        return str(path)

    labels = os.path.join(workspace["data"], "image_labels.csv")
    assert main(["lda", "topics", container(MAGIC_LDA, b"{}", declared_len=2**62)]) == 3
    huge = container(MAGIC_FEATURES, b'{"item_ids":["a"],"layer":"","shapes":[[1099511627776,1048576]]}')
    assert main(["eval", "svm", "--features", huge, "--labels", labels]) == 3
    stringy = container(MAGIC_FEATURES, b'{"item_ids":["a"],"layer":"","shapes":"abc"}')
    assert main(["eval", "svm", "--features", stringy, "--labels", labels]) == 3
    assert capsys.readouterr().err.count("CorruptFile") == 3


def test_eval_sweep_selects_planted_topic_count(workspace, capsys):
    labels = os.path.join(workspace["data"], "labels.csv")
    assert main([
        "eval", "sweep", workspace["corpus"], "--ks", "2,4", "--labels", labels,
        "--alpha", "0.1", "--iters", "40", "--seed", "0",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,score"
    assert lines[-1] == "best_k,2"  # two planted topics; ties resolve to smaller k


def test_effective_config_records_flags(workspace, tmp_path):
    out = str(tmp_path / "net")
    assert main([
        "net", "train", workspace["corpus"], workspace["model"], "-o", out,
        "--iters", "6", "--base-lr", "0.01", "--batch-size", "4", "--seed", "9",
    ]) == 0
    with open(os.path.join(out, "effective_config.json"), encoding="utf-8") as fh:
        effective = json.load(fh)
    assert effective == {
        "corpus": workspace["corpus"],
        "model": workspace["model"],
        "out_dir": out,
        "image_root": workspace["data"],
        "spec": "tiny",
        "sgd": {"base_lr": 0.01, "lr_decay": 0.1, "lr_step": 50_000, "momentum": 0.9,
                "batch_size": 4, "max_iters": 6},
        "augment": {"crop_size": 32, "mirror_prob": 0.5, "seed": 9},
        "seed": 9,
        "checkpoint_every": 0,
    }
    with open(os.path.join(out, "loss.csv"), encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 7


@pytest.mark.parametrize(
    "argv",
    [
        ["net", "train", "c.jsonl", "m.lda", "-o", "net", "--config", "run.json"],
        ["lda", "train", "c.jsonl", "v.json", "-o", "m.lda", "--average"],
        ["lda", "train", "c.jsonl", "v.json", "-o", "m.lda", "--burn-in", "5"],
        ["eval", "sweep", "c.jsonl", "--ks", "2", "--labels", "l.csv", "--burn-in", "5"],
        ["vocab", "build", "c.jsonl", "-o", "v.json", "--stopwords", "sw.txt"],
        ["lda", "train", "c.jsonl", "v.json", "-o", "m.lda", "--stopwords", "sw.txt"],
        ["eval", "sweep", "c.jsonl", "--ks", "2", "--labels", "l.csv", "--stopwords", "sw.txt"],
        ["net", "embed", "n.ckpt", "--image", "a.ppm", "--crops", "4"],
        ["index", "build", "c.jsonl", "-o", "i.bin", "--crops", "4"],
        ["query", "i.bin", "--image", "a.ppm", "--crops", "4"],
        ["index", "build", "c.jsonl", "-o", "i.bin", "--images-dir", "heldout"],
        ["lda", "infer", "m.lda", "--text", "x", "--seed", "3"],
        ["query", "i.bin", "--text", "x", "--lda", "m.lda", "--seed", "3"],
        ["index", "build", "c.jsonl", "-o", "i.bin", "--infer-seed", "3"],
        ["eval", "sweep", "c.jsonl", "--ks", "2", "--labels", "l.csv", "--closure", "purity"],
        ["eval", "sweep", "c.jsonl", "--ks", "2", "--labels", "l.csv", "--image-root", "data"],
        ["eval", "sweep", "c.jsonl", "--ks", "2", "--labels", "l.csv", "--net-iters", "1"],
        ["eval", "sweep", "c.jsonl", "--ks", "2", "--labels", "l.csv", "--base-lr", "0.01"],
        ["eval", "sweep", "c.jsonl", "--ks", "2", "--labels", "l.csv", "--batch-size", "4"],
        ["eval", "sweep", "c.jsonl", "--ks", "2", "--labels", "l.csv", "--crop-size", "32"],
        ["net", "train", "c.jsonl", "m.lda", "-o", "net", "--infer-missing"],
    ],
    ids=[
        "net-train-config", "lda-train-average", "lda-train-burn-in", "eval-sweep-burn-in",
        "vocab-build-stopwords", "lda-train-stopwords", "eval-sweep-stopwords",
        "net-embed-crops", "index-build-crops", "query-crops", "index-build-images-dir",
        "lda-infer-seed", "query-seed", "index-build-infer-seed",
        "eval-sweep-closure", "eval-sweep-image-root", "eval-sweep-net-iters", "eval-sweep-base-lr",
        "eval-sweep-batch-size", "eval-sweep-crop-size", "net-train-infer-missing",
    ],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_net_train_rejects_negative_checkpoint_every(workspace, tmp_path, capsys):
    out = tmp_path / "net"
    assert main([
        "net", "train", workspace["corpus"], workspace["model"], "-o", str(out),
        "--iters", "12", "--batch-size", "4", "--checkpoint-every", "-5",
    ]) == 3
    assert "checkpoint_every must be >= 0" in capsys.readouterr().err
    assert not list(out.glob("*.ckpt"))


def test_val_labels_need_val_features(workspace, capsys):
    labels = os.path.join(workspace["data"], "image_labels.csv")
    assert main([
        "eval", "svm", "--features", workspace["features"], "--labels", labels, "--val-labels", labels,
    ]) == 3
    assert "--val-labels needs --val-features" in capsys.readouterr().err


def test_cli_training_deterministic(workspace, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    for out in (out_a, out_b):
        assert main([
            "net", "train", workspace["corpus"], workspace["model"], "-o", out,
            "--iters", "20", "--batch-size", "4", "--seed", "5", "--checkpoint-every", "10",
        ]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    assert {"final.ckpt", "ckpt_000010.ckpt", "loss.csv", "effective_config.json"} <= set(names)
    for name in names:
        a, b = (tmp_path / "a" / name).read_bytes(), (tmp_path / "b" / name).read_bytes()
        if name == "effective_config.json":  # it records the output directory
            a = a.replace(out_a.encode(), out_b.encode())
        assert a == b, name


def test_synthetic_pipeline_script_runs(tmp_path):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_synthetic_pipeline.py")
    proc = subprocess.run(
        [sys.executable, script, "--workdir", str(tmp_path),
         "--docs-per-topic", "20", "--lda-iters", "10", "--net-iters", "20"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^text->image retrieval .*: MAP = \d\.\d{3}$", proc.stdout, re.MULTILINE)
    assert re.search(
        r"^held-out fc7 SVM mAP: trained = \d\.\d{3}, random init = \d\.\d{3}$", proc.stdout, re.MULTILINE
    )


def test_time_net_step_script_runs():
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "time_net_step.py")
    proc = subprocess.run([sys.executable, script, "--steps", "2", "--batch", "4"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    step, crops = proc.stdout.split("ten crops (predict_topics), batch 10,")
    for name in nn.tiny_topic_net(3).layer_names():
        assert re.search(rf"^{name} +\d+\.\d{{3}} +\d+\.\d{{3}}$", step, re.MULTILINE), name
        assert re.search(rf"^{name} +\d+\.\d{{3}}$", crops, re.MULTILINE), name
    for metric in ("step_ms", "minor_faults_per_step", "traced_peak_mib", "forward_peak_mib"):
        assert re.search(rf"^{metric} \d+\.\d+$", step, re.MULTILINE), metric
    assert re.search(r"^forward_ms \d+\.\d{3}$", crops, re.MULTILINE)


def test_time_lda_script_runs():
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "time_lda.py")
    proc = subprocess.run([sys.executable, script, "--docs", "20", "--sweeps", "11", "--heldout", "5"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for k in (3, 40):
        for sweeps in ("1-5", "11-11"):
            assert re.search(rf"^ *{k} +{sweeps} +\d+ +[01]\.\d{{3}}$", proc.stdout, re.MULTILINE), (k, sweeps)
    fold_in = re.search(r"^fold_in k=40, 5 held-out docs, infer_iters 50: \d+ us/doc; "
                        r"stopped (\d+) \(median \d+(?:\.5)?, max \d+ iterations\), cap (\d+)$",
                        proc.stdout, re.MULTILINE)
    assert fold_in, proc.stdout
    assert sum(map(int, fold_in.groups())) == 5


def test_time_query_script_runs():
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "time_query.py")
    proc = subprocess.run([sys.executable, script, "--entries", "200", "--queries", "2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^table_build_ms \d+\.\d{3}$", proc.stdout, re.MULTILINE)
    for kind in ("word", "doc", "image"):
        for mode in ("forward", "symmetric"):
            assert re.search(rf"^{kind} +{mode}( +\d+\.\d{{3}}){{4}}$", proc.stdout, re.MULTILINE), (kind, mode)


def test_readme_walkthrough_commands_parse():
    # A flag the docs name but the parser no longer has fails here.
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Walkthrough on synthetic data", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("ttn ")]
    assert len(commands) >= 10
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])
