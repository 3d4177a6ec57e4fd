"""CLI contract: subcommands, exit codes, config files, log determinism,
and the checkpoint/eval round trip."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from hiresnet.harness import checkpoint as ckpt
from hiresnet.harness.cli import main
from hiresnet.moco import PretrainConfig
from hiresnet.network import NetworkConfig
from hiresnet import network

TINY_CONFIG = """
# tiny config for fast CLI runs
channels = 4,8,16
blocks = 1,1,1
modules = 1,1
window = 2
heads = 2
head_dim = 2
num_classes = 3
input_hw = 32,32
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--no-such-flag"])
    assert exc.value.code == 1


def test_unreadable_config_is_usage_error(capsys):
    code, _, err = run_cli(["train", "--config", "/no/such/file.cfg"], capsys)
    assert code == 1
    assert "error" in err


def test_bad_config_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_key = 3\n", encoding="utf-8")
    code, _, err = run_cli(["train", "--config", str(path)], capsys)
    assert code == 1


@pytest.mark.parametrize("acts", ["gelu,swish", "gelu,silu,relu"])
def test_bad_ia_activations_is_usage_error(tmp_path, capsys, acts):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY_CONFIG + f"ia_activations = {acts}\n", encoding="utf-8")
    code, _, err = run_cli(["train", "--config", str(path), "--epochs", "0",
                            "--out", str(tmp_path / "never.ckpt")], capsys)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ia_activations"), err
    assert acts.split(",")[-1] in lines[0] and "gelu, silu, relu, sigmoid" in lines[0]


def assert_one_error_line(err, name):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {name}"), err


@pytest.mark.parametrize("line", ["window = 0", "window = -4", "heads = 0", "head_dim = 0",
                                  "se_ratio = 0", "channels = 8,0,32", "dw_kernel = 4",
                                  "dw_kernel = -1"])
def test_bad_network_size_is_usage_error(tmp_path, capsys, line):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    code, _, err = run_cli(["train", "--config", str(path), "--epochs", "0",
                            "--train-count", "1", "--val-count", "1"], capsys)
    assert code == 1
    assert_one_error_line(err, line.split(" = ")[0])


@pytest.mark.parametrize("argv, name", [
    (["pretrain", "--steps", "1", "--queue", "0"], "queue_size"),
    (["pretrain", "--steps", "1", "--width", "0"], "width"),
    (["train", "--epochs", "1", "--batch-size", "0"], "batch_size"),
    (["train", "--epochs", "0", "--val-count", "0"], "val_count"),
    (["train", "--epochs", "1", "--train-count", "0"], "train_count"),
    (["pretrain", "--steps", "1", "--batch-size", "0"], "batch_size"),
    (["pretrain", "--steps", "-1"], "steps"),
])
def test_size_below_one_is_usage_error(capsys, argv, name):
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert_one_error_line(err, name)


def test_zero_step_pretrain_exports_the_initial_encoder(tmp_path, capsys):
    out_path = tmp_path / "enc.ckpt"
    code, _, _ = run_cli(["pretrain", "--steps", "0", "--out", str(out_path)], capsys)
    assert code == 0
    params, _, _, meta = ckpt.load_checkpoint(out_path)
    assert params and meta["steps"] == "0"


def test_selftest_exits_zero(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert out.count("PASS") == 3


def test_zero_epoch_train_writes_checkpoint(tiny_config, tmp_path, capsys):
    out_path = tmp_path / "init.ckpt"
    code, _, _ = run_cli(["train", "--config", tiny_config, "--epochs", "0",
                          "--train-count", "4", "--val-count", "2",
                          "--out", str(out_path)], capsys)
    assert code == 0
    params, _, _, meta = ckpt.load_checkpoint(out_path)
    assert params and float(meta["epochs"]) == 0.0


def test_train_seeds_above_2_to_the_24_read_back_exactly(tiny_config, tmp_path, capsys):
    out_path = tmp_path / "init.ckpt"
    code, _, _ = run_cli(["train", "--config", tiny_config, "--init-seed", "16777217",
                          "--data-seed", "16777219", "--epochs", "0", "--train-count", "2",
                          "--val-count", "2", "--out", str(out_path)], capsys)
    assert code == 0
    _, _, _, meta = ckpt.load_checkpoint(out_path)
    assert meta["init_seed"] == "16777217" and meta["data_seed"] == "16777219"
    assert meta["epochs"] == "0" and meta["batch_size"] == "4"

    code, out, _ = run_cli(["inspect", "--ckpt", str(out_path)], capsys)
    assert code == 0
    for line in ("meta\tinit_seed\t16777217", "meta\tdata_seed\t16777219",
                 "meta\tcfg_input_hw\t32,32", "meta\tcfg_ia_activations\tgelu,silu",
                 "meta\tcfg_block_kind\tia"):
        assert line in out.splitlines(), line


def test_duplicate_config_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "dup.cfg"
    path.write_text(TINY_CONFIG + "window = 4\n", encoding="utf-8")
    code, _, err = run_cli(["train", "--config", str(path), "--epochs", "0",
                            "--out", str(tmp_path / "never.ckpt")], capsys)
    assert code == 1 and "duplicate key 'window'" in err, err
    assert not (tmp_path / "never.ckpt").exists()


def test_train_eval_checkpoint_round_trip(tiny_config, tmp_path, capsys):
    out_path = tmp_path / "model.ckpt"
    log_path = tmp_path / "log.tsv"
    code, train_table, _ = run_cli(
        ["train", "--config", tiny_config, "--epochs", "2", "--batch-size", "2",
         "--train-count", "4", "--val-count", "2", "--data-seed", "3",
         "--out", str(out_path), "--log", str(log_path)], capsys)
    assert code == 0

    code, eval_table, _ = run_cli(
        ["eval", "--ckpt", str(out_path), "--data-seed", "3",
         "--batch-size", "2", "--val-count", "2"], capsys)
    assert code == 0
    # eval reproduces the final in-run validation metrics digit for digit
    assert eval_table == train_table

    log = log_path.read_text(encoding="utf-8").splitlines()
    assert log[0].split("\t") == ["step", "lr", "loss_total", "loss_gd",
                                  "loss_lsce", "loss_cea", "split"]
    assert any(row.endswith("val") for row in log[1:])


def test_train_determinism_identical_logs(tiny_config, tmp_path, capsys):
    logs = []
    for run in range(2):
        log_path = tmp_path / f"log{run}.tsv"
        code, _, _ = run_cli(
            ["train", "--config", tiny_config, "--epochs", "2", "--batch-size", "2",
             "--train-count", "4", "--val-count", "2", "--data-seed", "5",
             "--log", str(log_path)], capsys)
        assert code == 0
        logs.append(log_path.read_text(encoding="utf-8"))
    assert logs[0] == logs[1]


def test_tsv_floats_round_trip(tiny_config, tmp_path, capsys):
    log_path = tmp_path / "log.tsv"
    run_cli(["train", "--config", tiny_config, "--epochs", "1", "--batch-size", "2",
             "--train-count", "4", "--val-count", "2", "--log", str(log_path)], capsys)
    rows = log_path.read_text(encoding="utf-8").splitlines()[1:]
    for row in rows:
        for cell in row.split("\t")[1:-1]:
            reparsed = f"{float(np.float32(float(cell))):.9g}"
            assert reparsed == cell


def test_inspect_matches_param_count(tiny_config, tmp_path, capsys):
    out_path = tmp_path / "model.ckpt"
    run_cli(["train", "--config", tiny_config, "--epochs", "0",
             "--train-count", "2", "--val-count", "2", "--out", str(out_path)], capsys)
    code, out, _ = run_cli(["inspect", "--ckpt", str(out_path)], capsys)
    assert code == 0
    reported = int([l for l in out.splitlines() if l.startswith("param_count")][0].split("\t")[1])
    cfg = NetworkConfig(channels=(4, 8, 16), blocks=(1, 1, 1), modules=(1, 1),
                        window=2, heads=2, head_dim=2, num_classes=3, input_hw=(32, 32))
    assert reported == network.param_count(cfg)


def test_eval_bad_checkpoint_is_usage_error(tmp_path, capsys):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"garbage")
    code, _, err = run_cli(["eval", "--ckpt", str(path)], capsys)
    assert code == 1


def test_pretrain_runs_and_exports(tmp_path, capsys):
    out_path = tmp_path / "encoder.ckpt"
    code, out, _ = run_cli(
        ["pretrain", "--steps", "3", "--queue", "16", "--batch-size", "4",
         "--width", "4", "--out", str(out_path)], capsys)
    assert code == 0
    assert "loss" in out
    params, _, _, meta = ckpt.load_checkpoint(out_path)
    assert float(meta["encoder_only"]) == 1.0
    assert any(name.startswith("funnel.") for name in params)


def test_pretrain_meta_records_every_config_field(tmp_path, capsys):
    out_path = tmp_path / "encoder.ckpt"
    code, _, _ = run_cli(["pretrain", "--steps", "0", "--width", "4", "--queue", "16",
                          "--out", str(out_path)], capsys)
    assert code == 0
    _, _, _, meta = ckpt.load_checkpoint(out_path)
    assert meta["cfg_width"] == "4" and meta["cfg_queue_size"] == "16"
    assert {f"cfg_{f.name}" for f in dataclasses.fields(PretrainConfig)} <= set(meta)


def test_dump_preds_writes_pgm(tiny_config, tmp_path, capsys):
    out_path = tmp_path / "model.ckpt"
    run_cli(["train", "--config", tiny_config, "--epochs", "1", "--batch-size", "2",
             "--train-count", "2", "--val-count", "2", "--out", str(out_path)], capsys)
    dump_dir = tmp_path / "preds"
    code, _, _ = run_cli(["eval", "--ckpt", str(out_path), "--val-count", "2",
                          "--dump-preds", str(dump_dir)], capsys)
    assert code == 0
    files = sorted(dump_dir.glob("*.pgm"))
    assert len(files) == 2
    head = files[0].read_bytes()[:2]
    assert head == b"P5"


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "hiresnet.harness.cli", "selftest"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 3
