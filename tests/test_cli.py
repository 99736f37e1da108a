import re
import subprocess
import sys
from pathlib import Path

import pytest

from eraseg.autodiff import named_tensors
from eraseg.cli import main
from eraseg.corpus import make_synthetic_corpus
from eraseg.trainer import Checkpoint

COMMON = [
    "--set", "eras=2",
    "--set", "d_e=16",
    "--set", "d_a=16",
    "--set", "epochs=1",
    "--set", "ngram_min_count=2",
    "--set", "max_ngram=3",
    "--seed", "11",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Era-split corpus files plus a checkpoint trained through the CLI."""
    work = tmp_path_factory.mktemp("cli")
    train_part, test_part = make_synthetic_corpus(seed=7, n_train=60, n_test=20)
    for era in (0, 1):
        for name, part in (("train", train_part), ("test", test_part)):
            lines = [" ".join(s.words) for s in part.sentences if s.era_id == era]
            (work / f"{name}{era}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    ckpt_path = work / "model.ckpt"
    rc = main(
        ["train", f"0={work / 'train0.txt'}", f"1={work / 'train1.txt'}",
         "--out", str(ckpt_path), *COMMON]
    )
    assert rc == 0
    return work


def segmentable(work: Path) -> Path:
    raw = work / "raw.txt"
    if not raw.exists():
        text0 = (work / "test0.txt").read_text(encoding="utf-8").splitlines()
        text1 = (work / "test1.txt").read_text(encoding="utf-8").splitlines()
        lines = [text0[0].replace(" ", ""), "", text1[0].replace(" ", "")]
        raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return raw


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().out == ""

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_pair_without_equals(self, workspace):
        rc = main(["build-dict", "just_a_path.txt", "--out", str(workspace / "d")])
        assert rc == 1

    def test_pair_with_bad_era(self, workspace):
        rc = main(["build-dict", "x=file.txt", "--out", str(workspace / "d")])
        assert rc == 1

    def test_pair_with_negative_era(self, workspace):
        rc = main(["build-dict", "-3=file.txt", "--out", str(workspace / "d")])
        assert rc == 1

    def test_set_without_equals(self, workspace):
        rc = main(
            ["train", f"0={workspace / 'train0.txt'}", "--out", "x.ckpt", "--set", "alpha"]
        )
        assert rc == 1

    def test_alpha_out_of_range(self, workspace):
        rc = main(
            ["train", f"0={workspace / 'train0.txt'}", f"1={workspace / 'train1.txt'}",
             "--out", "x.ckpt", "--set", "eras=2", "--alpha", "2.0"]
        )
        assert rc == 1

    def test_bad_mode_choice(self, workspace):
        rc = main(
            ["train", f"0={workspace / 'train0.txt'}", "--out", "x.ckpt", "--mode", "fuzzy"]
        )
        assert rc == 1

    def test_config_file_malformed_utf8(self, workspace, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"eras = 2\nseed = \xff\n")
        rc = main(
            ["train", f"0={workspace / 'train0.txt'}", f"1={workspace / 'train1.txt'}",
             "--out", str(tmp_path / "x.ckpt"), "--config", str(bad)]
        )
        assert rc == 1

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
    def test_non_finite_lr(self, workspace, tmp_path, capsys, lr):
        rc = main(
            ["train", f"0={workspace / 'train0.txt'}", f"1={workspace / 'train1.txt'}",
             "--out", str(tmp_path / "x.ckpt"), *COMMON, "--set", f"lr={lr}"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "lr must be positive and finite" in err
        assert "epoch 1:" not in err

    def test_unknown_config_key(self, workspace):
        rc = main(
            ["train", f"0={workspace / 'train0.txt'}", f"1={workspace / 'train1.txt'}",
             "--out", "x.ckpt", "--set", "eras=2", "--set", "nonsense=1"]
        )
        assert rc == 1


class TestDataErrors:
    def test_missing_corpus(self, tmp_path, workspace):
        rc = main(
            ["train", f"0={tmp_path / 'absent.txt'}", f"1={workspace / 'train1.txt'}",
             "--out", str(tmp_path / "x.ckpt"), "--set", "eras=2"]
        )
        assert rc == 2

    def test_missing_checkpoint(self, tmp_path, workspace):
        rc = main(
            ["segment", str(segmentable(workspace)), "--checkpoint", str(tmp_path / "no.ckpt")]
        )
        assert rc == 2

    def test_malformed_utf8_input(self, tmp_path, workspace):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\x80\x81\n")
        rc = main(["segment", str(bad), "--checkpoint", str(workspace / "model.ckpt")])
        assert rc == 2

    def test_train_out_in_missing_directory(self, tmp_path, workspace, capsys):
        rc = main(
            ["train", f"0={workspace / 'train0.txt'}", f"1={workspace / 'train1.txt'}",
             "--out", str(tmp_path / "missing" / "x.ckpt"), *COMMON]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: " in err
        assert "epoch 1:" not in err  # rejected before training starts

    def test_train_out_is_a_directory(self, tmp_path, workspace, capsys):
        rc = main(
            ["train", f"0={workspace / 'train0.txt'}", f"1={workspace / 'train1.txt'}",
             "--out", str(tmp_path), *COMMON]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: " in err
        assert "epoch 1:" not in err

    def test_segment_out_in_missing_directory(self, tmp_path, workspace, capsys):
        rc = main(
            ["segment", str(segmentable(workspace)), "--checkpoint", str(workspace / "model.ckpt"),
             "--out", str(tmp_path / "missing" / "o.txt")]
        )
        assert rc == 2
        assert "error: " in capsys.readouterr().err

    def test_build_dict_out_is_a_file(self, tmp_path, workspace, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        rc = main(
            ["build-dict", f"0={workspace / 'train0.txt'}", "--out", str(taken), *COMMON]
        )
        assert rc == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["", "\n\n\n"], ids=["empty", "blank-lines"])
    def test_empty_dictionary(self, tmp_path, workspace, capsys, content):
        dicts = tmp_path / "dicts"
        dicts.mkdir()
        (dicts / "era0.dict").write_text(content, encoding="utf-8")
        (dicts / "era1.dict").write_text("金水\n", encoding="utf-8")
        rc = main(
            ["train", f"0={workspace / 'train0.txt'}", f"1={workspace / 'train1.txt'}",
             "--dict-dir", str(dicts), "--out", str(tmp_path / "x.ckpt"), *COMMON]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: empty dictionary for eras [0]" in err
        assert "epoch 1:" not in err

    def test_eval_era_beyond_checkpoint(self, workspace):
        rc = main(
            ["eval", f"5={workspace / 'test0.txt'}",
             "--checkpoint", str(workspace / "model.ckpt")]
        )
        assert rc == 2


class TestBuildDict:
    def test_writes_one_file_per_era(self, workspace, tmp_path, capsys):
        out = tmp_path / "dicts"
        rc = main(
            ["build-dict", f"0={workspace / 'train0.txt'}", f"1={workspace / 'train1.txt'}",
             "--out", str(out), *COMMON]
        )
        assert rc == 0
        assert (out / "era0.dict").exists()
        assert (out / "era1.dict").exists()
        # data channel stays clean; progress goes to stderr
        assert capsys.readouterr().out == ""

    def test_deterministic_bytes(self, workspace, tmp_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            rc = main(
                ["build-dict", f"0={workspace / 'train0.txt'}",
                 f"1={workspace / 'train1.txt'}", "--out", str(out), *COMMON]
            )
            assert rc == 0
            outs.append((out / "era0.dict").read_bytes())
        assert outs[0] == outs[1]


class TestTrain:
    def test_checkpoint_loads(self, workspace):
        ckpt = Checkpoint.load(workspace / "model.ckpt")
        assert ckpt.config.eras == 2
        assert ckpt.config.seed == 11
        assert ckpt.epoch >= 1

    def test_stdout_reports_dev_f1(self, workspace, tmp_path, capsys):
        rc = main(
            ["train", f"0={workspace / 'train0.txt'}", f"1={workspace / 'train1.txt'}",
             "--out", str(tmp_path / "m.ckpt"), *COMMON]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert re.fullmatch(r"dev_f1=(\d\.\d{4}|NA) epoch=\d+\n", captured.out)
        assert "resolved config:" in captured.err
        assert "epoch 1:" in captured.err

    def test_epoch_line_reports_gradient_norm_and_clipping(self, workspace, tmp_path, capsys):
        rc = main(
            ["train", f"0={workspace / 'train0.txt'}", f"1={workspace / 'train1.txt'}",
             "--out", str(tmp_path / "m.ckpt"), *COMMON, "--set", "batch=4"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        n_train = int(re.search(r"training on (\d+) sentences", err).group(1))
        line = re.search(
            r"^epoch 1: loss=\S+ cws=\S+ disc=\S+ dev_f1=\S+ grad_norm=(\S+) clipped=(\d+)/(\d+)$",
            err, re.M,
        )
        assert line is not None, err
        norm, clipped, steps = float(line.group(1)), int(line.group(2)), int(line.group(3))
        assert steps == -(-n_train // 4)
        assert 0 <= clipped <= steps
        assert 0.0 < norm < float("inf")

    def test_with_prebuilt_dicts(self, workspace, tmp_path, capsys):
        dicts = tmp_path / "dicts"
        assert main(
            ["build-dict", f"0={workspace / 'train0.txt'}", f"1={workspace / 'train1.txt'}",
             "--out", str(dicts), *COMMON]
        ) == 0
        rc = main(
            ["train", f"0={workspace / 'train0.txt'}", f"1={workspace / 'train1.txt'}",
             "--out", str(tmp_path / "m.ckpt"), "--dict-dir", str(dicts), *COMMON]
        )
        assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "m.ckpt").exists()

    def test_diverging_run_exits_3_without_raw_warnings(self, workspace, tmp_path):
        # A subprocess, so numpy warnings reach stderr as a user sees them.
        proc = subprocess.run(
            [sys.executable, "-m", "eraseg", "train",
             f"0={workspace / 'train0.txt'}", f"1={workspace / 'train1.txt'}",
             "--out", str(tmp_path / "m.ckpt"), *COMMON, "--set", "lr=1e300"],
            capture_output=True,
        )
        err = proc.stderr.decode("utf-8")
        assert proc.returncode == 3
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "epoch 1" in errors[0]
        assert "RuntimeWarning" not in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.ckpt").exists()


class TestNumericFailure:
    @pytest.mark.parametrize("command", ["segment", "eval"])
    def test_huge_finite_weights_exit_3_without_raw_warnings(self, workspace, tmp_path, command):
        # Weights of 1e306 pass the checkpoint's checks but overflow the
        # first matmul.  A subprocess, so numpy warnings reach stderr as a
        # user sees them.
        ckpt = Checkpoint.load(Path(__file__).parent / "data" / "golden_hard.ckpt")
        for _, tensor in named_tensors(ckpt.params):
            tensor.value *= 1e306
        huge = tmp_path / "huge.ckpt"
        huge.write_bytes(ckpt.to_bytes())
        if command == "segment":
            args = [str(segmentable(workspace))]
        else:
            args = [f"0={workspace / 'test0.txt'}", f"1={workspace / 'test1.txt'}"]
        proc = subprocess.run(
            [sys.executable, "-m", "eraseg", command, *args, "--checkpoint", str(huge)],
            capture_output=True,
        )
        err = proc.stderr.decode("utf-8")
        assert proc.returncode == 3
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "overflow" in errors[0]
        assert "RuntimeWarning" not in err
        assert "Traceback" not in err
        assert proc.stdout == b""


class TestSegment:
    def test_output_format(self, workspace, capsys):
        rc = main(
            ["segment", str(segmentable(workspace)),
             "--checkpoint", str(workspace / "model.ckpt")]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1] == ""  # blank input line passes through untouched
        for line in (lines[0], lines[2]):
            words, sep, era = line.rpartition("\t")
            assert sep == "\t"
            assert re.fullmatch(r"era=[01]", era)
            assert words

    def test_characters_preserved(self, workspace, capsys):
        raw = segmentable(workspace)
        rc = main(["segment", str(raw), "--checkpoint", str(workspace / "model.ckpt")])
        assert rc == 0
        out_lines = capsys.readouterr().out.splitlines()
        in_lines = raw.read_text(encoding="utf-8").splitlines()
        for got, want in zip(out_lines, in_lines):
            assert got.rpartition("\t")[0].replace(" ", "") == want.strip()

    def test_out_flag_writes_file(self, workspace, tmp_path, capsys):
        dest = tmp_path / "seg.txt"
        rc = main(
            ["segment", str(segmentable(workspace)),
             "--checkpoint", str(workspace / "model.ckpt"), "--out", str(dest)]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert "\tera=" in dest.read_text(encoding="utf-8")

    def test_forced_era_accepted(self, workspace, capsys):
        rc = main(
            ["segment", str(segmentable(workspace)),
             "--checkpoint", str(workspace / "model.ckpt"), "--era", "0"]
        )
        assert rc == 0
        assert "\tera=" in capsys.readouterr().out

    def test_forced_era_out_of_range(self, workspace):
        rc = main(
            ["segment", str(segmentable(workspace)),
             "--checkpoint", str(workspace / "model.ckpt"), "--era", "7"]
        )
        assert rc == 1

    def test_stdin_roundtrip(self, workspace):
        raw = segmentable(workspace)
        proc = subprocess.run(
            [sys.executable, "-m", "eraseg", "segment",
             "--checkpoint", str(workspace / "model.ckpt")],
            input=raw.read_bytes(),
            capture_output=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.decode("utf-8").count("\tera=") == 2

    def test_subprocess_runs_byte_identical(self, workspace):
        raw = segmentable(workspace)
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "eraseg", "segment", str(raw),
                 "--checkpoint", str(workspace / "model.ckpt")],
                capture_output=True,
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestEval:
    def test_report_structure(self, workspace, capsys):
        rc = main(
            ["eval", f"0={workspace / 'test0.txt'}", f"1={workspace / 'test1.txt'}",
             "--checkpoint", str(workspace / "model.ckpt")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["era", "P", "R", "F1", "R_oov", "gold", "pred"]
        assert lines[1].split()[0] == "0"
        assert lines[2].split()[0] == "1"
        assert lines[3].split()[0] == "all"
        assert any(line.startswith("era accuracy: ") for line in lines)
        machine = [line for line in lines if re.fullmatch(
            r"era=(0|1|all) f1=\d\.\d{4} roov=(\d\.\d{4}|NA)", line)]
        assert len(machine) == 3


class TestSweep:
    def test_modes_grid_table(self, workspace, capsys):
        rc = main(
            ["sweep", f"0={workspace / 'train0.txt'}", f"1={workspace / 'train1.txt'}",
             "--grid", "modes", "--set", "eras=2", "--set", "d_e=8", "--set", "d_a=8",
             "--set", "epochs=1", "--set", "ngram_min_count=2", "--set", "max_ngram=3",
             "--seed", "3"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        labels = [line.split()[0] for line in lines[1:]]
        assert labels == ["hard+sum", "hard+concat", "soft+sum", "soft+concat"]
        for line in lines[1:]:
            assert re.search(r"(\d\.\d{4}|NA)\s+\d+$", line)
