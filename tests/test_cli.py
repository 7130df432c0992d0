"""Config parsing precedence and end-to-end command behavior."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fgpan
from fgpan.cli import RunConfig, _build_parser, _echo, dispatch, main, parse_config
from fgpan.data import SlideRecord, load_prototypes, load_slide, save_slide
from fgpan.params import init_params, load_checkpoint, save_checkpoint


def run(argv, capsys):
    code = dispatch(parse_config(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


GEN_SMALL = [
    "gen", "--classes", "2", "--slides-per-class", "2", "--patches-per-slide", "9",
    "--dim", "8", "--grid-rows", "4", "--grid-cols", "4", "--seed", "5",
]


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config([])
        assert cfg.command is None
        assert cfg.profile == "desk"
        assert cfg.select == "all"
        assert cfg.window_size == 2
        assert cfg.heads == 2
        tc = cfg.train_config()
        assert (tc.learning_rate, tc.iterations) == (1e-3, 300)

    def test_paper_profile(self):
        cfg = parse_config(["train", "--profile", "paper"])
        tc = cfg.train_config()
        assert tc.learning_rate == 1e-5
        assert tc.weight_decay == 1e-4
        assert tc.batch_size == 4
        assert tc.iterations == 20000

    def test_invalid_enum_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["train", "--select", "bogus"])
        assert exc.value.code == 2
        assert "all" in capsys.readouterr().err  # lists valid values

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["train", "--no-such-flag", "1"])
        assert exc.value.code == 2

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps({"dim": 32, "heads": 3}))
        cfg = parse_config(["train", "--config", str(cfile)])
        assert cfg.dim == 32 and cfg.heads == 3
        cfg = parse_config(["train", "--config", str(cfile), "--dim", "8"])
        assert cfg.dim == 8 and cfg.heads == 3  # flag wins over file

    def test_unknown_config_file_key_rejected(self, tmp_path):
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps({"bogus_key": 1}))
        with pytest.raises(ValueError, match="unknown config file key"):
            parse_config(["train", "--config", str(cfile)])

    def test_env_seed(self, monkeypatch):
        monkeypatch.setenv("FGPAN_SEED", "99")
        assert parse_config(["gradcheck"]).seed == 99
        assert parse_config(["gradcheck", "--seed", "3"]).seed == 3

    def test_all_ablation_combos_reachable(self):
        for lg in ("on", "off"):
            for fg in ("on", "off"):
                cfg = parse_config(
                    ["infer", "--lwa-gff", lg, "--fine-grained-prototypes", fg]
                )
                assert (cfg.lwa_gff, cfg.fine_grained_prototypes) == (lg, fg)


ON_OFF = ("on", "off")
# (flag, dest, choices, default) of every option, as the hand-written parser
# declared them before the flags were derived from RunConfig
COMMON_FLAGS = {
    ("--config", "config", None, None),
    ("--seed", "seed", None, None),
    ("--dim", "dim", None, None),
    ("--window-size", "window_size", None, None),
    ("--heads", "heads", None, None),
    ("--select", "select", ("all", "fps", "topk"), None),
    ("--m-max", "m_max", None, None),
    ("--pos-mode", "pos_mode", ("sin", "table"), None),
    ("--lambda-slide", "lambda_slide", None, None),
    ("--lwa-gff", "lwa_gff", ON_OFF, None),
    ("--fine-grained-prototypes", "fine_grained_prototypes", ON_OFF, None),
    ("--profile", "profile", ("desk", "paper"), None),
    ("--learning-rate", "learning_rate", None, None),
    ("--weight-decay", "weight_decay", None, None),
    ("--batch-size", "batch_size", None, None),
    ("--iterations", "iterations", None, None),
}
COMMAND_FLAGS = {
    "gen": {
        ("--out", "out", None, None),
        ("--classes", "classes", None, None),
        ("--slides-per-class", "slides_per_class", None, None),
        ("--patches-per-slide", "patches_per_slide", None, None),
        ("--signal-fraction", "signal_fraction", None, None),
        ("--noise-sigma", "noise_sigma", None, None),
        ("--grid-rows", "grid_rows", None, None),
        ("--grid-cols", "grid_cols", None, None),
    },
    "train": {
        ("--data", "data", None, None),
        ("--prototypes", "prototypes", None, None),
        ("--checkpoint", "checkpoint", None, None),
    },
    "infer": {
        ("--data", "data", None, None),
        ("--prototypes", "prototypes", None, None),
        ("--checkpoint", "checkpoint", None, None),
        ("--out", "out", None, None),
    },
    "eval": {
        ("--data", "data", None, None),
        ("--predictions", "predictions", None, None),
    },
    "gradcheck": {
        ("--classes", "classes", None, None),
        ("--patches-per-slide", "patches_per_slide", None, None),
        ("--tolerance", "tolerance", None, None),
        ("--fd-step", "fd_step", None, None),
    },
    "proto-dist": {("--prototypes", "prototypes", None, None)},
}


def subparsers():
    parser = _build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices


def main_exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


class TestSurface:
    def test_flags_match_the_hand_written_parser(self):
        commands = subparsers()
        assert list(commands) == list(COMMAND_FLAGS)
        for name, sub in commands.items():
            flags = {
                (a.option_strings[0], a.dest, a.choices and tuple(a.choices), a.default)
                for a in sub._actions
                if a.dest != "help"
            }
            assert flags == COMMON_FLAGS | COMMAND_FLAGS[name], name

    def test_every_field_is_a_flag(self):
        dests = {a.dest for sub in subparsers().values() for a in sub._actions}
        assert {f for f in RunConfig.__dataclass_fields__ if f != "command"} <= dests

    def test_flag_types_follow_the_annotations(self):
        cfg = parse_config(["gradcheck", "--m-max", "3", "--tolerance", "1", "--seed", "4"])
        assert (cfg.m_max, cfg.tolerance, cfg.seed) == (3, 1.0, 4)
        assert type(cfg.tolerance) is float


def write_config(tmp_path, values):
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps(values))
    return str(cfile)


class TestConfigFileChecks:
    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("lwa_gff", "yes", "one of on, off"),
            ("fine_grained_prototypes", "of", "one of on, off"),
            ("select", "bogus", "one of all, fps, topk"),
            ("pos_mode", "sinus", "one of sin, table"),
            ("profile", "big", "one of desk, paper"),
            ("select", 1, "a string"),
            ("dim", "16", "an integer"),
            ("dim", None, "an integer"),
            ("classes", 4.0, "an integer"),
            ("seed", True, "an integer"),
            ("iterations", 2.5, "an integer or null"),
            ("m_max", "8", "an integer or null"),
            ("tolerance", "1e-5", "a number"),
            ("noise_sigma", None, "a number"),
            ("lambda_slide", False, "a number"),
            ("learning_rate", "0.1", "a number or null"),
            ("data", 3, "a string or null"),
            ("checkpoint", ["a.ckpt"], "a string or null"),
        ],
        ids=repr,
    )
    def test_wrong_type_or_choice_refused(self, key, value, expected, tmp_path, capsys):
        path = write_config(tmp_path, {key: value})
        with pytest.raises(ValueError, match=f"config file {re.escape(path)}: {key} must be"):
            parse_config(["train", "--config", path])
        code, err = main_exit(["train", "--config", path], capsys)
        assert code == 2
        assert err == f"error: config file {path}: {key} must be {expected}, got {value!r}\n"

    def test_accepted_values(self, tmp_path):
        path = write_config(tmp_path, {"tolerance": 0, "m_max": None, "iterations": 3,
                                       "learning_rate": 0.5, "lwa_gff": "off", "data": "d"})
        cfg = parse_config(["gradcheck", "--config", path])
        assert (cfg.tolerance, cfg.m_max, cfg.iterations) == (0, None, 3)
        assert (cfg.learning_rate, cfg.lwa_gff, cfg.data) == (0.5, "off", "d")

    @pytest.mark.parametrize("key", ["lambda_slide", "learning_rate", "tolerance"])
    def test_integer_for_a_float_reads_as_its_flag(self, key, tmp_path, capsys):
        """{"lambda_slide": 2} is the run --lambda-slide 2 is: the same
        echoed config and digest."""
        from_file = parse_config(["gradcheck", "--config", write_config(tmp_path, {key: 2})])
        from_flag = parse_config(["gradcheck", "--" + key.replace("_", "-"), "2"])
        assert repr(getattr(from_file, key)) == "2.0"
        for cfg in (from_file, from_flag):
            _echo(cfg)
        echo_file, echo_flag = capsys.readouterr().out.splitlines()[::2]
        assert f'"{key}": 2.0' in echo_file
        assert echo_file == echo_flag
        assert from_file.digest() == from_flag.digest()

    def test_command_key_refused(self, tmp_path):
        path = write_config(tmp_path, {"command": "gen"})
        with pytest.raises(ValueError, match="command cannot be set from a config file"):
            parse_config(["train", "--config", path])

    def test_missing_file_named(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        code, err = main_exit(["train", "--config", path], capsys)
        assert code == 2
        assert err.startswith(f"error: cannot read config file {path}: ")

    @pytest.mark.parametrize("text", ["[1, 2]", "7", "{"])
    def test_file_that_is_not_an_object_named(self, text, tmp_path, capsys):
        cfile = tmp_path / "cfg.json"
        cfile.write_text(text)
        code, err = main_exit(["train", "--config", str(cfile)], capsys)
        assert code == 2
        assert err.startswith(f"error: config file {cfile}: malformed config: ")

    def test_bad_env_seed_names_the_variable(self, monkeypatch, capsys):
        monkeypatch.setenv("FGPAN_SEED", "abc")
        code, err = main_exit(["gradcheck"], capsys)
        assert code == 2
        assert err == "error: FGPAN_SEED: seed must be an integer, got 'abc'\n"
        # a --seed flag means the variable is not read
        assert parse_config(["gradcheck", "--seed", "2"]).seed == 2


class TestGen:
    def test_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        argv = ["gen", "--classes", "4", "--slides-per-class", "10",
                "--patches-per-slide", "16", "--grid-rows", "5", "--grid-cols", "5",
                "--seed", "7", "--out", str(out)]
        code, stdout, _ = run(argv, capsys)
        assert code == 0
        slides = sorted(out.glob("*.slide"))
        assert len(slides) == 40
        assert (out / "prototypes.jsonl").exists()
        assert "seed: 7" in stdout and "config-digest:" in stdout

    def test_coarse_prototypes_flag(self, tmp_path, capsys):
        fine_dir, coarse_dir = tmp_path / "fine", tmp_path / "coarse"
        run(GEN_SMALL + ["--out", str(fine_dir)], capsys)
        run(GEN_SMALL + ["--fine-grained-prototypes", "off", "--out", str(coarse_dir)], capsys)
        fine = load_prototypes(fine_dir / "prototypes.jsonl")
        coarse = load_prototypes(coarse_dir / "prototypes.jsonl")
        fine_cos = np.abs(np.triu(fine.matrix() @ fine.matrix().T, 1)).max()
        coarse_cos = np.abs(np.triu(coarse.matrix() @ coarse.matrix().T, 1)).max()
        assert coarse_cos > fine_cos

    def test_determinism(self, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            run(GEN_SMALL + ["--out", str(d)], capsys)
        for name in sorted(p.name for p in dirs[0].iterdir()):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


    @pytest.mark.parametrize("flags, name", [
        (["--noise-sigma", "nan"], "noise_sigma must be finite and non-negative, got nan"),
        (["--grid-rows", "-2", "--grid-cols", "-40", "--patches-per-slide", "4"],
         "grid_rows must be positive, got -2"),
    ], ids=["sigma-nan", "negative-grid"])
    def test_bad_generator_setting_named(self, tmp_path, capsys, flags, name):
        out = tmp_path / "corpus"
        code, _, err = run(["gen", "--out", str(out)] + flags, capsys)
        assert code == 1
        assert err == f"error (gen): {name}\n"
        assert not out.exists()


class TestPipeline:
    @pytest.fixture()
    def corpus(self, tmp_path, capsys):
        out = tmp_path / "data"
        run(GEN_SMALL + ["--noise-sigma", "0.05", "--out", str(out)], capsys)
        return out

    def test_train_infer_eval(self, corpus, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        code, stdout, err = run(
            ["train", "--data", str(corpus), "--prototypes", str(corpus / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--dim", "8", "--iterations", "10", "--seed", "1"],
            capsys,
        )
        assert code == 0, err
        assert ckpt.exists()
        # losses print as plain decimals, never as numpy scalar reprs
        assert "np.float64(" not in stdout
        losses = re.fullmatch(
            r"steps: 10 first-loss: (\S+) final-loss: (\S+)", stdout.splitlines()[-2]
        )
        assert all(math.isfinite(float(x)) for x in losses.groups())

        preds = tmp_path / "preds.jsonl"
        code, _, err = run(
            ["infer", "--data", str(corpus), "--prototypes", str(corpus / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--dim", "8", "--out", str(preds), "--seed", "1"],
            capsys,
        )
        assert code == 0, err
        assert "--checkpoint" not in err
        lines = [json.loads(l) for l in preds.read_text().splitlines()]
        assert len(lines) == 4
        assert [l["slide_id"] for l in lines] == sorted(l["slide_id"] for l in lines)

        code, stdout, err = run(
            ["eval", "--data", str(corpus), "--predictions", str(preds)], capsys
        )
        assert code == 0, err
        line = stdout.strip().splitlines()[-1]
        rec = json.loads(line)
        assert list(rec) == ["bacc", "f1_macro", "f1_weighted", "auroc"]

    def test_train_zero_iterations_writes_initial_params(self, corpus, tmp_path, capsys):
        ckpt = tmp_path / "init.ckpt"
        code, stdout, err = run(
            ["train", "--data", str(corpus), "--prototypes", str(corpus / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--dim", "8", "--iterations", "0", "--seed", "6"],
            capsys,
        )
        assert code == 0, err
        assert stdout.splitlines()[-2] == "steps: 0"
        slides = [load_slide(p) for p in sorted(corpus.glob("*.slide"))]
        init = init_params(8, 2, 2, grid_rows=max(s.grid_rows for s in slides),
                           grid_cols=max(s.grid_cols for s in slides), seed=6)
        assert load_checkpoint(ckpt).flatten().tobytes() == init.flatten().tobytes()

    def test_train_infer_determinism(self, corpus, tmp_path, capsys):
        blobs = []
        for tag in ("x", "y"):
            ckpt = tmp_path / f"{tag}.ckpt"
            preds = tmp_path / f"{tag}.jsonl"
            run(["train", "--data", str(corpus),
                 "--prototypes", str(corpus / "prototypes.jsonl"),
                 "--checkpoint", str(ckpt), "--dim", "8", "--iterations", "8",
                 "--seed", "3"], capsys)
            run(["infer", "--data", str(corpus),
                 "--prototypes", str(corpus / "prototypes.jsonl"),
                 "--checkpoint", str(ckpt), "--dim", "8", "--out", str(preds),
                 "--seed", "3"], capsys)
            blobs.append(ckpt.read_bytes() + preds.read_bytes())
        assert blobs[0] == blobs[1]

    def test_infer_without_checkpoint_uses_seeded_init(self, corpus, tmp_path, capsys):
        preds = tmp_path / "p.jsonl"
        code, _, err = run(
            ["infer", "--data", str(corpus), "--prototypes", str(corpus / "prototypes.jsonl"),
             "--dim", "8", "--out", str(preds), "--seed", "2"], capsys,
        )
        assert code == 0, err
        assert len(preds.read_text().splitlines()) == 4
        assert "note: no --checkpoint; using fresh-init parameters (seed 2)" in err.splitlines()

    def test_eval_perfect_fixture(self, tmp_path, capsys):
        """Hand-built predictions that match the truth print bacc=1.0000."""
        data = tmp_path / "data"
        run(GEN_SMALL + ["--noise-sigma", "0.0", "--out", str(data)], capsys)
        preds = tmp_path / "perfect.jsonl"
        lines = []
        for path in sorted(data.glob("*.slide")):
            s = load_slide(path)
            p = [0.0, 0.0]
            p[s.label] = 0.9
            p[1 - s.label] = 0.1
            lines.append(json.dumps({"slide_id": s.slide_id, "predicted": s.label, "P": p}))
        preds.write_text("\n".join(lines) + "\n")
        code, stdout, _ = run(["eval", "--data", str(data), "--predictions", str(preds)], capsys)
        assert code == 0
        assert '"bacc": 1.0000' in stdout

    @staticmethod
    def write_predictions(data, path, drop=0, repeat=0, edit_last=None):
        """Perfect predictions for every slide in data, minus the first
        `drop` lines, plus `repeat` copies of the first line; edit_last, if
        given, changes the last record in place before it is written."""
        records = []
        for slide_path in sorted(data.glob("*.slide")):
            s = load_slide(slide_path)
            p = [0.1, 0.1]
            p[s.label] = 0.9
            records.append({"slide_id": s.slide_id, "predicted": s.label, "P": p})
        if edit_last is not None:
            edit_last(records[-1])
        lines = [json.dumps(r) for r in records]
        lines = lines[drop:] + lines[:1] * repeat
        path.write_text("\n".join(lines) + "\n")

    def test_eval_rejects_missing_prediction(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(GEN_SMALL + ["--out", str(data)], capsys)
        preds = tmp_path / "partial.jsonl"
        self.write_predictions(data, preds, drop=1)
        code, _, err = run(["eval", "--data", str(data), "--predictions", str(preds)], capsys)
        assert code == 1
        assert "no prediction for labeled slide" in err

    def test_eval_rejects_duplicate_prediction(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(GEN_SMALL + ["--out", str(data)], capsys)
        preds = tmp_path / "dup.jsonl"
        self.write_predictions(data, preds, repeat=1)
        code, _, err = run(["eval", "--data", str(data), "--predictions", str(preds)], capsys)
        assert code == 1
        assert "duplicate prediction for slide" in err

    @pytest.mark.parametrize("field", ["slide_id", "predicted", "P"])
    def test_eval_rejects_prediction_without_field(self, field, tmp_path, capsys):
        data = tmp_path / "data"
        run(GEN_SMALL + ["--out", str(data)], capsys)
        preds = tmp_path / "incomplete.jsonl"
        self.write_predictions(data, preds, edit_last=lambda rec: rec.pop(field))
        code, _, err = run(["eval", "--data", str(data), "--predictions", str(preds)], capsys)
        assert code == 1
        assert f"incomplete.jsonl line 4: malformed prediction: missing field {field!r}" in err

    def test_eval_rejects_p_row_of_wrong_length(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(GEN_SMALL + ["--out", str(data)], capsys)
        preds = tmp_path / "ragged.jsonl"
        self.write_predictions(data, preds, edit_last=lambda rec: rec["P"].append(0.0))
        last_id = json.loads(preds.read_text().splitlines()[-1])["slide_id"]
        code, _, err = run(["eval", "--data", str(data), "--predictions", str(preds)], capsys)
        assert code == 1
        assert f"slide {last_id!r}: bad prediction: P has shape (3,), other rows have 2" in err

    @pytest.mark.parametrize("value", [1.5, 1.0, True, "1", None], ids=repr)
    def test_eval_rejects_non_integer_predicted(self, value, tmp_path, capsys):
        """int() would read 1.5, true and "1" as class 1 without a word."""
        data = tmp_path / "data"
        run(GEN_SMALL + ["--out", str(data)], capsys)
        preds = tmp_path / "typed.jsonl"
        self.write_predictions(data, preds, edit_last=lambda rec: rec.update(predicted=value))
        code, _, err = run(["eval", "--data", str(data), "--predictions", str(preds)], capsys)
        assert code == 1
        assert (f"typed.jsonl line 4: malformed prediction: field 'predicted' must be an "
                f"integer, got {value!r}") in err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_eval_rejects_non_finite_probability(self, token, tmp_path, capsys):
        """json.loads reads NaN and +-Infinity; a NaN P used to pass the sum
        check and print "auroc": nan."""
        data = tmp_path / "data"
        run(GEN_SMALL + ["--out", str(data)], capsys)
        preds = tmp_path / "nan.jsonl"
        self.write_predictions(data, preds)
        lines = preds.read_text().splitlines()
        rec = json.loads(lines[-1])
        lines[-1] = lines[-1].replace(json.dumps(rec["P"]), f"[{token}, 1.0]")
        preds.write_text("\n".join(lines) + "\n")
        code, stdout, err = run(["eval", "--data", str(data), "--predictions", str(preds)],
                                capsys)
        assert code == 1
        bad = json.loads(f"[{token}, 1.0]")
        assert ("nan.jsonl line 4: malformed prediction: field 'P' must be a non-empty list "
                f"of finite numbers, got {bad!r}") in err
        assert "auroc" not in stdout

    @pytest.mark.parametrize("probs", [["0.22", "0.78"], [True, False]], ids=["str", "bool"])
    def test_eval_rejects_p_that_is_not_numbers(self, probs, tmp_path, capsys):
        """numpy reads ["0.22", "0.78"] and [true, false] as distributions;
        eval refuses them as it refuses any non-number in a vector field."""
        data = tmp_path / "data"
        run(GEN_SMALL + ["--out", str(data)], capsys)
        preds = tmp_path / "typed.jsonl"
        self.write_predictions(data, preds, edit_last=lambda rec: rec.update(P=probs))
        code, stdout, err = run(["eval", "--data", str(data), "--predictions", str(preds)],
                                capsys)
        assert code == 1
        assert ("typed.jsonl line 4: malformed prediction: field 'P' must be a non-empty list "
                f"of finite numbers, got {probs!r}") in err
        assert "bacc" not in stdout

    def test_eval_rejects_line_that_is_not_an_object(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(GEN_SMALL + ["--out", str(data)], capsys)
        preds = tmp_path / "listed.jsonl"
        self.write_predictions(data, preds)
        preds.write_text(preds.read_text() + "[1, 2]\n")
        code, _, err = run(["eval", "--data", str(data), "--predictions", str(preds)], capsys)
        assert code == 1
        assert "listed.jsonl line 5: malformed prediction: not an object" in err

    def test_infer_rejects_checkpoint_header_without_dims(self, corpus, tmp_path, capsys):
        ckpt = tmp_path / "bare.ckpt"
        ckpt.write_text('{"format": "fgpan-checkpoint", "version": 1}\n')
        code, _, err = run(
            ["infer", "--data", str(corpus), "--prototypes", str(corpus / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--dim", "8", "--out", str(tmp_path / "p.jsonl")],
            capsys,
        )
        assert code == 1
        assert "malformed checkpoint header: missing field 'dim'" in err

    @pytest.mark.parametrize("flags, mismatch", [
        (["--dim", "16", "--pos-mode", "table"], "dim=8, run expects 16"),
        (["--dim", "8", "--pos-mode", "table", "--window-size", "3"],
         "window_size=2, run expects 3"),
        (["--dim", "8", "--pos-mode", "table", "--heads", "1"], "heads=2, run expects 1"),
        (["--dim", "8"], "pos_mode=learned_table, run expects sinusoidal"),
    ], ids=["dim", "window_size", "heads", "pos_mode"])
    def test_infer_refuses_checkpoint_of_another_model(self, corpus, tmp_path, capsys, flags,
                                                       mismatch):
        """A checkpoint whose model differs from the run's flags is refused
        by name, before any prediction is written: a learned-table
        checkpoint used to run under an infer that echoed pos_mode sin."""
        ckpt, preds = tmp_path / "table.ckpt", tmp_path / "p.jsonl"
        save_checkpoint(init_params(8, 2, 2, grid_rows=4, grid_cols=4, seed=0,
                                    pos_mode="learned_table"), ckpt)
        code, err = main_exit(
            ["infer", "--data", str(corpus), "--prototypes", str(corpus / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--out", str(preds), *flags], capsys,
        )
        assert code == 1
        assert err == f"error (infer): {ckpt}: checkpoint {mismatch}\n"
        assert not preds.exists()

    def test_train_refuses_slides_of_another_dim(self, corpus, tmp_path, capsys):
        """d=8 slides under the default --dim 16 are refused by name; train
        used to echo "dim": 16 and write a dim-8 checkpoint."""
        ckpt = tmp_path / "model.ckpt"
        code, err = main_exit(
            ["train", "--data", str(corpus), "--prototypes", str(corpus / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--iterations", "1"], capsys,
        )
        first = min(p.stem for p in corpus.glob("*.slide"))
        assert code == 1
        assert err == f"error (train): slide {first!r} dim=8, run expects 16\n"
        assert not ckpt.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infer_refuses_non_finite_prediction(self, corpus, tmp_path, capsys):
        """A finite checkpoint whose aggregation logits overflow gives NaN
        alpha and P; infer names the slide and writes no predictions."""
        slides = [load_slide(p) for p in sorted(corpus.glob("*.slide"))]
        params = init_params(8, 2, 2, grid_rows=4, grid_cols=4, seed=0)
        w = np.full(params.agg.w.shape, 1e308)
        w[1::2] = -1e308
        params.agg.w = w
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(params, ckpt)
        preds = tmp_path / "p.jsonl"
        code, _, err = run(
            ["infer", "--data", str(corpus), "--prototypes", str(corpus / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--dim", "8", "--out", str(preds)], capsys,
        )
        assert code == 1
        first = min(s.slide_id for s in slides)
        assert (f"error (infer): slide {first!r}: alpha must be a finite probability vector"
                in err)
        assert not preds.exists()

    @pytest.mark.parametrize("flag, value, name", [
        ("--lambda-slide", "-1", "lambda_slide"), ("--lambda-slide", "nan", "lambda_slide"),
        ("--lambda-slide", "inf", "lambda_slide"), ("--learning-rate", "nan", "learning_rate"),
        ("--learning-rate", "inf", "learning_rate"), ("--weight-decay", "-5", "weight_decay"),
        ("--weight-decay", "nan", "weight_decay"), ("--weight-decay", "inf", "weight_decay"),
    ])
    def test_train_refuses_bad_setting(self, corpus, tmp_path, capsys, flag, value, name):
        ckpt = tmp_path / "model.ckpt"
        code, err = main_exit(
            ["train", "--data", str(corpus), "--prototypes", str(corpus / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--dim", "8", "--iterations", "3", flag, value],
            capsys,
        )
        assert code == 1
        assert err == (f"error (train): {name} must be finite and non-negative, "
                       f"got {float(value)!r}\n")
        assert not ckpt.exists()

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_two_files_with_one_slide_id_refused(self, corpus, tmp_path, capsys, command):
        """Two slide files that declare one slide_id are refused, naming
        both, before infer writes predictions or eval reads them."""
        preds = tmp_path / "p.jsonl"
        if command == "eval":
            self.write_predictions(corpus, preds)
        first = sorted(corpus.glob("*.slide"))[0]
        copy = corpus / "zz_copy.slide"
        copy.write_bytes(first.read_bytes())
        before = preds.read_bytes() if preds.exists() else None
        argv = {
            "infer": ["infer", "--data", str(corpus), "--prototypes",
                      str(corpus / "prototypes.jsonl"), "--dim", "8", "--out", str(preds)],
            "eval": ["eval", "--data", str(corpus), "--predictions", str(preds)],
        }[command]
        code, _, err = run(argv, capsys)
        assert code == 1
        sid = load_slide(first).slide_id
        assert err == f"error ({command}): {first} and {copy} both declare slide_id {sid!r}\n"
        assert (preds.read_bytes() if preds.exists() else None) == before

    @pytest.mark.parametrize("fault, lwa_gff, message", [
        ("zero row", "off", "zero-norm fused feature; cannot take cosine scores"),
        ("dim", "on", "prototype dim 8 does not match feature dim 4"),
    ])
    def test_bad_second_slide_in_a_stack_named(self, corpus, tmp_path, capsys, fault,
                                               lwa_gff, message):
        """The four 9-row slides share one stack; a fault in the second, by
        slide_id, names it with the stderr a per-slide loop gives, and no
        predictions are written."""
        second_path = sorted(corpus.glob("*.slide"))[1]
        second = load_slide(second_path)
        feats = second.matrix().copy()
        if fault == "zero row":
            feats[3] = 0.0
        else:
            feats = feats[:, :4]
        save_slide(SlideRecord(second.slide_id, second.label, second.coords(), feats,
                               second.grid_rows, second.grid_cols), second_path)
        preds = tmp_path / "p.jsonl"
        code, _, err = run(
            ["infer", "--data", str(corpus), "--prototypes", str(corpus / "prototypes.jsonl"),
             "--dim", "8", "--lwa-gff", lwa_gff, "--out", str(preds), "--seed", "1"], capsys,
        )
        assert code == 1
        assert err == ("note: no --checkpoint; using fresh-init parameters (seed 1)\n"
                       f"error (infer): slide {second.slide_id!r}: {message}\n")
        assert not preds.exists()

    def test_coordinate_beyond_int64_named(self, corpus, tmp_path, capsys):
        """A coordinate too large for int64 is a named read error (exit 1),
        not an OverflowError traceback."""
        preds = tmp_path / "p.jsonl"
        self.write_predictions(corpus, preds)
        path = sorted(corpus.glob("*.slide"))[0]
        lines = path.read_text().splitlines()
        lines[1] = "99999999999999999999 " + lines[1].split(" ", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        code, err = main_exit(["eval", "--data", str(corpus), "--predictions", str(preds)],
                              capsys)
        assert code == 1
        assert err.startswith(f"error (eval): {path}: ")
        assert "Traceback" not in err

    def test_train_with_a_huge_learning_rate_names_log_tau(self, corpus, tmp_path, capsys):
        """A learning rate that drives log_tau past exp's range ends in one
        named error line, not an OverflowError traceback, and no checkpoint."""
        ckpt = tmp_path / "model.ckpt"
        code, err = main_exit(
            ["train", "--data", str(corpus), "--prototypes", str(corpus / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--dim", "8", "--iterations", "20",
             "--learning-rate", "1000"], capsys,
        )
        assert code == 1
        assert re.fullmatch(r"error \(train\): temp\.log_tau = \S+: tau = exp\(log_tau\) "
                            r"overflows or rounds to 0\n", err)
        assert not ckpt.exists()

    @pytest.mark.parametrize("log_tau", [800.0, -800.0])
    def test_infer_with_tau_out_of_range_names_log_tau(self, corpus, tmp_path, capsys, log_tau):
        params = init_params(8, 2, 2, seed=0)
        params.temp.log_tau = log_tau
        ckpt, preds = tmp_path / "tau.ckpt", tmp_path / "p.jsonl"
        save_checkpoint(params, ckpt)
        code, err = main_exit(
            ["infer", "--data", str(corpus), "--prototypes", str(corpus / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--dim", "8", "--out", str(preds)], capsys,
        )
        first = min(load_slide(p).slide_id for p in corpus.glob("*.slide"))
        assert code == 1
        assert err == (f"error (infer): slide {first!r}: temp.log_tau = {log_tau!r}: "
                       f"tau = exp(log_tau) overflows or rounds to 0\n")
        assert not preds.exists()

    def test_missing_required_path(self, capsys):
        code, _, err = run(["train"], capsys)
        assert code == 1
        assert "requires --data" in err


def _fresh_python_env():
    """The environment of a fresh interpreter that imports this fgpan."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fgpan.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("module", ["fgpan", "fgpan.cli"])
def test_runs_as_a_module(module):
    """python -m fgpan and python -m fgpan.cli run the CLI: --help prints
    the usage and exits 0, no command exits 2."""
    env = _fresh_python_env()
    help_run = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
    assert help_run.returncode == 0, help_run.stderr
    assert help_run.stdout.startswith("usage: fgpan ")
    bare = subprocess.run([sys.executable, "-m", module], env=env, capture_output=True,
                          text=True, timeout=60)
    assert bare.returncode == 2
    assert "error: no command given" in bare.stderr


class TestGradcheckCommand:
    def test_passes_under_tolerance(self, capsys):
        code, stdout, _ = run(["gradcheck", "--seed", "3"], capsys)
        assert code == 0
        # the error prints as a plain decimal, never as a numpy scalar repr
        assert "np.float64(" not in stdout
        err = re.fullmatch(r"max-rel-error: (\S+) tolerance: 1e-05", stdout.splitlines()[-1])
        assert 0 <= float(err.group(1)) <= 1e-5

    @pytest.mark.parametrize("seed, pos_mode", [("7", "sin"), ("34", "sin"), ("34", "table")])
    def test_passes_near_the_tolerance(self, capsys, seed, pos_mode):
        """Correct gradients at seeds where a plain central difference at
        step 1e-4 read 1.09e-5 to 1.14e-5."""
        code, stdout, _ = run(["gradcheck", "--seed", seed, "--pos-mode", pos_mode], capsys)
        assert code == 0, stdout.splitlines()[-1]

    def test_fails_over_tolerance(self, capsys):
        code, _, _ = run(["gradcheck", "--seed", "3", "--tolerance", "0"], capsys)
        assert code == 1


class TestProtoDist:
    def test_prints_distance(self, tmp_path, capsys):
        data = tmp_path / "d"
        run(GEN_SMALL + ["--out", str(data)], capsys)
        code, stdout, _ = run(
            ["proto-dist", "--prototypes", str(data / "prototypes.jsonl")], capsys
        )
        assert code == 0
        # orthogonalized prototypes sit sqrt(2) apart
        assert stdout.strip().splitlines()[-1] == "1.414214"


def test_imports_no_scipy():
    """numpy is the one runtime dependency. Every CLI step is its own
    process, and importing scipy.stats, scipy.special and
    scipy.spatial added 65 MB and about 1 s to each."""
    code = ("import sys, fgpan, fgpan.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    fresh = subprocess.run([sys.executable, "-c", code], env=_fresh_python_env(),
                           capture_output=True, text=True, timeout=60)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == "[]\n"


def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """gen -> train -> infer through python -m fgpan writes the same
    checkpoint and prediction bytes under one BLAS thread and under two,
    at a shape whose window layout forms several occupancy classes (two
    512-row slides at d=128 on a 32 x 32 grid, S=4, learned table)."""
    model = ["--dim", "128", "--window-size", "4", "--heads", "2", "--pos-mode", "table",
             "--seed", "3"]
    outputs = []
    for threads in ("1", "2"):
        env = {**_fresh_python_env(), "OPENBLAS_NUM_THREADS": threads}
        work = tmp_path / threads
        data = work / "data"
        common = ["--data", str(data), "--prototypes", str(data / "prototypes.jsonl"),
                  "--checkpoint", str(work / "model.ckpt"), *model]
        for argv in (
            ["gen", "--out", str(data), "--classes", "2", "--slides-per-class", "1",
             "--patches-per-slide", "512", "--grid-rows", "32", "--grid-cols", "32", *model],
            ["train", *common, "--iterations", "3", "--batch-size", "2"],
            ["infer", *common, "--out", str(work / "preds.jsonl")],
        ):
            proc = subprocess.run([sys.executable, "-m", "fgpan", *argv], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        outputs.append([(work / name).read_bytes() for name in ("model.ckpt", "preds.jsonl")])
    assert outputs[0] == outputs[1]
