"""Config parsing precedence and end-to-end command behavior."""

import json
import math
import os
import re

import numpy as np
import pytest

from fgpan.cli import dispatch, parse_config
from fgpan.data import load_prototypes, load_slide


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
        assert f"incomplete.jsonl line 4: prediction lacks {field}" in err

    def test_eval_rejects_p_row_of_wrong_length(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(GEN_SMALL + ["--out", str(data)], capsys)
        preds = tmp_path / "ragged.jsonl"
        self.write_predictions(data, preds, edit_last=lambda rec: rec["P"].append(0.0))
        last_id = json.loads(preds.read_text().splitlines()[-1])["slide_id"]
        code, _, err = run(["eval", "--data", str(data), "--predictions", str(preds)], capsys)
        assert code == 1
        assert f"slide {last_id!r}: bad prediction: P has shape (3,), other rows have 2" in err

    def test_missing_required_path(self, capsys):
        code, _, err = run(["train"], capsys)
        assert code == 1
        assert "requires --data" in err


class TestGradcheckCommand:
    def test_passes_under_tolerance(self, capsys):
        code, stdout, _ = run(["gradcheck", "--seed", "3"], capsys)
        assert code == 0
        assert "max-rel-error" in stdout

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
