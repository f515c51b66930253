"""Config parsing and end-to-end CLI runs on tiny workloads."""

import contextlib
import copy
import functools
import io
import json
import math
import operator
import os
import platform
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankprompt import cli
from rankprompt.cli import ABLATION_VARIANTS, main
from rankprompt.config import RunConfig, config_to_dict, load_config, parse_config_text
from rankprompt.core import InputError
from rankprompt.data import DatasetSpec, ParseError, generate_synthetic, load_csv
from rankprompt.evaluation import class_mean_similarity
from rankprompt.model import PARAM_FIELDS, forward_similarity, init_params
from rankprompt.train import evaluate, load_checkpoint, train


TINY = """
# small but trainable
seed = 7
classes = 3
samples = 60
feature_dim = 4
class_sep = 2.0
noise_sigma = 0.3
embed_dim = 8
hidden_dim = 8
epochs = 2
batch_size = 16
learning_rate = 0.01
"""


def write_config(tmp_path, text=TINY, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# (key, value, the message RunConfig rejects it with) for the settings the loss
# terms, the smoothing kernel and the optimizer read without checking them again
REJECTED_SETTINGS = [
    ("tau", 0.0, "tau must be positive"),
    ("tau", -1.0, "tau must be positive"),
    ("lambda_main", -1.0, "lambda_main must be >= 0"),
    ("lambda_main", math.nan, "lambda_main must be finite, got nan"),
    ("lambda_rank", -1.0, "lambda_rank must be >= 0"),
    ("lambda_rank", math.nan, "lambda_rank must be finite, got nan"),
    ("sms_sigma", 0.0, "sms_sigma must be positive"),
    ("sms_sigma", -1.0, "sms_sigma must be positive"),
    ("sms_sigma", math.nan, "sms_sigma must be finite, got nan"),
    ("sms_sigma", math.inf, "sms_sigma must be finite, got inf"),
    ("learning_rate", 0.0, "learning_rate must be positive"),
    ("optimizer", "lbfgs", "optimizer must be sgd or adam"),
]


# (the type built in code, key, a value of the wrong type, the type its key expects)
WRONG_TYPES = [
    (RunConfig, "sms_enabled", "no", "bool"),  # a non-empty string is truthy
    (RunConfig, "epochs", 2.5, "int"),
    (RunConfig, "epochs", True, "int"),  # a bool is an int to isinstance
    (RunConfig, "batch_size", 32.0, "int"),
    (RunConfig, "seed", 1.5, "int"),
    (RunConfig, "tau", "1", "float"),
    (RunConfig, "tau", True, "float"),
    (DatasetSpec, "samples", 100.5, "int"),
]


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config_text("")
        assert cfg == RunConfig()

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# header\n\nseed = 3  # trailing\n")
        assert cfg.seed == 3

    def test_types(self):
        cfg = parse_config_text("tau = 0.5\nepochs = 4\nsms_enabled = false\noptimizer = sgd\n")
        assert cfg.tau == 0.5
        assert cfg.epochs == 4
        assert cfg.sms_enabled is False
        assert cfg.optimizer == "sgd"

    def test_bool_spellings(self):
        for raw, want in [("true", True), ("1", True), ("YES", True), ("false", False), ("0", False), ("No", False)]:
            assert parse_config_text(f"sms_enabled = {raw}\n").sms_enabled is want

    def test_unknown_key_named(self):
        with pytest.raises(InputError, match="momentum"):
            parse_config_text("momentum = 0.9\n")

    def test_duplicate_key_named(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_bad_int(self):
        with pytest.raises(InputError, match="line 1"):
            parse_config_text("epochs = soon\n")

    def test_bad_bool(self):
        with pytest.raises(InputError, match="expects bool"):
            parse_config_text("sms_enabled = maybe\n")

    def test_missing_equals(self):
        with pytest.raises(InputError, match="line 2"):
            parse_config_text("seed = 1\nbroken line\n")

    def test_semantic_validation(self):
        with pytest.raises(InputError, match="tau"):
            parse_config_text("tau = 0\n")
        with pytest.raises(InputError, match="optimizer"):
            parse_config_text("optimizer = lbfgs\n")

    @pytest.mark.parametrize("key, bad, message", REJECTED_SETTINGS, ids=[f"{k}={v}" for k, v, _ in REJECTED_SETTINGS])
    def test_loss_kernel_and_optimizer_settings_rejected_by_name(self, key, bad, message):
        """``RunConfig`` is the one check of these settings: a bad value fails
        where the config is built, with a message that names its key."""
        with pytest.raises(InputError, match=f"^config: {message}$"):
            RunConfig(**{key: bad})

    @pytest.mark.parametrize(
        "built, key, bad, kind", WRONG_TYPES, ids=[f"{b.__name__}-{k}={v!r}" for b, k, v, _ in WRONG_TYPES]
    )
    def test_wrong_type_in_code_rejected_by_name(self, built, key, bad, kind):
        """Settings built in code are held to their field's type where the
        ``RunConfig`` is built, as a config file's parse holds them; a
        ``DatasetSpec`` inherits the check."""
        with pytest.raises(InputError, match=f"^config: {key} expects {kind}, got "):
            built(**{key: bad})

    def test_int_beyond_float64_in_a_float_field_rejected_by_name(self):
        """A float field takes an int, but not one that float64 cannot hold."""
        with pytest.raises(InputError, match=r"^config: tau must be finite, got 17976931348623159\d+$"):
            RunConfig(tau=2**1024)

    def test_round_trip_dict(self):
        cfg = parse_config_text("seed = 9\ntau = 0.25\n")
        d = config_to_dict(cfg)
        assert d["seed"] == 9 and d["tau"] == 0.25
        assert set(d) == {f for f in RunConfig.__dataclass_fields__}


# "key = value" lines over every config key plus an unknown one, with values
# that are arbitrary text or number-like edge cases.
CONFIG_VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["nan", "-inf", "1e400", "-1", "0", "1_0", "0x10", "\u0663", "true", "9" * 5000]),
)
CONFIG_TEXT = st.lists(
    st.tuples(st.sampled_from([*RunConfig.__dataclass_fields__, "warp_speed"]), CONFIG_VALUES),
    max_size=4,
).map(lambda pairs: "".join(f"{key} = {value}\n" for key, value in pairs).encode("utf-8"))


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(raw=st.one_of(st.binary(max_size=64), CONFIG_TEXT))
    def test_any_bytes_load_or_raise_input_error(self, config_dir, raw):
        """Any file gives a RunConfig with finite float fields or an
        InputError (exit 2), never another exception."""
        path = config_dir / "fuzz.cfg"
        path.write_bytes(raw)
        try:
            cfg = load_config(path)
        except InputError:
            return
        assert isinstance(cfg, RunConfig)
        assert all(math.isfinite(getattr(cfg, f.name)) for f in fields(cfg) if f.type == "float"), cfg


class TestGenerate:
    def test_writes_dataset_and_meta(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "dataset.csv").exists()
        meta = json.loads((out / "dataset.meta.json").read_text())
        assert sum(meta["class_counts"]) == 60
        assert meta["train_rows"] + meta["test_rows"] == 60
        assert meta["config"]["seed"] == 7

    def test_byte_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", cfg, "--out", str(a)])
        main(["generate", "--config", cfg, "--out", str(b)])
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "dataset.meta.json").read_bytes() == (b / "dataset.meta.json").read_bytes()
        assert (a / "dataset.csv.rows").read_bytes() == (b / "dataset.csv.rows").read_bytes()


class TestTrainEval:
    def run_pipeline(self, tmp_path, extra=""):
        cfg = write_config(tmp_path, TINY + extra)
        out = tmp_path / "out"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        return cfg, out

    def test_train_outputs(self, tmp_path):
        _, out = self.run_pipeline(tmp_path)
        log_lines = (out / "train_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 2
        entry = json.loads(log_lines[0])
        assert set(entry) >= {"epoch", "main", "rank", "total", "train_macro_f1"}
        ckpt = json.loads((out / "checkpoint.json").read_text())
        assert set(ckpt) == {"config", "epochs_run", "params", "sms"}
        assert ckpt["epochs_run"] == 2

    def test_zero_epochs_keeps_init(self, tmp_path):
        cfg, out = self.run_pipeline(tmp_path, "")
        cfg0 = write_config(tmp_path, TINY.replace("epochs = 2", "epochs = 0"), name="zero.cfg")
        out0 = tmp_path / "out0"
        main(["generate", "--config", cfg0, "--out", str(out0)])
        assert main(["train", "--config", cfg0, "--out", str(out0)]) == 0
        assert (out0 / "train_log.jsonl").read_text() == ""
        ckpt = json.loads((out0 / "checkpoint.json").read_text())
        assert ckpt["epochs_run"] == 0
        run = parse_config_text(TINY)
        init = init_params(run.feature_dim, run.hidden_dim, run.embed_dim, run.classes, run.seed)
        saved, _ = load_checkpoint(out0 / "checkpoint.json", run)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(saved, name), getattr(init, name))

    def test_train_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["generate", "--config", cfg, "--out", str(out)])
            main(["train", "--config", cfg, "--out", str(out)])
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()
        assert (a / "train_log.jsonl").read_bytes() == (b / "train_log.jsonl").read_bytes()

    def test_underflowing_sms_sigma_trains_as_the_delta_kernel(self, tmp_path):
        """sms_sigma = 1e-200 squares to 0 in float64, and at 1e-3 every
        neighbor weight is already exp(-5e5) = 0: both are the exact delta
        kernel, so they write the same log and the same checkpoint but for
        the line of its config that records the sigma."""
        outputs = []
        for sigma in ("1e-200", "0.001"):
            (tmp_path / sigma).mkdir()
            _, out = self.run_pipeline(tmp_path / sigma, f"sms_sigma = {sigma}\n")
            ckpt = [line for line in (out / "checkpoint.json").read_bytes().splitlines() if b'"sms_sigma"' not in line]
            outputs.append(((out / "train_log.jsonl").read_bytes(), ckpt))
        assert outputs[0] == outputs[1]

    def test_eval_writes_metrics(self, tmp_path, capsys):
        cfg, out = self.run_pipeline(tmp_path)
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["macro_f1"] <= 1.0
        assert metrics["n_eval"] > 0
        assert "macro_f1=" in capsys.readouterr().out

    def test_eval_deterministic(self, tmp_path):
        cfg, out = self.run_pipeline(tmp_path)
        main(["eval", "--config", cfg, "--out", str(out)])
        first = (out / "metrics.json").read_bytes()
        main(["eval", "--config", cfg, "--out", str(out)])
        assert (out / "metrics.json").read_bytes() == first

    def test_eval_train_split(self, tmp_path):
        cfg, out = self.run_pipeline(tmp_path)
        assert main(["eval", "--config", cfg, "--out", str(out), "--split", "train"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_eval"] == json.loads((out / "dataset.meta.json").read_text())["train_rows"]

    def test_heatmap_shape(self, tmp_path):
        cfg, out = self.run_pipeline(tmp_path)
        assert main(["heatmap", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "heatmap.csv").read_text().splitlines()
        assert lines[0] == "true_class,s0,s1,s2"
        assert len(lines) == 4
        row = lines[1].split(",")
        assert row[0] == "0" and len(row) == 4
        float(row[1])

    def test_heatmap_cells_are_17_digit_text(self, tmp_path, monkeypatch):
        """heatmap.csv spells each cell ``f"{v:.17g}"`` does, the NaN row of a
        grade with no rows in the split too."""
        cfg, out = self.run_pipeline(tmp_path)
        matrix = np.array([[0.1, -0.0, 5e-324], [np.nan] * 3, [1e22, -1.2345678901234567e-05, 0.73]])
        monkeypatch.setattr(cli, "heatmap_matrix", lambda *args: matrix)
        assert main(["heatmap", "--config", cfg, "--out", str(out)]) == 0
        rows = [f"{c}," + ",".join(f"{v:.17g}" for v in matrix[c]) + "\n" for c in range(3)]
        assert (out / "heatmap.csv").read_bytes() == ("true_class,s0,s1,s2\n" + "".join(rows)).encode()

    def test_eval_ignores_optimizer_key(self, tmp_path):
        """A checkpoint written with optimizer state, as older ones were, scores the same."""
        cfg, out = self.run_pipeline(tmp_path)
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        without = (out / "metrics.json").read_bytes()
        ckpt = out / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        doc["optimizer"] = {"kind": "adam", "learning_rate": 0.01, "step": 8, "m": None, "v": None}
        ckpt.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "metrics.json").read_bytes() == without

    def test_eval_ignores_sms_keys_of_older_checkpoints(self, tmp_path):
        """The grade count and kernel that older checkpoints stored in ``sms``
        are not read: the statistics are sized by ``params.hyper.classes``."""
        cfg, out = self.run_pipeline(tmp_path)
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        without = (out / "metrics.json").read_bytes()
        ckpt = out / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        doc["sms"].update(k=3, dim=3, kernel={"sigma": 0.4, "include_self": True, "normalize": True})
        ckpt.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "metrics.json").read_bytes() == without

    def test_normalize_disagreeing_with_checkpoint_is_2(self, tmp_path, capsys):
        """Scoring a model trained on unit embeddings with raw inner products
        (or the reverse) would grade it with the wrong similarity."""
        _, out = self.run_pipeline(tmp_path, "normalize_embeddings = true\n")
        plain = write_config(tmp_path, name="plain.cfg")
        capsys.readouterr()
        for command in ("eval", "heatmap"):
            assert main([command, "--config", plain, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "normalize_embeddings" in err and "checkpoint.json" in err

    def test_class_count_disagreeing_with_checkpoint_is_2(self, tmp_path, capsys):
        """A 3-grade checkpoint scored under a 2-grade config would give
        3-wide similarity rows under a 2-column heatmap header."""
        _, out = self.run_pipeline(tmp_path)
        ckpt = str(out / "checkpoint.json")
        two = write_config(tmp_path, TINY.replace("classes = 3", "classes = 2"), name="two.cfg")
        other = tmp_path / "two"
        assert main(["generate", "--config", two, "--out", str(other)]) == 0
        capsys.readouterr()
        for command in ("eval", "heatmap"):
            assert main([command, "--config", two, "--out", str(other), "--checkpoint", ckpt]) == 2
            assert f"error: {ckpt} was trained with classes = 3, the config sets 2" in capsys.readouterr().err
        assert not (other / "metrics.json").exists() and not (other / "heatmap.csv").exists()

    def test_sms_disabled_config_heatmaps_raw_scores(self, tmp_path):
        """``sms_enabled = false`` in the config that ``heatmap`` reads is the one
        inference switch: it scores the checkpoint's raw similarities, which
        differ from the calibrated ones."""
        cfg, out = self.run_pipeline(tmp_path)
        assert main(["heatmap", "--config", cfg, "--out", str(out)]) == 0
        calibrated = (out / "heatmap.csv").read_text()
        raw_cfg = write_config(tmp_path, TINY + "sms_enabled = false\n", name="raw.cfg")
        assert main(["heatmap", "--config", raw_cfg, "--out", str(out)]) == 0
        raw = (out / "heatmap.csv").read_text()
        assert raw != calibrated
        config = parse_config_text(TINY)
        params, stats = load_checkpoint(out / "checkpoint.json", config)
        assert stats is not None
        feats, labels = load_csv(out / "dataset.csv", expected_classes=config.classes).subset("test")
        want = class_mean_similarity(forward_similarity(params, feats, config.normalize_embeddings), labels, 3)
        got = np.array([[float(v) for v in line.split(",")[1:]] for line in raw.splitlines()[1:]])
        assert np.array_equal(got, want)


class TestExitCodes:
    def test_bad_config_value_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "tau = -1\n")
        assert main(["generate", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_is_2(self, tmp_path):
        cfg = write_config(tmp_path, "warp_speed = 9\n")
        assert main(["generate", "--config", cfg]) == 2

    def test_removed_sms_variant_key_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sms_variant = standard\n")
        assert main(["generate", "--config", cfg]) == 2
        assert "unknown config key 'sms_variant'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("noise_sigma = inf\n", "noise_sigma must be finite"),
            ("class_sep = 1e308\n", "generated features overflow float64"),  # c * 1e308 is inf
        ],
    )
    def test_nonfinite_generate_is_2_and_writes_nothing(self, tmp_path, capsys, text, message):
        """A config whose dataset would hold a non-finite feature, which
        `train` would reject, fails before `generate` writes anything."""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "dataset.csv").exists()

    def test_negative_seed_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "seed = -1\n")
        assert main(["generate", "--config", cfg]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, message",
        [
            ("-1", "lambda_main must be >= 0"),
            ("nan", "lambda_main must be finite"),
            ("inf", "lambda_main must be finite"),
        ],
    )
    def test_bad_lambda_main_is_2(self, tmp_path, capsys, value, message):
        cfg = write_config(tmp_path, f"lambda_main = {value}\n")
        assert main(["generate", "--config", cfg]) == 2
        assert f"config: {message}" in capsys.readouterr().err

    def test_diverging_training_is_2(self, tmp_path, capsys):
        """SGD with a step of 1e300 drives the parameters to about 1e298,
        so the next step's similarities overflow; the error names that
        step.  numpy warns about the overflow first."""
        text = TINY.replace("learning_rate = 0.01", "learning_rate = 1e300") + "optimizer = sgd\n"
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["generate", "--config", cfg, "--out", out]) == 0
        with pytest.warns(RuntimeWarning):
            assert main(["train", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "error: training diverged at epoch 0, batch 1: similarity matrix contains non-finite entries" in err

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
    @pytest.mark.parametrize("key", [f.name for f in fields(RunConfig) if f.type == "int" and f.name != "seed"])
    def test_int_beyond_int64_is_2(self, tmp_path, capsys, key, value):
        """numpy sizes and counts are int64: a larger value would end a later
        command with a traceback, so the config rejects it by name."""
        cfg = write_config(tmp_path, f"{key} = {value}\n")
        assert main(["generate", "--config", cfg]) == 2
        assert f"error: config: {key} must fit in int64, got {value}" in capsys.readouterr().err

    def test_seed_beyond_int64_loads(self, tmp_path):
        assert load_config(write_config(tmp_path, f"seed = {2**64}\n")).seed == 2**64

    def test_non_utf8_config_is_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1\xff\n")
        assert main(["generate", "--config", str(path)]) == 2
        assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err

    def test_missing_config_file_is_3(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "nope.cfg")]) == 3

    def test_missing_dataset_is_3(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "empty")]) == 3

    def test_malformed_dataset_is_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "dataset.csv").write_text("id,label,split,f0,f1,f2,f3\n0,9,train,1,2,3,4\n")
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_id_beyond_int64_is_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "dataset.csv").write_text("id,label,split,f0,f1,f2,f3\n99999999999999999999,0,train,1,2,3,4\n")
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        assert "line 2: id or label outside the int64 range" in capsys.readouterr().err

    def test_non_utf8_dataset_is_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "dataset.csv").write_bytes(b"id,label,split,f0,f1,f2,f3\n0,0,train,1,2,3,4\n1,1,train,1,2,3,\xff\n")
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        assert f"error: {out / 'dataset.csv'}: line 3: not UTF-8 text" in capsys.readouterr().err

    def test_field_over_csv_limit_is_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        big = '"' + "1" * 200_000 + '"'
        (out / "dataset.csv").write_text(f"id,label,split,f0,f1,f2,f3\n0,0,train,1,2,3,4\n1,1,train,1,2,3,{big}\n")
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        assert "line 3: field larger than field limit (131072)" in capsys.readouterr().err


class TestMalformedCheckpoint:
    """`eval` on a broken checkpoint exits 3 with a message naming the file."""

    def eval_with_checkpoint(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        ckpt = out / "checkpoint.json"
        ckpt.write_text(text(json.loads(ckpt.read_text())))
        capsys.readouterr()
        code = main(["eval", "--config", cfg, "--out", str(out)])
        return code, capsys.readouterr().err

    def test_not_json_is_3(self, tmp_path, capsys):
        code, err = self.eval_with_checkpoint(tmp_path, capsys, lambda doc: "{not json")
        assert code == 3
        assert "checkpoint.json" in err

    def test_nested_too_deeply_to_parse_is_3(self, tmp_path, capsys):
        """Python's JSON decoder recurses once per nesting level."""
        code, err = self.eval_with_checkpoint(tmp_path, capsys, lambda doc: "[" * 100_000 + "]" * 100_000)
        assert code == 3
        assert "checkpoint.json: not a JSON checkpoint" in err

    def test_missing_params_is_3(self, tmp_path, capsys):
        code, err = self.eval_with_checkpoint(tmp_path, capsys, lambda doc: "{}")
        assert code == 3
        assert "checkpoint.json" in err and "params" in err

    def test_w1_shape_disagrees_with_hyper_is_3(self, tmp_path, capsys):
        def drop_w1_row(doc):
            doc["params"]["w1"] = doc["params"]["w1"][:-1]
            return json.dumps(doc)

        code, err = self.eval_with_checkpoint(tmp_path, capsys, drop_w1_row)
        assert code == 3
        assert "checkpoint.json" in err and "w1" in err

    def test_calibration_count_shorter_than_k_is_3(self, tmp_path, capsys):
        def drop_count(doc):
            doc["sms"]["count"] = doc["sms"]["count"][:-1]
            return json.dumps(doc)

        code, err = self.eval_with_checkpoint(tmp_path, capsys, drop_count)
        assert code == 3
        assert "checkpoint.json" in err and "count" in err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("params", "w1", 0, 0), float("nan")),
            (("sms", "smoothed_mean"), None),
            (("sms", "count"), None),
            (("sms", "var", 0, 0), float("nan")),  # grade 0 is observed in every epoch
            (("sms", "mean", 0), [0.5]),  # would broadcast across the row
            (("sms", "smoothed_var", 0), [1.0] * 4),  # wider than the model's 3 grades
            (("sms", "count", 0), 1e30),
            (("sms", "count", 0), -3),
            (("sms", "count", 0), 1.5),
            (("params", "hyper", "classes"), float("inf")),  # written as Infinity
            (("params", "hyper", "embed_dim"), True),
            pytest.param(("params", "b1", 0), 10**400, id="params-int-beyond-float64"),
            pytest.param(("params", "w1", 0, 0), "0.123", id="params-string-cell"),
            pytest.param(("params", "b2", 1), True, id="params-boolean-cell"),
            pytest.param(("params", "text"), {}, id="params-object"),
            pytest.param(("params", "w2"), [["a"]], id="params-string-row"),
            pytest.param(("sms", "mean", 0, 0), 10**400, id="sms-int-beyond-float64"),
            pytest.param(("sms", "count", 0), 0, id="sms-zero-count"),  # every grade has rows in a commit
            pytest.param(("sms", "mean", 1), None, id="sms-null-row"),
            # a commit floors every variance at VAR_FLOOR, so none is <= 0
            pytest.param(("sms", "var", 2, 2), 0.0, id="sms-zero-var"),
            pytest.param(("sms", "var", 2, 2), -0.5, id="sms-negative-var"),
            pytest.param(("sms", "smoothed_var", 2, 2), 0.0, id="sms-zero-smoothed-var"),
            pytest.param(("sms", "smoothed_var", 2, 2), -0.5, id="sms-negative-smoothed-var"),
        ],
    )
    def test_bad_value_is_3(self, tmp_path, capsys, path, value):
        def rewrite(doc):
            *parents, last = path
            functools.reduce(operator.getitem, parents, doc)[last] = value
            return json.dumps(doc)

        code, err = self.eval_with_checkpoint(tmp_path, capsys, rewrite)
        assert code == 3
        assert "checkpoint.json" in err and f"{path[0]}.{path[1]}" in err

    @pytest.mark.parametrize(
        "path",
        [("params", "w1"), ("sms", "mean"), ("params", "hyper", "classes"), ("config", "normalize_embeddings")],
        ids=".".join,
    )
    def test_missing_key_is_named_by_its_dotted_key(self, tmp_path, capsys, path):
        def drop(doc):
            *parents, last = path
            del functools.reduce(operator.getitem, parents, doc)[last]
            return json.dumps(doc)

        code, err = self.eval_with_checkpoint(tmp_path, capsys, drop)
        assert code == 3
        assert f"checkpoint.json: checkpoint is missing key '{'.'.join(path)}'" in err

    @pytest.mark.parametrize("value, kind", [([], "an array"), (3, "a number")], ids=["array", "number"])
    @pytest.mark.parametrize(
        "path, name",
        [
            ((), "the document"),
            (("params",), "params"),
            (("params", "hyper"), "params.hyper"),
            (("config",), "config"),
            (("sms",), "sms"),
        ],
        ids=["document", "params", "hyper", "config", "sms"],
    )
    def test_section_not_an_object_is_3(self, tmp_path, capsys, path, name, value, kind):
        """The document and each section that is read as a JSON object are
        type-checked before they are indexed, and the message names the key."""

        def rewrite(doc):
            if not path:
                return json.dumps(value)
            *parents, last = path
            functools.reduce(operator.getitem, parents, doc)[last] = value
            return json.dumps(doc)

        code, err = self.eval_with_checkpoint(tmp_path, capsys, rewrite)
        assert code == 3
        assert f"checkpoint.json: malformed checkpoint: {name} must be a JSON object, got {kind}" in err

    @pytest.mark.parametrize("value", [0, 0.0, 1, "false", None, []], ids=repr)
    def test_non_boolean_normalize_embeddings_is_3(self, tmp_path, capsys, value):
        """``1 == True`` in Python, so a number must not pass for a boolean;
        the message blames the file, not the training run."""

        def rewrite(doc):
            doc["config"]["normalize_embeddings"] = value
            return json.dumps(doc)

        code, err = self.eval_with_checkpoint(tmp_path, capsys, rewrite)
        assert code == 3
        assert f"checkpoint.json: config.normalize_embeddings must be true or false, got {json.dumps(value)}" in err


SMS_KEYS = ("count", "mean", "var", "smoothed_mean", "smoothed_var")
# (operation, key, grade, entry: the cell a "cell" edit overwrites or the
# length "truncate" leaves, value for a "cell" edit)
SMS_MUTATIONS = st.tuples(
    st.sampled_from(("drop", "null", "truncate", "extend", "cell")),
    st.sampled_from(SMS_KEYS),
    st.integers(0, 2),
    st.integers(0, 2),
    st.one_of(
        st.floats(-2, 2).map(repr),  # numpy would parse "1.5" as a number
        st.text("0123456789.-ex", max_size=4),
        st.floats(),
        st.lists(st.floats(-1, 1), min_size=1, max_size=3),
    ),
)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    cfg = write_config(out)
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "checkpoint.json").read_text())
    assert all(doc["sms"]["count"])  # every grade has rows to mutate
    return out, doc


class TestCheckpointFuzz:
    @settings(max_examples=100, deadline=None)
    @given(mutation=SMS_MUTATIONS)
    def test_mutated_sms_loads_or_raises_parse_error(self, tiny_checkpoint, mutation):
        """Only a finite number written over a calibration row entry, one > 0
        in a variance, leaves a loadable checkpoint; every other edit raises
        ParseError, nothing else."""
        out, doc = tiny_checkpoint
        op, key, grade, entry, value = mutation
        sms = copy.deepcopy(doc["sms"])
        target = sms[key] if key == "count" else sms[key][grade]
        if op == "drop":
            del sms[key]
        elif op == "null":
            sms[key] = None
        elif op == "truncate":
            del target[entry:]
        elif op == "extend":
            target.append(target[-1])
        else:
            target[grade if key == "count" else entry] = value
        path = out / "mutated.json"
        path.write_text(json.dumps(dict(doc, sms=sms)))
        try:
            load_checkpoint(path, parse_config_text(TINY))
        except ParseError:
            return
        assert op == "cell" and key != "count" and isinstance(value, float) and np.isfinite(value), mutation
        assert key not in ("var", "smoothed_var") or value > 0, mutation


HYPER_KEYS = ("feature_dim", "hidden_dim", "embed_dim", "classes")
PLACEHOLDER = "@value@"
# (operation, key: a tensor, one hyper size or the whole hyper object, index
# of the entry a "cell" edit overwrites or the length "truncate" leaves, the
# raw JSON text written in place of a "set" or "cell" value)
PARAMS_MUTATIONS = st.tuples(
    st.sampled_from(("drop", "set", "cell", "truncate", "extend")),
    st.sampled_from((*PARAM_FIELDS, *(f"hyper.{key}" for key in HYPER_KEYS), "hyper")),
    st.integers(0, 3),
    st.one_of(
        st.sampled_from(
            ["1e999", "-1e999", "NaN", "0", "-1", "true", "3.0", '"3"', "null", "[]", "{}", str(2**70), "9" * 400]
        ),
        st.integers(-2, 10).map(str),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
    ),
)


class TestParamsFuzz:
    # numpy warns when a huge weight overflows a product to inf; the CLI
    # prints that warning and goes on, so the test lets it pass too
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(mutation=PARAMS_MUTATIONS)
    @example(mutation=("set", "hyper.classes", 0, "1e999"))
    @example(mutation=("cell", "w1", 0, "1e308"))
    @example(mutation=("cell", "w1", 0, "9" * 400))
    @example(mutation=("cell", "w1", 0, '"3"'))
    @example(mutation=("cell", "b2", 0, "true"))
    def test_mutated_params_eval_exits_0_2_or_3(self, tiny_checkpoint, mutation):
        """Any edit of the checkpoint's ``params`` object lets `eval` load it
        or exit 2 or 3; no other exception escapes.  A ``hyper`` size of
        1e999 parses to a float infinity and must exit 3.  A tensor cell may
        load only when it is a JSON number that float64 holds finitely; any
        other cell (a string such as ``"3"``, a boolean, null, an array, an
        object) must exit 3 with a message naming ``params.<tensor>``."""
        out, doc = tiny_checkpoint
        op, key, index, token = mutation
        params = copy.deepcopy(doc["params"])
        owner, name = (params["hyper"], key.split(".")[1]) if "." in key else (params, key)
        target = owner[name]
        if op == "drop":
            del owner[name]
        elif op == "truncate" and isinstance(target, list):
            del target[index:]
        elif op == "extend" and isinstance(target, list):
            target.append(target[-1])
        elif op == "cell" and isinstance(target, list):
            while isinstance(target[0], list):
                target = target[0]
            target[index] = PLACEHOLDER
        else:
            owner[name] = PLACEHOLDER
        path = out / "mutated_params.json"
        path.write_text(json.dumps(dict(doc, params=params)).replace(json.dumps(PLACEHOLDER), token))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["eval", "--config", str(out / "run.cfg"), "--out", str(out), "--checkpoint", str(path)])
        assert code in (0, 2, 3), mutation
        value = json.loads(token)
        if key.startswith("hyper.") and op != "drop" and not (type(value) is int and value >= 1):
            assert code == 3, mutation
        float64_number = type(value) in (int, float) and abs(value) <= sys.float_info.max
        if op == "cell" and key in PARAM_FIELDS and not float64_number:
            assert code == 3 and f"params.{key} " in err.getvalue(), mutation


CONFIG_TOKENS = ("0", "0.0", "1", "-1", "1e999", '"false"', '"true"', "null", "[]", "{}", "true", "false")
# (operation, key: None for the whole config object, the raw JSON text a "set" writes)
CONFIG_MUTATIONS = st.tuples(
    st.sampled_from(("drop", "null", "set")),
    st.sampled_from((None, *RunConfig.__dataclass_fields__)),
    st.sampled_from(CONFIG_TOKENS),
)


class TestCheckpointConfigFuzz:
    @settings(max_examples=100, deadline=None)
    @given(mutation=CONFIG_MUTATIONS)
    @example(mutation=("set", "normalize_embeddings", "1"))
    @example(mutation=("set", "normalize_embeddings", "true"))
    @example(mutation=("set", None, "{}"))
    def test_mutated_config_loads_or_raises_parse_or_input_error(self, tiny_checkpoint, mutation):
        """Dropping, nulling or retyping the checkpoint's ``config`` object or
        one of its keys loads, or raises ParseError or InputError and nothing
        else.  Only ``normalize_embeddings`` is read: anything but a JSON
        boolean there is a ParseError naming it, and ``true`` contradicts the
        config, an InputError."""
        out, doc = tiny_checkpoint
        op, key, token = mutation
        token = "null" if op == "null" else token
        mutated = copy.deepcopy(doc)
        owner, name = (mutated, "config") if key is None else (mutated["config"], key)
        if op == "drop":
            del owner[name]
        else:
            owner[name] = PLACEHOLDER
        path = out / "mutated_config.json"
        path.write_text(json.dumps(mutated).replace(json.dumps(PLACEHOLDER), token))
        read = key == "normalize_embeddings"
        if key is None or (read and (op == "drop" or token not in ("true", "false"))):
            with pytest.raises(ParseError, match="mutated_config.json") as raised:
                load_checkpoint(path, parse_config_text(TINY))
            assert key is None or "normalize_embeddings" in str(raised.value), mutation
        elif read and token == "true":
            with pytest.raises(InputError, match="trained with normalize_embeddings = True") as raised:
                load_checkpoint(path, parse_config_text(TINY))
            assert raised.type is InputError, mutation
        else:
            load_checkpoint(path, parse_config_text(TINY))


class TestSeedEnv:
    def test_env_overrides_config_seed(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", cfg, "--out", str(a)])
        monkeypatch.setenv("RANKPROMPT_SEED", "123")
        main(["generate", "--config", cfg, "--out", str(b)])
        assert (a / "dataset.csv").read_bytes() != (b / "dataset.csv").read_bytes()
        meta = json.loads((b / "dataset.meta.json").read_text())
        assert meta["config"]["seed"] == 123

    def test_env_must_be_int(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("RANKPROMPT_SEED", "lucky")
        assert main(["generate", "--config", cfg]) == 2
        assert "RANKPROMPT_SEED" in capsys.readouterr().err

    def test_env_must_be_non_negative(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("RANKPROMPT_SEED", "-5")
        assert main(["generate", "--config", cfg]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err


# In a fresh interpreter: generate and train a 20,000-row dataset, then print
# the page faults each of three in-process evals took.
EVAL_FAULTS = """
import contextlib, io, resource, sys
from rankprompt.cli import main
cfg, out = sys.argv[1:]
def run(command):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", cfg, "--out", out]) == 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
run("generate"), run("train")
print(*[run("eval") for _ in range(3)])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
class TestMallocThresholds:
    def test_main_pins_them(self):
        assert cli._pin_malloc_thresholds() is True

    def test_repeated_eval_reuses_the_heap(self, tmp_path):
        """With the thresholds pinned, a repeated eval's multi-megabyte arrays
        reuse the pages the previous one freed; left dynamic, each eval here
        mapped them afresh (about 950 faults)."""
        cfg = write_config(tmp_path, TINY.replace("samples = 60", "samples = 20000").replace("epochs = 2", "epochs = 1"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", EVAL_FAULTS, cfg, str(tmp_path / "out")],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        first, *repeats = map(int, done.stdout.split())
        assert max(repeats) < 300, (first, repeats)


class TestAblate:
    @pytest.mark.parametrize("name", ABLATION_VARIANTS)
    def test_variant_is_config_overrides(self, name):
        """Each variant is RunConfig overrides only, which build a valid config
        and leave the dataset alone: the four variants of a seed share one
        dataset, which is what makes their comparison paired.  ``ablate`` no
        longer depends on that to be correct (see the next test)."""
        overrides = ABLATION_VARIANTS[name]
        assert set(overrides) <= set(RunConfig.__dataclass_fields__)
        cfg = replace(RunConfig(), **overrides)  # __post_init__ checks every value
        assert {key: getattr(cfg, key) for key in overrides} == overrides
        assert DatasetSpec.from_config(cfg) == DatasetSpec.from_config(RunConfig())

    @pytest.mark.parametrize("name", ["wide", "narrow"])
    def test_variant_trains_on_its_own_dataset(self, tmp_path, monkeypatch, name):
        """A variant that overrides a dataset key trains and scores on the
        dataset its own config describes: its values are those of generating,
        training and evaluating that config directly, seed by seed."""
        monkeypatch.delenv("RANKPROMPT_SEED", raising=False)
        monkeypatch.setitem(ABLATION_VARIANTS, "wide", {"class_sep": 3.0})
        monkeypatch.setitem(ABLATION_VARIANTS, "narrow", {"feature_dim": 3})
        text = TINY.replace("samples = 60", "samples = 40").replace("epochs = 2", "epochs = 1")
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg_path, "--out", str(out)]) == 0
        doc = json.loads((out / "ablation.json").read_text())
        reports = []
        for seed in doc["seeds"]:
            vcfg = replace(load_config(cfg_path), seed=seed, **ABLATION_VARIANTS[name])
            dataset = generate_synthetic(DatasetSpec.from_config(vcfg))
            result = train(vcfg, dataset)
            reports.append(evaluate(result.params, result.stats, *dataset.subset("test"), vcfg))
        for metric, summary in doc["variants"][name].items():
            assert summary["values"] == [getattr(report, metric) for report in reports]

    def test_summary_schema(self, tmp_path):
        text = TINY.replace("samples = 60", "samples = 40").replace("epochs = 2", "epochs = 1")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "ablation.json").read_text())
        assert doc["seeds"] == [7, 8, 9, 10, 11]
        assert set(doc["variants"]) == {"full", "no_rank", "no_main", "no_sms"}
        for variant in doc["variants"].values():
            assert set(variant) == {"macro_f1", "macro_auc", "rank_monotonicity"}
            for metric in variant.values():
                assert set(metric) == {"mean", "stdev", "values"}
                assert len(metric["values"]) == 5
                assert metric["mean"] == pytest.approx(np.mean(metric["values"]), abs=1e-12)
