"""The config schema: every value outside a key's spec ends in exit code
2 before any data is read or any output is made, and the defaults and
every preset meet it."""

import pytest

from awekit import config, corpus
from awekit.cli import main
from awekit.config import ConfigError, ExperimentConfig
from test_nn import edit_checkpoint


def outside(spec, default) -> list:
    """Values of a key with this spec and default that break the spec."""
    if spec.type is str and not spec.choices:
        return []
    values = ["bogus"] if spec.type is str else ["maybe"] if spec.type is bool else ["x"]
    if default:
        values.append("")
    if spec.type is float:
        values += ["nan", "inf"]
    if spec.type is tuple:
        values.append("2 1")
    step = 0.5 if spec.type is float else 1
    for bound, value in ((spec.ge, (spec.ge or 0) - step), (spec.gt, spec.gt),
                         (spec.le, (spec.le or 0) + step), (spec.lt, spec.lt)):
        if bound is not None:
            values.append(str(value))
    return values


CHECKED = [(section, key) for section, keys in config.SCHEMA.items() for key, (default, spec) in keys.items()
           if outside(spec, default)]


@pytest.fixture
def data_args(tmp_path, monkeypatch):
    """--set arguments naming [data] files that exist, and loaders that fail
    the test if a command reads them."""
    def read(*args, **kwargs):
        raise AssertionError("data read before the config was checked")

    for name in ("load_feature_archive", "load_alignments", "load_lexicon", "load_feature_table"):
        monkeypatch.setattr(corpus, name, read)
    args = []
    for key in config.DEFAULTS["data"]:
        (tmp_path / key).write_text("")
        args += ["--set", f"data.{key}={tmp_path / key}"]
    return args


@pytest.mark.parametrize("preset", [None, *sorted(config.PRESETS)])
def test_defaults_and_presets_meet_the_schema(preset):
    ExperimentConfig.load(None, preset=preset)  # load checks every key
    ExperimentConfig.load(None, preset=preset, overrides={("run", "seed"): "7"})


@pytest.mark.parametrize("section,key", CHECKED, ids=[f"{s}.{k}" for s, k in CHECKED])
def test_value_outside_spec_exits_2_before_data_or_output(tmp_path, data_args, capsys, section, key):
    default, spec = config.SCHEMA[section][key]
    out = tmp_path / "run"
    seed = [] if (section, key) == ("run", "seed") else ["--seed", "9"]
    for value in outside(spec, default):
        # rejected when the config is loaded, so no array, thread pool or file is made for it
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = "):
            ExperimentConfig.load(None, overrides={(section, key): value})
        assert main(["train-embed", *seed, *data_args, "--set", f"{section}.{key}={value}",
                     "--out", str(out)]) == 2, value
        assert f"[{section}] {key} = {value!r}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["train-embed", "index"])
@pytest.mark.parametrize("args", [
    ["--set", "optimizer.lr=-1"], ["--set", "training.epochs=-1"], ["--set", "objective.margin=-5"],
    ["--set", "scheduler.patience=-1"], ["--set", "objective.confusion_threshold=7"],
    ["--set", "run.threads=0"], ["--threads", "0"], ["--set", "search.beamwidth=0"],
    ["--set", "scheduler.rule=bogus"], ["--set", "search.bits=0"], ["--set", "search.bits=-3"],
    ["--set", "search.permutations=0"], ["--set", "search.stride=0"], ["--set", "optimizer.kind=bogus"],
    ["--set", "search.bits=4097"], ["--seed", "-1"], ["--seed", str(2**63)],
], ids=" ".join)
def test_values_that_once_ran_or_failed_late_exit_2(tmp_path, data_args, command, args):
    out = tmp_path / "out" / "x"
    seed = [] if "--seed" in args else ["--seed", "9"]
    extra = ["--checkpoint", str(tmp_path / "none.cadp"), "--archive", str(tmp_path / "none.cadf")] \
        if command == "index" else []
    assert main([command, *seed, *data_args, *args, *extra, "--out", str(out)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def zero_epoch_run(tmp_path_factory):
    """--set arguments naming a tiny synthetic corpus, and the checkpoint of
    a 0-epoch train-embed run on it."""
    from awekit import pipelines, synth

    spec = synth.SyntheticSpec(vocab_size=4, num_train=12, num_eval=8, words_per_utterance=(1, 2),
                               base_duration=(8, 12))
    paths = synth.write_corpus(synth.generate_corpus(spec, seed=3), tmp_path_factory.mktemp("corpus"))
    overrides = {("encoder", "layers"): "1", ("encoder", "hidden"): "8", ("training", "epochs"): "0",
                 **{("data", key): paths[key] for key in ("train", "train_align", "dev", "dev_align", "lexicon")}}
    args = ["--seed", "9"]
    for (section, key), value in overrides.items():
        args += ["--set", f"{section}.{key}={value}"]
    cfg = ExperimentConfig.load(None, overrides={**overrides, ("run", "seed"): "9"})
    return args, pipelines.train_embed(cfg, tmp_path_factory.mktemp("emb"))["checkpoint"]


@pytest.mark.parametrize("section,key,value,echoed,code", [
    ("encoder", "pooling", "attention", "attention", 2),  # a value that was removed
    ("objective", "spans", "true", "true", 0),  # removed keys, even at their old defaults
    ("scheduler", "rule", "metric", "loss-heuristic", 0),
    ("recognizer", "lexicon_mode", "static", "static", 0),
    ("search", "exhaustive", "false", "false", 0),
], ids=["pooling-attention", "objective-spans", "scheduler-rule", "recognizer-lexicon_mode", "search-exhaustive"])
def test_removed_values_exit_2_and_old_checkpoints_evaluate(zero_epoch_run, tmp_path, section, key, value,
                                                            echoed, code):
    """A config that names a removed key, or sets a removed value, exits
    with code 2 and writes nothing. A checkpoint whose echoed config holds
    a removed key still evaluates, since only the keys of DEFAULTS are read;
    one that echoes a removed value fails the schema check."""
    args, checkpoint = zero_epoch_run
    out = tmp_path / "run"
    assert main(["train-embed", *args, "--set", f"{section}.{key}={value}", "--out", str(out)]) == 2
    assert not out.exists()

    def echo(meta):
        meta["config"][section][key] = echoed
        return meta

    ckpt = tmp_path / "old" / "embed.cadp"
    edit_checkpoint(checkpoint, ckpt, meta=echo)
    report = tmp_path / "ap" / "ap.json"
    assert main(["eval-ap", *args, "--checkpoint", str(ckpt), "--out", str(report)]) == code
    assert report.exists() == (code == 0)


@pytest.mark.parametrize("setting", [
    "[encoder]\npooling = attention\n", "[objective]\nspans = true\n", "[scheduler]\nrule = loss-heuristic\n",
    "[objective]\nstrategy = uniform\nkind = multiview\n",
], ids=["pooling-attention", "objective-spans", "scheduler-rule", "multiview-uniform"])
def test_removed_values_in_a_config_file_exit_2_before_data_or_output(tmp_path, data_args, capsys, setting):
    """A config file written for the removed values is refused as a whole,
    as the same settings given by --set are."""
    ini = tmp_path / "old.ini"
    ini.write_text(setting, encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train-embed", "--seed", "9", "--config", str(ini), *data_args, "--out", str(out)]) == 2
    assert setting.split("\n")[1].split(" =")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    b"seed = 9\n", b"[run]\nseed = 9\nseed = 10\n", b"[run]\nseed = 9 \xff\n", b"[objective]\nmargin = 50%\n",
], ids=["no-section-header", "duplicate-key", "not-utf-8", "bare-percent"])
def test_malformed_config_file_exits_2_before_data_or_output(tmp_path, data_args, capsys, text):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(text)
    out = tmp_path / "run"
    assert main(["train-embed", "--seed", "9", "--config", str(ini), *data_args, "--out", str(out)]) == 2
    assert f"configuration error: {ini}: not a valid config file" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoints_echoing_removed_recognizer_and_search_keys_decode_and_query(zero_epoch_run, tmp_path):
    """Checkpoints whose echoed config holds ``[recognizer] lexicon_mode =
    static`` and ``[search] exhaustive = false``, as they did before those
    keys were removed, decode and query as the same checkpoints without
    them."""
    args, embed = zero_epoch_run
    data = dict(item.split("=", 1) for item in args[3::2])
    assert main(["train-asr", *args, "--out", str(tmp_path / "asr")]) == 0
    checkpoints = {"new": {"embed": embed, "asr": str(tmp_path / "asr" / "asr.cadp")}, "old": {}}

    def echo_removed_keys(meta):
        meta["config"]["recognizer"]["lexicon_mode"] = "static"
        meta["config"]["search"]["exhaustive"] = "false"
        return meta

    for name, source in checkpoints["new"].items():
        ckpt = tmp_path / "old" / f"{name}.cadp"
        edit_checkpoint(source, ckpt, meta=echo_removed_keys)
        checkpoints["old"][name] = str(ckpt)
    for age, ckpt in checkpoints.items():
        out = tmp_path / age
        assert main(["decode", *args, "--checkpoint", ckpt["asr"], "--archive", data["data.dev"],
                     "--out", str(out / "dec.json")]) == 0
        assert main(["index", *args, "--checkpoint", ckpt["embed"], "--archive", data["data.dev"],
                     "--out", str(out / "dev.cadi")]) == 0
        assert main(["query", *args, "--checkpoint", ckpt["embed"], "--index", str(out / "dev.cadi"),
                     "--queries", data["data.dev"], "--query-align", data["data.dev_align"],
                     "--out", str(out / "q.json")]) == 0
    for name in ("dec_hyp.tsv", "dev.cadi", "q_hits.tsv"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()
