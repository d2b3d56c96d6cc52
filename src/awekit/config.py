"""Experiment configuration: plain-text key=value files with [sections],
named presets bundling known-good hyperparameter sets, and CLI overrides.

Precedence, lowest to highest: built-in defaults, preset, config file,
explicit overrides (CLI flags). The seed is mandatory. Grammar: INI as
parsed by configparser; '#' and ';' comments; values are plain strings
interpreted by the typed getters.
"""

from __future__ import annotations

import configparser
import os

SCHEMA_VERSION = "awekit-0.1.0"


class ConfigError(Exception):
    pass


DEFAULTS = {
    "data": {
        "train": "", "train_align": "", "dev": "", "dev_align": "",
        "lexicon": "", "feature_table": "",
    },
    "encoder": {
        "cell": "lstm", "layers": "2", "hidden": "128", "dropout": "0.0",
        "pooling": "concat", "embed_dim": "64", "subsample": "1",
        "fc_layers": "0",
    },
    "written": {"mode": "char", "symbol_embed_dim": "64", "hidden": "128"},
    "objective": {
        "kind": "multiview", "margin": "0.4", "k": "10", "k_end": "0",
        "strategy": "hard", "terms": "0,2", "sqrt_variant": "false",
        "extras": "0", "contextual": "false", "spans": "false",
        "confusion_threshold": "0.6",
    },
    "optimizer": {"kind": "adam", "lr": "0.0005", "momentum": "0.9"},
    "scheduler": {
        "patience": "5", "factor": "0.1", "min_lr": "1e-8",
        "rule": "metric",  # metric | loss-heuristic
    },
    "training": {
        "epochs": "30", "batch_size": "32", "min_frames": "2",
        "max_frames": "200", "spec_augment": "false", "stop_at_wer": "0",
    },
    "recognizer": {
        "kind": "ctc", "lexicon_mode": "static", "training_mode": "baseline",
        "freeze": "false", "unit_normalize": "true", "unk": "false",
        "lambda_emb": "0.0", "lambda_reg": "0.0", "scheme": "additive",
        "s_max": "32", "init_checkpoint": "", "vocab_file": "",
    },
    "search": {
        "bits": "1024", "permutations": "16", "beamwidth": "50",
        "stride": "5", "window_sizes": "", "exhaustive": "false",
    },
    "run": {"seed": "", "threads": "1"},
}

# Sizes that must be at least 1, checked when a config is loaded, before
# any data is read.
POSITIVE_KEYS = (("encoder", "layers"), ("encoder", "hidden"), ("encoder", "embed_dim"),
                 ("written", "hidden"), ("written", "symbol_embed_dim"), ("training", "batch_size"))

# Recipe presets pinning the quoted operating points per training setup.
PRESETS = {
    # isolated-word Siamese triplet with confusion-driven negatives
    "ch3-siamese": {
        ("objective", "kind"): "triplet",
        ("objective", "margin"): "0.4",
        ("objective", "strategy"): "confusion",
        ("objective", "confusion_threshold"): "0.6",
        ("optimizer", "kind"): "sgd",
        ("optimizer", "lr"): "0.001",
        ("optimizer", "momentum"): "0.9",
        ("encoder", "dropout"): "0.3",
    },
    # word classifier with the fully-connected stack
    "ch3-classifier": {
        ("objective", "kind"): "classifier",
        ("encoder", "fc_layers"): "3",
        ("encoder", "dropout"): "0.3",
        ("optimizer", "kind"): "sgd",
        ("optimizer", "lr"): "0.1",
        ("optimizer", "momentum"): "0.9",
        ("scheduler", "factor"): "0.1",
    },
    # most-offending triplet for query-by-example, plus the index operating point
    "ch4-qbe": {
        ("objective", "kind"): "triplet",
        ("objective", "strategy"): "offending",
        ("objective", "margin"): "0.5",
        ("objective", "k"): "10",
        ("optimizer", "kind"): "adam",
        ("optimizer", "lr"): "0.001",
        ("training", "batch_size"): "32",
        ("encoder", "dropout"): "0.3",
        ("search", "bits"): "1024",
        ("search", "permutations"): "16",
    },
    # contextual multi-view pretraining for CTC recognizers
    "ch4-multiview": {
        ("objective", "kind"): "multiview",
        ("objective", "terms"): "0,2",
        ("objective", "contextual"): "true",
        ("encoder", "pooling"): "mean",
        ("written", "mode"): "char",
        ("written", "symbol_embed_dim"): "64",
        ("optimizer", "kind"): "adam",
        ("optimizer", "lr"): "0.0005",
        ("scheduler", "patience"): "4",
        ("scheduler", "factor"): "0.1",
    },
    # CTC recognizer fine-tuning on top of ch4-multiview
    "ch4-ctc": {
        ("recognizer", "kind"): "ctc",
        ("optimizer", "kind"): "sgd",
        ("optimizer", "lr"): "0.02",
        ("optimizer", "momentum"): "0.9",
        ("scheduler", "patience"): "4",
        ("scheduler", "factor"): "0.1",
    },
    # isolated multi-view with the sqrt per-term variant
    "ch5-multiview": {
        ("objective", "kind"): "multiview",
        ("objective", "terms"): "0,2",
        ("objective", "margin"): "0.4",
        ("objective", "k"): "20",
        ("objective", "sqrt_variant"): "true",
        ("objective", "contextual"): "false",
        ("encoder", "cell"): "gru",
        ("encoder", "dropout"): "0.4",
        ("written", "mode"): "phone",
        ("optimizer", "kind"): "adam",
        ("optimizer", "lr"): "0.0005",
        ("scheduler", "patience"): "5",
        ("scheduler", "factor"): "0.1",
        ("scheduler", "min_lr"): "1e-8",
    },
    # contextual three-term semi-hard training with masking noise
    "ch6-contextual": {
        ("objective", "kind"): "multiview",
        ("objective", "terms"): "0,1,2",
        ("objective", "strategy"): "semi-hard",
        ("objective", "margin"): "0.4",
        ("objective", "k"): "64",
        ("objective", "k_end"): "20",
        ("objective", "contextual"): "true",
        ("encoder", "cell"): "gru",
        ("encoder", "pooling"): "mean",
        ("encoder", "dropout"): "0.4",
        ("written", "mode"): "phone",
        ("training", "spec_augment"): "true",
        ("optimizer", "kind"): "adam",
        ("optimizer", "lr"): "0.0005",
    },
    # whole-word segmental recognizer
    "ch7-segmental": {
        ("recognizer", "kind"): "segmental",
        ("recognizer", "s_max"): "32",
        ("encoder", "pooling"): "concat",
        ("encoder", "subsample"): "4",
        ("optimizer", "kind"): "adam",
        ("optimizer", "lr"): "0.001",
    },
    # multi-view pretraining matched to the segmental recognizer
    "ch7-multiview": {
        ("objective", "kind"): "multiview",
        ("objective", "terms"): "0,1,2",
        ("objective", "strategy"): "semi-hard",
        ("objective", "margin"): "0.45",
        ("objective", "k"): "64",
        ("objective", "k_end"): "6",
        ("objective", "contextual"): "true",
        ("encoder", "pooling"): "concat",
        ("encoder", "subsample"): "4",
        ("optimizer", "kind"): "adam",
        ("optimizer", "lr"): "0.0005",
    },
    # joint embedding + recognition training
    "ch8-joint": {
        ("objective", "kind"): "multiview",
        ("objective", "terms"): "0,1,2",
        ("objective", "strategy"): "semi-hard",
        ("objective", "margin"): "0.45",
        ("objective", "k"): "128",
        ("objective", "k_end"): "6",
        ("objective", "extras"): "200",
        ("objective", "contextual"): "true",
        ("recognizer", "training_mode"): "joint",
        ("recognizer", "scheme"): "additive",
        ("optimizer", "kind"): "adam",
        ("optimizer", "lr"): "0.0005",
    },
}


class ExperimentConfig:
    """Resolved configuration with typed getters."""

    def __init__(self, values: dict):
        self.values = values

    @staticmethod
    def load(path=None, preset: str | None = None, overrides: dict | None = None) -> "ExperimentConfig":
        values = {s: dict(kv) for s, kv in DEFAULTS.items()}
        if preset is not None:
            if preset not in PRESETS:
                raise ConfigError(f"unknown preset {preset!r} (have: {', '.join(sorted(PRESETS))})")
            for (section, key), v in PRESETS[preset].items():
                values[section][key] = v
        if path is not None:
            parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
            read = parser.read(path)
            if not read:
                raise ConfigError(f"cannot read config file {path}")
            for section in parser.sections():
                if section not in values:
                    raise ConfigError(f"unknown config section [{section}]")
                for key, v in parser.items(section):
                    if key not in values[section]:
                        raise ConfigError(f"unknown key {key!r} in [{section}]")
                    values[section][key] = v
        for (section, key), v in (overrides or {}).items():
            if section not in values or key not in values[section]:
                raise ConfigError(f"unknown override [{section}] {key}")
            values[section][key] = str(v)
        cfg = ExperimentConfig(values)
        for section, key in POSITIVE_KEYS:
            if cfg.getint(section, key) < 1:
                raise ConfigError(f"[{section}] {key} must be at least 1, not {cfg.get(section, key)}")
        return cfg

    def get(self, section: str, key: str) -> str:
        try:
            return self.values[section][key]
        except KeyError as e:
            raise ConfigError(f"missing [{section}] {key}") from e

    def getint(self, section, key) -> int:
        try:
            return int(self.get(section, key))
        except ValueError as e:
            raise ConfigError(f"[{section}] {key} must be an integer") from e

    def getfloat(self, section, key) -> float:
        try:
            return float(self.get(section, key))
        except ValueError as e:
            raise ConfigError(f"[{section}] {key} must be a number") from e

    def getbool(self, section, key) -> bool:
        v = self.get(section, key).strip().lower()
        if v in ("true", "yes", "1", "on"):
            return True
        if v in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"[{section}] {key} must be a boolean")

    def getints(self, section, key) -> tuple:
        raw = self.get(section, key).strip()
        if not raw:
            return ()
        try:
            return tuple(int(x) for x in raw.replace(",", " ").split())
        except ValueError as e:
            raise ConfigError(f"[{section}] {key} must be a list of integers") from e

    @property
    def seed(self) -> int:
        raw = self.get("run", "seed")
        if raw == "":
            raise ConfigError("a seed is mandatory: set [run] seed or pass --seed")
        return int(raw)

    @property
    def threads(self) -> int:
        return max(1, self.getint("run", "threads"))

    def data_path(self, key: str) -> str:
        path = self.get("data", key)
        if not path:
            raise ConfigError(f"[data] {key} is required for this command")
        if not os.path.exists(path):
            raise ConfigError(f"[data] {key} = {path!r} does not exist")
        return path

    def resolved(self) -> dict:
        """Full configuration echo for reports (deterministic ordering)."""
        return {s: dict(sorted(kv.items())) for s, kv in sorted(self.values.items())}


def component_rng(seed: int, component: str) -> "np.random.Generator":
    """Deterministic per-component stream from the master seed.

    Components are identified by fixed names; the stream is
    SeedSequence([seed, crc32(component)]).
    """
    import zlib

    import numpy as np

    return np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(component.encode())]))
