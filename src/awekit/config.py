"""Experiment configuration: plain-text key=value files with [sections],
named presets bundling known-good hyperparameter sets, and CLI overrides.

Precedence, lowest to highest: built-in defaults, preset, config file,
explicit overrides (CLI flags). The seed is mandatory. Grammar: INI as
parsed by configparser; '#' and ';' comments; values are plain strings
interpreted by the typed getters.

Every key has one spec next to its default in ``SCHEMA``: its type, and
its bounds or its allowed values. ``ExperimentConfig.load`` checks every
key against its spec, so a bad value ends in ConfigError (exit code 2)
before any data is read or any output is made. Checks that span several
keys or depend on the data stay with the pipelines that need them.
"""

from __future__ import annotations

import configparser
import math
import operator
import os
from dataclasses import dataclass

from . import encoders as enc
from . import objectives as obj
from . import search as srch

SCHEMA_VERSION = "awekit-0.1.0"


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Spec:
    """What a config value may be. ``type`` is str, bool, int, float (a
    finite one) or tuple: integers, comma- or space-separated, strictly
    increasing. A number, and each integer of a tuple, keeps the bounds
    that are set (ge >=, gt >, le <=, lt <); a str with ``choices`` is one
    of them. A key whose default is empty may be left empty."""

    type: type = str
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    choices: tuple = ()

    def problem(self, value) -> str | None:
        """What a value read as ``type`` must be when it is not, else None."""
        if self.type is tuple and (not value or any(b <= a for a, b in zip(value, value[1:]))):
            return "integers in increasing order"
        if self.choices and value not in self.choices:
            return "one of " + ", ".join(self.choices)
        bounds = [(sign, bound) for sign, bound in zip(_COMPARE, (self.ge, self.gt, self.le, self.lt))
                  if bound is not None]
        numbers = value if self.type is tuple else (value,)
        if (self.type is not float or math.isfinite(value)) and \
                all(_COMPARE[sign](v, bound) for sign, bound in bounds for v in numbers):
            return None
        return " and ".join(["finite"] * (self.type is float) + [f"{sign} {bound}" for sign, bound in bounds])


_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}
PATH, BOOL, SIZE, COUNT = Spec(), Spec(bool), Spec(int, ge=1), Spec(int, ge=0)
FRACTION, COSINE_GAP = Spec(float, ge=0, le=1), Spec(float, ge=0, le=2)  # cosine distances differ by <= 2

# Every key: its default and its spec.
SCHEMA = {
    "data": {k: ("", PATH) for k in ("train", "train_align", "dev", "dev_align", "lexicon", "feature_table")},
    "encoder": {"cell": ("lstm", Spec(choices=tuple(enc.CELLS))), "layers": ("2", SIZE),
                "hidden": ("128", SIZE), "dropout": ("0.0", Spec(float, ge=0, lt=1)),
                "pooling": ("concat", Spec(choices=("concat", "mean"))),
                "embed_dim": ("64", SIZE), "subsample": ("1", SIZE), "fc_layers": ("0", COUNT)},
    "written": {"mode": ("char", Spec(choices=("char", "phone", "feature"))),
                "symbol_embed_dim": ("64", SIZE), "hidden": ("128", SIZE)},
    "objective": {
        # the kinds: the two contrastive losses of STRATEGIES, and the word classifier
        "kind": ("multiview", Spec(choices=(*obj.STRATEGIES, "classifier"))), "margin": ("0.4", COSINE_GAP),
        "k": ("10", SIZE), "k_end": ("0", COUNT), "terms": ("0,2", Spec(tuple, ge=0, le=2)),
        "strategy": ("hard", Spec(choices=tuple(sorted(set().union(*obj.STRATEGIES.values()))))),
        "sqrt_variant": ("false", BOOL), "extras": ("0", COUNT), "contextual": ("false", BOOL),
        "confusion_threshold": ("0.6", COSINE_GAP)},
    "optimizer": {"kind": ("adam", Spec(choices=("adam", "sgd"))), "lr": ("0.0005", Spec(float, gt=0)),
                  "momentum": ("0.9", Spec(float, ge=0, lt=1))},
    "scheduler": {"patience": ("5", COUNT), "factor": ("0.1", Spec(float, gt=0, le=1)),
                  "min_lr": ("1e-8", Spec(float, ge=0))},
    "training": {"epochs": ("30", COUNT), "batch_size": ("32", SIZE), "min_frames": ("2", SIZE),
                 "max_frames": ("200", SIZE), "spec_augment": ("false", BOOL),
                 "stop_at_wer": ("0", Spec(float, ge=0))},
    "recognizer": {
        "kind": ("ctc", Spec(choices=("ctc", "segmental"))),
        "training_mode": ("baseline", Spec(choices=("baseline", "pretrain", "joint"))),
        "freeze": ("false", BOOL), "unit_normalize": ("true", BOOL), "unk": ("false", BOOL),
        "lambda_emb": ("0.0", FRACTION), "lambda_reg": ("0.0", FRACTION),
        "scheme": ("additive", Spec(choices=obj.SCHEMES)), "s_max": ("32", SIZE),
        "init_checkpoint": ("", PATH), "vocab_file": ("", PATH)},
    "search": {"bits": ("1024", Spec(int, ge=1, le=srch.MAX_BITS)),
               "permutations": ("16", Spec(int, ge=1, le=srch.MAX_PERMUTATIONS)),
               "beamwidth": ("50", SIZE), "stride": ("5", SIZE), "window_sizes": ("", Spec(tuple, ge=1))},
    # an index file stores the seed as a signed 64-bit integer; threads are dtw-ap's workers
    "run": {"seed": ("", Spec(int, ge=0, le=2**63 - 1)), "threads": ("1", SIZE)},
}
DEFAULTS = {section: {key: default for key, (default, _) in keys.items()} for section, keys in SCHEMA.items()}

# Recipe presets pinning the quoted operating points per training setup.
PRESETS = {
    # isolated-word Siamese triplet with confusion-driven negatives
    "ch3-siamese": {
        ("objective", "kind"): "triplet", ("objective", "margin"): "0.4",
        ("objective", "strategy"): "confusion", ("objective", "confusion_threshold"): "0.6",
        ("optimizer", "kind"): "sgd", ("optimizer", "lr"): "0.001", ("optimizer", "momentum"): "0.9",
        ("encoder", "dropout"): "0.3",
    },
    # word classifier with the fully-connected stack
    "ch3-classifier": {
        ("objective", "kind"): "classifier",
        ("encoder", "fc_layers"): "3", ("encoder", "dropout"): "0.3",
        ("optimizer", "kind"): "sgd", ("optimizer", "lr"): "0.1", ("optimizer", "momentum"): "0.9",
        ("scheduler", "factor"): "0.1",
    },
    # most-offending triplet for query-by-example, plus the index operating point
    "ch4-qbe": {
        ("objective", "kind"): "triplet", ("objective", "strategy"): "offending",
        ("objective", "margin"): "0.5", ("objective", "k"): "10",
        ("optimizer", "kind"): "adam", ("optimizer", "lr"): "0.001",
        ("training", "batch_size"): "32",
        ("encoder", "dropout"): "0.3",
        ("search", "bits"): "1024", ("search", "permutations"): "16",
    },
    # contextual multi-view pretraining for CTC recognizers
    "ch4-multiview": {
        ("objective", "kind"): "multiview", ("objective", "terms"): "0,2",
        ("objective", "contextual"): "true",
        ("encoder", "pooling"): "mean",
        ("written", "mode"): "char", ("written", "symbol_embed_dim"): "64",
        ("optimizer", "kind"): "adam", ("optimizer", "lr"): "0.0005",
        ("scheduler", "patience"): "4", ("scheduler", "factor"): "0.1",
    },
    # CTC recognizer fine-tuning on top of ch4-multiview
    "ch4-ctc": {
        ("recognizer", "kind"): "ctc",
        ("optimizer", "kind"): "sgd", ("optimizer", "lr"): "0.02", ("optimizer", "momentum"): "0.9",
        ("scheduler", "patience"): "4", ("scheduler", "factor"): "0.1",
    },
    # isolated multi-view with the sqrt per-term variant
    "ch5-multiview": {
        ("objective", "kind"): "multiview", ("objective", "terms"): "0,2", ("objective", "margin"): "0.4",
        ("objective", "k"): "20", ("objective", "sqrt_variant"): "true", ("objective", "contextual"): "false",
        ("encoder", "cell"): "gru", ("encoder", "dropout"): "0.4",
        ("written", "mode"): "phone",
        ("optimizer", "kind"): "adam", ("optimizer", "lr"): "0.0005",
        ("scheduler", "patience"): "5", ("scheduler", "factor"): "0.1", ("scheduler", "min_lr"): "1e-8",
    },
    # contextual three-term semi-hard training with masking noise
    "ch6-contextual": {
        ("objective", "kind"): "multiview", ("objective", "terms"): "0,1,2",
        ("objective", "strategy"): "semi-hard", ("objective", "margin"): "0.4", ("objective", "k"): "64",
        ("objective", "k_end"): "20", ("objective", "contextual"): "true",
        ("encoder", "cell"): "gru", ("encoder", "pooling"): "mean", ("encoder", "dropout"): "0.4",
        ("written", "mode"): "phone",
        ("training", "spec_augment"): "true",
        ("optimizer", "kind"): "adam", ("optimizer", "lr"): "0.0005",
    },
    # whole-word segmental recognizer
    "ch7-segmental": {
        ("recognizer", "kind"): "segmental", ("recognizer", "s_max"): "32",
        ("encoder", "pooling"): "concat", ("encoder", "subsample"): "4",
        ("optimizer", "kind"): "adam", ("optimizer", "lr"): "0.001",
    },
    # multi-view pretraining matched to the segmental recognizer
    "ch7-multiview": {
        ("objective", "kind"): "multiview", ("objective", "terms"): "0,1,2",
        ("objective", "strategy"): "semi-hard", ("objective", "margin"): "0.45", ("objective", "k"): "64",
        ("objective", "k_end"): "6", ("objective", "contextual"): "true",
        ("encoder", "pooling"): "concat", ("encoder", "subsample"): "4",
        ("optimizer", "kind"): "adam", ("optimizer", "lr"): "0.0005",
    },
    # joint embedding + recognition training
    "ch8-joint": {
        ("objective", "kind"): "multiview", ("objective", "terms"): "0,1,2",
        ("objective", "strategy"): "semi-hard", ("objective", "margin"): "0.45", ("objective", "k"): "128",
        ("objective", "k_end"): "6", ("objective", "extras"): "200", ("objective", "contextual"): "true",
        ("recognizer", "training_mode"): "joint", ("recognizer", "scheme"): "additive",
        ("optimizer", "kind"): "adam", ("optimizer", "lr"): "0.0005",
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
            try:  # items() interpolates '%', so it can raise too
                if not parser.read(path, encoding="utf-8"):
                    raise ConfigError(f"cannot read config file {path}")
                for section in parser.sections():
                    if section not in values:
                        raise ConfigError(f"unknown config section [{section}]")
                    for key, v in parser.items(section):
                        if key not in values[section]:
                            raise ConfigError(f"unknown key {key!r} in [{section}]")
                        values[section][key] = v
            except (configparser.Error, UnicodeDecodeError) as e:
                raise ConfigError(f"{path}: not a valid config file: {e}") from None
        for (section, key), v in (overrides or {}).items():
            if section not in values or key not in values[section]:
                raise ConfigError(f"unknown override [{section}] {key}")
            values[section][key] = str(v)
        cfg = ExperimentConfig(values)
        cfg.check()
        return cfg

    def check(self):
        """ConfigError unless every key of SCHEMA meets its spec."""
        read = {str: self.get, bool: self.getbool, int: self.getint, float: self.getfloat,
                tuple: self.getints}
        for section, keys in SCHEMA.items():
            for key, (default, spec) in keys.items():
                raw = self.get(section, key)
                if raw == "" == default:
                    continue
                problem = spec.problem(read[spec.type](section, key))
                if problem:
                    raise ConfigError(f"[{section}] {key} = {raw!r} must be {problem}")

    def get(self, section: str, key: str) -> str:
        try:
            return self.values[section][key]
        except KeyError as e:
            raise ConfigError(f"missing [{section}] {key}") from e

    def getint(self, section, key) -> int:
        raw = self.get(section, key)
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"[{section}] {key} = {raw!r} must be an integer") from e

    def getfloat(self, section, key) -> float:
        raw = self.get(section, key)
        try:
            return float(raw)
        except ValueError as e:
            raise ConfigError(f"[{section}] {key} = {raw!r} must be a number") from e

    def getbool(self, section, key) -> bool:
        raw = self.get(section, key)
        if raw.strip().lower() in ("true", "yes", "1", "on"):
            return True
        if raw.strip().lower() in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"[{section}] {key} = {raw!r} must be a boolean")

    def getints(self, section, key) -> tuple:
        raw = self.get(section, key)
        try:
            return tuple(int(x) for x in raw.replace(",", " ").split())
        except ValueError as e:
            raise ConfigError(f"[{section}] {key} = {raw!r} must be a list of integers") from e

    @property
    def seed(self) -> int:
        raw = self.get("run", "seed")
        if raw == "":
            raise ConfigError("a seed is mandatory: set [run] seed or pass --seed")
        return int(raw)

    @property
    def threads(self) -> int:
        return self.getint("run", "threads")

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
