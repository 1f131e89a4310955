"""Run configuration: structured-text (INI) files with CLI flag overrides.

A run is reproducible from its recorded config: the canonical serialized text
is stored alongside every checkpoint and report, and its SHA-256 hash is
stamped into every artifact header.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, fields

from .encoder import ENCODERS
from .errors import ConfigError
from .optim import DEFAULT_LR
from .schedule import DEFAULT_LAMBDA_MAX, DEFAULT_LAMBDA_MIN, LogLinearSchedule

_SECTIONS = {
    "data": ["dataset", "idx_path", "n_points", "mean_x", "mean_y", "cov_scale"],
    "schedule": ["lambda_max", "lambda_min"],
    "model": ["encoder", "denoiser_width", "encoder_width"],
    "train": ["steps", "batch_size", "lr", "seed", "log_every", "checkpoint_every"],
    "eval": ["n_mc"],
    "sample": ["sample_steps", "counterterm"],
    "out": ["out_dir"],
}


@dataclass
class RunConfig:
    # data
    dataset: str = "gaussian2d"  # "gaussian2d" or "idx"
    idx_path: str = ""
    n_points: int = 4096
    mean_x: float = 0.3
    mean_y: float = -0.2
    cov_scale: float = 1.0
    # schedule
    lambda_max: float = DEFAULT_LAMBDA_MAX
    lambda_min: float = DEFAULT_LAMBDA_MIN
    # model
    encoder: str = "trainable"  # a key of encoder.ENCODERS
    denoiser_width: int = 256
    encoder_width: int = 128
    # train
    steps: int = 20000
    batch_size: int = 64
    lr: float = DEFAULT_LR
    seed: int = 0
    log_every: int = 200
    checkpoint_every: int = 5000
    # eval
    n_mc: int = 128
    # sample
    sample_steps: int = 256
    counterterm: str = "auto"  # on | off | auto (the encoder's counterterm)
    # out
    out_dir: str = "runs/out"

    def validate(self) -> "RunConfig":
        if self.dataset not in ("gaussian2d", "idx"):
            raise ConfigError(f"unknown dataset '{self.dataset}' (expected gaussian2d or idx)")
        if self.dataset == "idx" and not self.idx_path:
            raise ConfigError("dataset 'idx' requires idx_path")
        if self.encoder not in ENCODERS:
            raise ConfigError(f"unknown encoder '{self.encoder}'")
        for name in ("mean_x", "mean_y", "cov_scale", "lr"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        self.schedule()  # the schedule checks its endpoints
        if self.counterterm not in ("on", "off", "auto"):
            raise ConfigError(f"counterterm must be on/off/auto, got '{self.counterterm}'")
        for name in ("steps", "batch_size", "n_mc", "sample_steps", "log_every",
                     "checkpoint_every", "n_points", "denoiser_width", "encoder_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.cov_scale < 0:
            raise ConfigError("cov_scale must be >= 0")
        if self.seed < 0:
            # numpy's generators take only non-negative seeds
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        return self

    def schedule(self) -> LogLinearSchedule:
        return LogLinearSchedule(self.lambda_max, self.lambda_min)

    # --- serialization ---------------------------------------------------

    def to_text(self, include_out: bool = True) -> str:
        parser = configparser.ConfigParser(interpolation=None)
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        for section, keys in _SECTIONS.items():
            if section == "out" and not include_out:
                continue
            parser[section] = {k: str(values[k]) for k in keys}
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def hash(self) -> str:
        # the output directory names where artifacts land, not what was run
        return hashlib.sha256(self.to_text(include_out=False).encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"unparsable config ({exc})") from None
        return cls._from_parser(parser)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"unparsable config file ({exc})") from None
        if not read:
            raise ConfigError(f"config file not found: {path}")
        return cls._from_parser(parser)

    @classmethod
    def _from_parser(cls, parser: configparser.ConfigParser) -> "RunConfig":
        kwargs = {}
        defaults = cls()
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser[section].items():
                if key not in _SECTIONS[section]:
                    raise ConfigError(f"unknown config key '{key}' in section [{section}]")
                default = getattr(defaults, key)
                try:
                    if isinstance(default, int):
                        kwargs[key] = int(value)
                    elif isinstance(default, float):
                        kwargs[key] = float(value)
                    else:
                        kwargs[key] = value
                except ValueError as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {value!r}") from exc
        return cls(**kwargs)
