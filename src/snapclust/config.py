"""Pipeline configuration: defaults, flat config files, stable fingerprints.

The config file format is deliberately plain: UTF-8 lines of `key = value`,
`#` comments, blank lines ignored. Every key mirrors a PipelineConfig
field, so a saved file reproduces a run exactly. Values outside the
studied hyperparameter domains are accepted with a warning, never
rejected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
from dataclasses import dataclass

from .autoencoder import ACTIVATIONS
from .datasets import FORMATS
from .distances import parse_metric
from .errors import ConfigError

LOGGER = logging.getLogger("snapclust")

# studied value domains per hyperparameter (both dataset scales pooled);
# configs outside these get a warning, not an error
DOMAINS = {
    "cycle_length": (15, 20, 25, 40, 60),
    "alpha0": (0.007, 0.01, 0.03, 0.1, 0.2, 0.3),
    "encoding_size": (128, 256, 512, 1024, 2048),
    "landmarks": (350, 600, 1000),
    "sparsity": (3, 7, 15),
    "metric": ("euclidean", "cosine", "minkowski"),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a clustering run needs, in one flat value object."""

    dataset: str = ""
    format: str = "auto"
    m: int = 6
    cycle_length: int = 20
    alpha0: float = 0.01
    encoding_size: int = 256
    hidden: tuple[int, ...] = ()
    landmarks: int = 350
    sparsity: int = 3
    metric: str = "euclidean"
    metrics: tuple[str, ...] = ()
    k: int = 10
    seed: int = 0
    repeats: int = 5
    batch_size: int = 256
    noise_sigma: float = 0.1
    momentum: float = 0.9
    activation: str = "relu"
    degree_normalize: bool = False
    row_normalize: bool = False

    @property
    def total_epochs(self) -> int:
        """Training budget: cycle length times ensemble size."""
        return self.cycle_length * self.m

    @property
    def random_metric(self) -> bool:
        return len(self.metrics) > 0

    def member_metric(self, i: int) -> str:
        """Metric for member i: round-robin over the list when given."""
        if not self.metrics:
            return self.metric
        return self.metrics[i % len(self.metrics)]

    def validate(self) -> "PipelineConfig":
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {', '.join(FORMATS)}, got {self.format!r}")
        if self.m < 1:
            raise ConfigError(f"ensemble size must be >= 1, got {self.m}")
        if self.cycle_length < 1:
            raise ConfigError(f"cycle length must be >= 1, got {self.cycle_length}")
        if not 0 < self.alpha0 < math.inf:
            raise ConfigError(f"alpha0 must be finite and > 0, got {self.alpha0}")
        if self.encoding_size < 1:
            raise ConfigError(f"encoding size must be >= 1, got {self.encoding_size}")
        if self.landmarks < 2:
            raise ConfigError(f"landmark count must be >= 2, got {self.landmarks}")
        if not 1 <= self.sparsity < self.landmarks:
            raise ConfigError(
                f"sparsity must satisfy 1 <= r < landmarks, got r={self.sparsity}, "
                f"p={self.landmarks}"
            )
        if self.k < 1:
            raise ConfigError(f"cluster count must be >= 1, got {self.k}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"noise sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden widths must be positive, got {self.hidden}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be relu or identity, got {self.activation!r}")
        parse_metric(self.metric)
        for name in self.metrics:
            parse_metric(name)
        self.warn_off_domain()
        return self

    def warn_off_domain(self) -> None:
        for key, domain in DOMAINS.items():
            value = getattr(self, key)
            if key == "metric":
                value = value.split(":", 1)[0]
            if value not in domain:
                LOGGER.warning(
                    "%s=%r is outside the studied domain %r; proceeding anyway",
                    key,
                    value,
                    domain,
                )

    def canonical(self) -> str:
        """Deterministic serialization used for fingerprinting."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:16]

    def replace(self, **changes) -> "PipelineConfig":
        return dataclasses.replace(self, **changes)

    @classmethod
    def cifar_scale(cls, **overrides) -> "PipelineConfig":
        """Defaults for the larger-image regime: longer cycles, wider codes."""
        base = dict(cycle_length=40, alpha0=0.2, encoding_size=1024, landmarks=600, sparsity=7)
        base.update(overrides)
        return cls(**base)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}


def parse_value(key: str, raw: str):
    """Type one raw string by the annotation of field `key`.

    Config files, CLI flags and sweep values all go through here.
    """
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    raw = raw.strip()
    if kind.startswith("tuple"):
        parts = [part.strip() for part in raw.split(",") if part.strip()]
        if kind == "tuple[str, ...]":
            return tuple(parts)
        try:
            return tuple(int(part) for part in parts)
        except ValueError:
            raise ConfigError(f"bad integer list for {key}: {raw!r}") from None
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean for {key}: {raw!r}")
    if kind == "str":
        return raw
    try:
        return float(raw) if kind == "float" else int(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def load_config(path) -> PipelineConfig:
    """Parse a flat key=value config file into a PipelineConfig."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    values = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        values[key] = parse_value(key, raw)
    return PipelineConfig(**values)


def save_config(path, config: PipelineConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in dataclasses.fields(PipelineConfig):
            value = getattr(config, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            fh.write(f"{f.name} = {value}\n")
