"""PipelineConfig: defaults, validation, flat file round-trips, fingerprints."""

import logging
import re
from pathlib import Path

import pytest

from snapclust.config import DOMAINS, PipelineConfig, load_config, parse_value, save_config
from snapclust.errors import ConfigError


def test_defaults_validate():
    cfg = PipelineConfig().validate()
    assert cfg.m == 6
    assert cfg.cycle_length == 20
    assert cfg.alpha0 == 0.01
    assert cfg.encoding_size == 256
    assert cfg.landmarks == 350
    assert cfg.sparsity == 3
    assert cfg.metric == "euclidean"
    assert cfg.metrics == ()
    assert cfg.k == 10
    assert cfg.repeats == 5
    assert cfg.activation == "relu"


def test_total_epochs():
    cfg = PipelineConfig(cycle_length=20, m=6)
    assert cfg.total_epochs == 120
    assert PipelineConfig(cycle_length=7, m=3).total_epochs == 21


def test_random_metric_flag():
    assert not PipelineConfig().random_metric
    assert PipelineConfig(metrics=("euclidean", "cosine")).random_metric


def test_member_metric_round_robin():
    cfg = PipelineConfig(metrics=("euclidean", "cosine", "minkowski"))
    got = [cfg.member_metric(i) for i in range(7)]
    assert got == [
        "euclidean",
        "cosine",
        "minkowski",
        "euclidean",
        "cosine",
        "minkowski",
        "euclidean",
    ]
    # without a list every member uses the single metric
    single = PipelineConfig(metric="cosine")
    assert all(single.member_metric(i) == "cosine" for i in range(4))


@pytest.mark.parametrize(
    "changes",
    [
        {"m": 0},
        {"cycle_length": 0},
        {"alpha0": 0.0},
        {"alpha0": -1.0},
        {"encoding_size": 0},
        {"landmarks": 1},
        {"sparsity": 0},
        {"sparsity": 350},  # must be < landmarks
        {"k": 0},
        {"seed": -1},
        {"repeats": 0},
        {"batch_size": 0},
        {"noise_sigma": -0.1},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"hidden": (64, 0)},
        {"activation": "tanh"},
        {"metric": "hamming"},
        {"metrics": ("euclidean", "nope")},
    ],
)
def test_validate_rejects(changes):
    with pytest.raises(ConfigError):
        PipelineConfig(**changes).validate()


@pytest.mark.parametrize(
    "key, raw, name",
    [
        ("alpha0", "inf", "alpha0"),
        ("alpha0", "nan", "alpha0"),
        ("noise_sigma", "inf", "noise sigma"),
        ("noise_sigma", "nan", "noise sigma"),
    ],
)
def test_validate_rejects_non_finite_floats_by_name(key, raw, name):
    # config files and CLI flags parse these spellings as floats
    value = parse_value(key, raw)
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        PipelineConfig(**{key: value}).validate()


def test_off_domain_warns_not_rejects(caplog):
    cfg = PipelineConfig(alpha0=0.5, landmarks=30, sparsity=3)
    with caplog.at_level(logging.WARNING, logger="snapclust"):
        cfg.validate()
    text = caplog.text
    assert "alpha0" in text and "outside the studied domain" in text
    assert "landmarks" in text


def test_on_domain_silent(caplog):
    cfg = PipelineConfig(
        cycle_length=20,
        alpha0=0.01,
        encoding_size=256,
        landmarks=350,
        sparsity=3,
        metric="euclidean",
    )
    with caplog.at_level(logging.WARNING, logger="snapclust"):
        cfg.validate()
    assert "outside the studied domain" not in caplog.text


def test_minkowski_order_still_on_domain(caplog):
    # the domain names the family, not the order parameter
    cfg = PipelineConfig(metric="minkowski:3")
    with caplog.at_level(logging.WARNING, logger="snapclust"):
        cfg.validate()
    assert "metric=" not in caplog.text


def test_config_file_round_trip(tmp_path):
    cfg = PipelineConfig(
        dataset="data/train.rawf32",
        m=3,
        cycle_length=6,
        alpha0=0.001,
        encoding_size=3,
        hidden=(32, 16),
        landmarks=30,
        sparsity=3,
        metric="minkowski:3",
        metrics=("euclidean", "cosine"),
        k=3,
        seed=11,
        repeats=2,
        batch_size=128,
        noise_sigma=0.25,
        momentum=0.5,
        activation="identity",
        degree_normalize=True,
        row_normalize=True,
    )
    path = tmp_path / "run.cfg"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_config_file_comments_and_blanks(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# a comment\n\nm = 4\n  k=7\n")
    cfg = load_config(path)
    assert cfg.m == 4 and cfg.k == 7
    # unspecified keys keep their defaults
    assert cfg.cycle_length == 20


def test_config_file_empty_list(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("hidden =\nmetrics = \n")
    cfg = load_config(path)
    assert cfg.hidden == () and cfg.metrics == ()


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("bogus_key = 1\n", "unknown config key"),
        ("m = 2\nm = 3\n", "duplicate config key"),
        ("just some words\n", "expected key = value"),
        ("m = soon\n", "bad value"),
        ("hidden = 64,x\n", "bad integer list"),
        ("degree_normalize = maybe\n", "bad boolean"),
    ],
)
def test_config_file_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=fragment):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_fingerprint_stable_and_sensitive():
    a = PipelineConfig(seed=1)
    b = PipelineConfig(seed=1)
    c = PipelineConfig(seed=2)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert len(a.fingerprint()) == 16
    int(a.fingerprint(), 16)  # hex digest prefix


def test_fingerprint_covers_every_field():
    base = PipelineConfig()
    seen = {base.fingerprint()}
    variants = [
        base.replace(dataset="x"),
        base.replace(format="csv"),
        base.replace(m=2),
        base.replace(cycle_length=21),
        base.replace(alpha0=0.02),
        base.replace(encoding_size=128),
        base.replace(hidden=(64,)),
        base.replace(landmarks=351),
        base.replace(sparsity=4),
        base.replace(metric="cosine"),
        base.replace(metrics=("cosine",)),
        base.replace(k=9),
        base.replace(seed=99),
        base.replace(repeats=4),
        base.replace(batch_size=64),
        base.replace(noise_sigma=0.2),
        base.replace(momentum=0.8),
        base.replace(activation="identity"),
        base.replace(degree_normalize=True),
        base.replace(row_normalize=True),
    ]
    for v in variants:
        seen.add(v.fingerprint())
    assert len(seen) == len(variants) + 1


def test_replace_returns_new_object():
    base = PipelineConfig()
    other = base.replace(k=4)
    assert other.k == 4 and base.k == 10


def test_cifar_scale_preset():
    cfg = PipelineConfig.cifar_scale()
    assert cfg.cycle_length == 40
    assert cfg.alpha0 == 0.2
    assert cfg.encoding_size == 1024
    assert cfg.landmarks == 600
    assert cfg.sparsity == 7
    override = PipelineConfig.cifar_scale(landmarks=1000, k=20)
    assert override.landmarks == 1000 and override.k == 20


def test_domains_table():
    assert DOMAINS["landmarks"] == (350, 600, 1000)
    assert DOMAINS["sparsity"] == (3, 7, 15)
    assert set(DOMAINS["metric"]) == {"euclidean", "cosine", "minkowski"}


@pytest.mark.parametrize("fmt", ["auto", "idx", "csv", "rawf32"])
def test_validate_accepts_every_format(fmt):
    PipelineConfig(format=fmt).validate()


def test_validate_rejects_unknown_format_naming_all(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("format = bogus\n")
    cfg = load_config(path)
    with pytest.raises(ConfigError, match="format must be one of auto, idx, csv, rawf32"):
        cfg.validate()


@pytest.mark.parametrize(
    "key,raw,want",
    [
        ("dataset", " data/x.csv ", "data/x.csv"),
        ("m", " 7 ", 7),
        ("alpha0", "1e-3", 0.001),
        ("hidden", "64, 32,", (64, 32)),
        ("hidden", "", ()),
        ("metrics", "euclidean, minkowski:3", ("euclidean", "minkowski:3")),
        ("row_normalize", "ON", True),
        ("degree_normalize", "no", False),
    ],
)
def test_parse_value_types_by_field_annotation(key, raw, want):
    got = parse_value(key, raw)
    assert got == want and type(got) is type(want)


def test_parse_value_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
        parse_value("bogus", "1")


def test_readme_ini_example_loads(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    path = tmp_path / "readme.cfg"
    path.write_text(blocks[0], encoding="utf-8")
    load_config(path).validate()
