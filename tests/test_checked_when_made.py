"""Each config and value type checks its rules once, when it is made.

No class in src/widir defines a `validate` method and no code there calls
one, so a value cannot be built first and checked later (or never). Each
type refuses a value its rules forbid in its constructor, with its
documented error class. The record-rule functions `validate_contest` and
`validate_catalog` return violations as data and are not methods.
"""

import ast
import datetime as dt
import pathlib

import numpy as np
import pytest

from widir.abtest import ABConfig
from widir.errors import ConfigError, DataError, DimensionError
from widir.evaluation import EvalReport
from widir.generator import GeneratorConfig, PlayerArchetype
from widir.inference import MatchScores
from widir.model import WidirDims
from widir.serving import ServeConfig
from widir.training import TrainConfig

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "widir"


def validate_methods(source: str) -> list[str]:
    """Where `source` defines a class method named `validate` or calls `<x>.validate(...)`, as `line: what`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, f"{node.name} defines validate") for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "validate"]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "validate":
            found.append((node.lineno, "calls .validate()"))
    return [f"{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_validate_method(path):
    assert validate_methods(path.read_text(encoding="utf-8")) == []


def test_checker_finds_validate_methods():
    source = (
        "class A:\n"
        "    def validate(self):\n"
        "        pass\n"
        "a.validate()\n"
        "validate_catalog(c, m)\n"
        "base64.b64decode(x, validate=True)\n"
    )
    assert validate_methods(source) == ["2: A defines validate", "4: calls .validate()"]


def _world(**changes) -> GeneratorConfig:
    return GeneratorConfig(**{"players": 10, "matches": 5, "templates_per_match": 3,
                              "start_day": dt.date(2025, 1, 1), "end_day": dt.date(2025, 3, 1), **changes})


def _block(scores=((1.0, 2.0),), template_ids=("t1", "t2"), player_ids=("p1",), dtype=np.float32) -> MatchScores:
    return MatchScores("m1", template_ids, player_ids, np.asarray(scores, dtype=dtype), 0, "v1")


# (a constructor call with a forbidden value, the error class, a part of its message)
FORBIDDEN = {
    "dims-zero-width": (lambda: WidirDims(d_p=0), DimensionError, "dims must be positive"),
    "train-list-length": (lambda: TrainConfig(list_length=64), ConfigError, "list_length must be one of"),
    "train-learning-rate": (lambda: TrainConfig(learning_rate=float("nan")), ConfigError, "learning_rate"),
    "generator-short-range": (lambda: _world(end_day=dt.date(2025, 1, 30)), ConfigError, "at least 40 days"),
    "generator-players": (lambda: _world(players=0), ConfigError, "players must be >= 1"),
    "archetype-activity": (lambda: PlayerArchetype(0.0, 1.0, 0.5, 0.5, 0.1, 25.0, 0.1), ConfigError,
                           "activity_rate must lie in [0, 20]"),
    "ab-unknown-policy": (lambda: ABConfig(group_sizes={"CG": 10, "TG1": 10}, policies={"TG1": "oracle"}),
                          ConfigError, "unknown policy 'oracle' for group TG1"),
    "ab-no-control": (lambda: ABConfig(group_sizes={"TG1": 10}, policies={"TG1": "popularity"}),
                      ConfigError, "control group named CG"),
    "ab-negative-group": (lambda: ABConfig(group_sizes={"CG": -1}, policies={}), ConfigError,
                          "group CG: size must be non-negative, got -1"),
    "serve-port": (lambda: ServeConfig(bind_port=70000), ConfigError, "bind_port must lie in [0, 65535]"),
    "report-unpaired-h": (lambda: EvalReport("x", 7, precision={1: 0.2}, recall={1: 0.3, 5: 0.5}), DataError,
                          "precision at h=[1] but recall at h=[1, 5]"),
    "report-falling-recall": (lambda: EvalReport("x", 7, precision={1: 0.2, 5: 0.1}, recall={1: 0.9, 5: 0.5}),
                              DataError, "recall not non-decreasing"),
    "scores-float64": (lambda: _block(dtype=np.float64), ValueError, "not float64"),
    "scores-shape": (lambda: _block(player_ids=("p1", "p2")), ValueError, "float32 (2, 2) matrix, not float32 (1, 2)"),
    "scores-nan": (lambda: _block(scores=((1.0, np.nan),)), ValueError, "NaN or infinite"),
    "scores-repeated-template": (lambda: _block(template_ids=("t1", "t1")), ValueError, "id repeats"),
    "scores-repeated-player": (lambda: _block(scores=((1.0, 2.0), (3.0, 4.0)), player_ids=("p1", "p1")),
                               ValueError, "id repeats"),
}


@pytest.mark.parametrize("case", sorted(FORBIDDEN))
def test_forbidden_value_is_refused_when_made(case):
    make, error, named = FORBIDDEN[case]
    with pytest.raises(error) as caught:
        make()
    assert named in str(caught.value)
