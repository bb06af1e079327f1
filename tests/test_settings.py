"""The one number rule every numeric settings field is held to: an int
field takes a Python or numpy integer, a float field any real number, none
takes a bool, and a value is finite and kept as the plain Python number."""

import math

import numpy as np
import pytest

from treefuse.dataset import as_number
from treefuse.model import ModelDims, TrainSettings
from treefuse.synthetic import SyntheticSpec
from treefuse.trees import TreeTrainConfig

# what each class needs besides the field under test
BASE = {ModelDims: {"vocab_size": 12, "n_labels": 3}, TrainSettings: {"epochs": 1, "seed": 0},
        TreeTrainConfig: {}, SyntheticSpec: {}}
# (class, numeric field, its kind, a valid value)
FIELDS = [
    *[(ModelDims, name, int, 3) for name in
      ("vocab_size", "n_labels", "d_e", "d_lstm", "d_t", "d_l", "leaf_counts")],
    (TrainSettings, "epochs", int, 2), (TrainSettings, "seed", int, 7),
    (TrainSettings, "learning_rate", float, 0.25), (TrainSettings, "clip_norm", float, 0.25),
    (TreeTrainConfig, "max_depth", int, 2), (TreeTrainConfig, "min_child_rows", int, 2),
    (TreeTrainConfig, "min_positives", int, 2), (TreeTrainConfig, "learning_rate", float, 0.25),
    (TreeTrainConfig, "l2_lambda", float, 0.25),
    *[(SyntheticSpec, name, int, 40) for name in
      ("n_docs", "vocab_size", "doc_len_min", "doc_len_max", "n_ts_classes", "n_items",
       "n_singletons")],
    (SyntheticSpec, "n_labels", int, 8), (SyntheticSpec, "label_prior", float, 0.25),
    (SyntheticSpec, "strengths", float, 0.25),
]
# the one value of these fields, each a sequence, that is under test
SEQUENCES = {"leaf_counts": lambda v: (2, v), "strengths": lambda v: (1.0,) * 7 + (v,)}
IDS = [f"{cls.__name__}.{name}" for cls, name, _, _ in FIELDS]


def build(cls, name, value):
    value = SEQUENCES[name](value) if name in SEQUENCES else value
    return cls(**{**BASE[cls], name: value})


def stored(settings, name):
    value = getattr(settings, name)
    return value[-1] if name in SEQUENCES else value


# refused by every numeric field, and by one kind only
NOT_NUMBERS = [True, False, np.True_, "2", None, math.nan, math.inf, -math.inf]
NOT_INTEGERS = [2.5, np.float64(3.0)]
PAST_FLOAT_RANGE = [10**400]
REFUSED = [(cls, name, bad) for cls, name, kind, _ in FIELDS
           for bad in NOT_NUMBERS + (NOT_INTEGERS if kind is int else PAST_FLOAT_RANGE)]


@pytest.mark.parametrize("cls, name, bad", REFUSED,
                         ids=[f"{cls.__name__}.{name}={bad!r:.12}" for cls, name, bad in REFUSED])
def test_refused_naming_the_field(cls, name, bad):
    with pytest.raises(ValueError, match=f"'{name}'"):
        build(cls, name, bad)


@pytest.mark.parametrize("cls, name, kind, valid", FIELDS, ids=IDS)
def test_numpy_value_kept_as_plain_number(cls, name, kind, valid):
    given = np.int64(valid) if kind is int else np.float32(valid)
    value = stored(build(cls, name, given), name)
    assert type(value) is kind and value == valid


def test_int_for_a_float_field_kept_as_float():
    for settings, name in [(TrainSettings(1, 0, learning_rate=1), "learning_rate"),
                           (TrainSettings(1, 0, clip_norm=np.int64(1)), "clip_norm"),
                           (TreeTrainConfig(learning_rate=1), "learning_rate"),
                           (TreeTrainConfig(l2_lambda=np.uint8(1)), "l2_lambda"),
                           (SyntheticSpec(strengths=(1,) * 8), "strengths")]:
        value = stored(settings, name)
        assert type(value) is float and value == 1.0, name


def test_as_number_bounds():
    assert as_number(10**400, "n", 0) == 10**400
    assert as_number(0, "x", 0.0, float) == 0.0
    with pytest.raises(ValueError, match=r"'n' must be an integer >= 1, got 0"):
        as_number(0, "n", 1)
    with pytest.raises(ValueError, match=r"'x' must be a finite number >= 0.0, got -0.5"):
        as_number(-0.5, "x", 0.0, float)
