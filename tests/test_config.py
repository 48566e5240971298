import dataclasses
import json
import re

import pytest

from loccforge.config import RunConfig, Tolerances, load_config
from loccforge.errors import ConfigError

BAD = [
    ("rounds", -1, "rounds must be an integer >= 0, got -1"),
    ("delta", 0, "delta must be in (0, 1), got 0"),
    ("delta", True, "delta must be in (0, 1), got True"),
    ("max_trees", 0, "max_trees must be an integer >= 1, got 0"),
    ("max_lps", 0, "max_lps must be an integer >= 1, got 0"),
    ("partition_exhaustive_n", None,
     "partition_exhaustive_n must be an integer >= 1, got None"),
    ("mode", "x", "mode must be 'first' or 'exhaustive', got 'x'"),
    ("psd", 0, "tolerance psd must be in (0, 1), got 0"),
    ("lp", 1, "tolerance lp must be in (0, 1), got 1"),
]


@pytest.mark.parametrize("key, value, message", BAD,
                         ids=[f"{k}={v!r}" for k, v, _ in BAD])
def test_a_bad_value_fails_at_construction(tmp_path, key, value, message):
    """A RunConfig or Tolerances that exists is valid: a bad value raises
    ConfigError when it is built, with the text load_config gives for it."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ConfigError, match=exact):
        load_config(str(path))
    default = Tolerances() if key in ("psd", "lp") else RunConfig()
    with pytest.raises(ConfigError, match=exact):
        type(default)(**{key: value})
    # a copy with the value replaced is built, so checked, too
    with pytest.raises(ConfigError, match=exact):
        dataclasses.replace(default, **{key: value})


def test_the_first_bad_value_is_reported_in_the_old_order(tmp_path):
    """Tolerances are checked before the run parameters, and those in field
    order, as `load_config` has always reported them."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "x", "rounds": -1, "lp": 1}))
    with pytest.raises(ConfigError, match="^tolerance lp must be"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="^rounds must be"):
        RunConfig(rounds=-1, mode="x")
