"""The machine-independent golden answers still hold: datasets, counts, tables, verdicts.

``tests/golden/manifest.jsonl`` is regenerated by ``tests/golden/regenerate.py``
only when a change is meant to move these answers.
"""

import json

import pytest

from golden.regenerate import CONFIGS, COVERS, MANIFEST, cover_answers, seed_answers

EXPECTED: dict[str, dict] = {}
for line in MANIFEST.read_text(encoding="utf-8").splitlines():
    record = json.loads(line)
    entry = EXPECTED.setdefault(record.pop("name"), {"seeds": []})
    if "config" in record:
        entry["config"] = record["config"]
    else:
        entry["seeds"].append(record)


def test_manifest_covers_every_config():
    assert sorted(EXPECTED) == sorted([*CONFIGS, *COVERS])
    for name, config in CONFIGS.items():
        assert EXPECTED[name]["config"] == config
        assert len(EXPECTED[name]["seeds"]) == config["seeds"]
    for name, config in COVERS.items():
        assert EXPECTED[name]["config"] == config


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_answers_match_manifest(name, tmp_path):
    got = seed_answers(CONFIGS[name], tmp_path)
    for want, have in zip(EXPECTED[name]["seeds"], got, strict=True):
        assert have == want, f"{name} master seed {want['master_seed']}"


@pytest.mark.parametrize("name", sorted(COVERS))
def test_cover_matches_manifest(name):
    assert cover_answers(COVERS[name]) == EXPECTED[name]["seeds"]
