"""The seeded outputs recorded in ``tests/golden/`` do not move.

Exact bytes where numpy and its BLAS are the builds the set was made with;
elsewhere the outcome tier of ``golden_outputs.outcome_problems``.
"""

import json
import os

import pytest

import golden_outputs as golden

FILES = ("sweep.csv", "kappa.json", "kappa_small.json", "estimate.json",
         "trials.json")


def recorded(name: str) -> str:
    with open(os.path.join(golden.GOLDEN_DIR, name)) as f:
        return f.read()


@pytest.fixture(scope="module")
def current():
    return golden.generate()


@pytest.mark.parametrize("name", FILES)
def test_outcomes_match(current, name):
    assert golden.outcome_problems(name, recorded(name), current[name]) == []


@pytest.mark.parametrize("name", FILES)
def test_bytes_match_on_the_recorded_build(current, name):
    builds = json.loads(recorded("versions.json"))
    here = golden.versions()
    if any(builds[key] != here[key] for key in ("numpy", "blas")):
        pytest.skip(f"golden set made with {builds}, running on {here}")
    assert current[name] == recorded(name)


class TestOutcomeTier:
    def trials(self):
        return json.loads(recorded("trials.json"))

    def problems(self, doc):
        return golden.outcome_problems("trials.json", recorded("trials.json"),
                                       json.dumps(doc))

    def test_last_bits_forgiven(self):
        doc = self.trials()
        doc[0]["threshold"] *= 1 + 1e-12
        doc[0]["repr"] = "moved"
        assert self.problems(doc) == []

    def test_moved_float_caught(self):
        doc = self.trials()
        doc[0]["threshold"] *= 1 + 1e-6
        assert len(self.problems(doc)) == 1

    def test_miss_flag_and_count_caught(self):
        doc = self.trials()
        doc[0]["missed"][0] = not doc[0]["missed"][0]
        doc[1]["detections"].pop()
        assert len(self.problems(doc)) == 2

    def test_compare_groups_moved_floats_and_lists_the_rest(self):
        doc = self.trials()
        for rec in doc[:3]:
            rec["threshold"] *= 1 + 1e-6
        doc[5]["missed"][1] = not doc[5]["missed"][1]
        lines = golden.compare_lines("trials.json", recorded("trials.json"),
                                     json.dumps(doc))
        assert lines[0] == "trials.json: 3 floats moved, 1 other differences"
        assert lines[1].startswith("  trials.json[*].threshold: 3 moved, ")
        assert lines[2].startswith("  trials.json[5].missed[1]: ")
        assert len(lines) == 3
