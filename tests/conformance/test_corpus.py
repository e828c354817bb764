"""Corpus layer: JSON round-trips and the seeded regression replay."""

import json
import os
import time

import pytest

from repro.conformance import (
    build_oracles,
    decode_case,
    encode_case,
    load_corpus,
    replay,
    save_case,
)
from repro.conformance.workloads import GENERATORS, generate_case

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


class TestRoundTrip:
    @pytest.mark.parametrize("family", sorted(GENERATORS))
    def test_encode_decode_fixpoint(self, family):
        for seed in range(12):
            case = generate_case(family, seed)
            data = json.loads(json.dumps(encode_case(case)))
            back = decode_case(data)
            assert encode_case(back) == encode_case(case), (family, seed)

    def test_decoded_case_checks_identically(self):
        oracle = build_oracles(["datalog-differential"])[0]
        case = oracle.generate(4)
        back = decode_case(encode_case(case))
        assert oracle.check(back) == oracle.check(case)

    def test_rejects_unknown_format(self):
        case = generate_case("transactions-differential", 0)
        data = encode_case(case)
        data["format"] = 999
        with pytest.raises(ValueError):
            decode_case(data)


class TestDirectory:
    def test_save_and_load(self, tmp_path):
        case = generate_case("datalog-differential", 2)
        path = save_case(case, str(tmp_path), messages=["m"])
        assert path.endswith("datalog-differential-seed2.json")
        entries = load_corpus(str(tmp_path))
        assert len(entries) == 1
        loaded_path, loaded, messages = entries[0]
        assert loaded_path == path
        assert messages == ["m"]
        assert encode_case(loaded) == encode_case(case)

    def test_same_case_overwrites(self, tmp_path):
        case = generate_case("transactions-differential", 1)
        save_case(case, str(tmp_path))
        save_case(case, str(tmp_path), messages=["second"])
        entries = load_corpus(str(tmp_path))
        assert len(entries) == 1
        assert entries[0][2] == ["second"]

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_corpus(str(tmp_path / "nope")) == []


class TestSeededRegressionCorpus:
    """Replay every committed corpus entry: once-found bugs stay found.

    This is the tier-1 regression gate for the historical bug classes
    (magic/top-down program-text facts, the theta-join enumeration
    filter, the recovery abort-restore model, the join-reorder column
    order, the unrecorded DML target read) — and for anything future fuzz runs persist.
    """

    def test_corpus_is_seeded(self):
        entries = load_corpus(CORPUS_DIR)
        assert len(entries) >= 5
        families = {case.family for _, case, _ in entries}
        assert len(families) >= 3

    def test_every_entry_replays_green(self):
        entries = load_corpus(CORPUS_DIR)
        oracles = {o.family: o for o in build_oracles()}
        start = time.monotonic()
        failures = {}
        for path, case, _messages in entries:
            messages = replay(case, oracles)
            if messages:
                failures[os.path.basename(path)] = messages
        elapsed = time.monotonic() - start
        assert failures == {}
        assert elapsed < 5.0, "corpus replay must stay fast (tier-1)"

    def test_entries_carry_notes(self):
        for path, case, _messages in load_corpus(CORPUS_DIR):
            assert case.note, path
