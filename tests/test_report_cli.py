import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfkit import cli, dihedral, dimgroup, paperfold, subst, words
from pfkit.cli import PREMISES, PROFILES, REGISTRY, exit_code, main, run_all
from pfkit.dihedral import MAX_EXTEND_STEPS, MAX_PARITY_K, LanguageOracle
from pfkit.dimgroup import MAX_MATRIX_POWER, MAX_SAMPLES
from pfkit.errors import DomainError
from pfkit.paperfold import MAX_GENERATION, MAX_PREFIX_LEN, pf_word
from pfkit.report import Check, CheckReport, emit_report, jsonable
from pfkit.words import Word, read_pfw

from oracles import battery_by_block_size, random_bits

# SHA-256 of the quick-profile report at seed 42 with elapsed_ms removed;
# any change to a report's bytes changes it
QUICK_REPORT_DIGEST = "cf25dc67dbdaa39c163dc68d94e79c56110f29231ad4b9cb69af96fb25144c1c"
# the same for the full-profile report at seed 42
FULL_REPORT_DIGEST = "85bb030554a792ab1078dd0ddd1e58ccb050565e28446bd434b5c20cff0f661b"
# the same for what the README's pfkit lines write, in order: each line,
# its stdout with no elapsed time (see _timeless) and its stderr, then the
# bytes of each file they leave
README_OUTPUT_DIGEST = "e403d3e27665b39f34d8b0da6cb8a1263c69ef7968a5b9f84e7b0cc55b64c18c"


def report_digest(reports):
    body = [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in reports]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: (0 if k == "elapsed_ms" else strip_elapsed(v)) for k, v in obj.items()}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def test_report_validation():
    with pytest.raises(ValueError):
        CheckReport(check="x", status="bogus")
    with pytest.raises(ValueError):
        CheckReport(check="x", status="fail")  # fail needs a witness
    CheckReport(check="x", status="fail", witness="reason")
    chk = Check("x", {"n": 1}, "a fact", seed=7)
    with pytest.raises(ValueError):
        chk.report("fail")  # still needs a witness
    with pytest.raises(ValueError):
        chk.report("bogus")
    rep = chk.failed("reason")
    assert (rep.check, rep.status, rep.params, rep.witness) == ("x", "fail", {"n": 1}, "reason")
    assert (rep.seed, rep.certifies) == (7, "a fact")
    assert chk.passed().to_dict() | {"elapsed_ms": 0} == CheckReport(
        check="x", status="pass", params={"n": 1}, seed=7, certifies="a fact"
    ).to_dict()


def test_emit_report_json_roundtrip():
    rep = CheckReport(
        check="demo",
        status="pass",
        params={"n": 3},
        witness={"word": Word("110")},
        elapsed_ms=1,
        seed=42,
        certifies="demo fact",
    )
    parsed = json.loads(emit_report([rep], "json"))
    assert parsed == [
        {
            "check": "demo",
            "status": "pass",
            "params": {"n": 3},
            "witness": {"word": "110"},
            "elapsed_ms": 1,
            "seed": 42,
            "certifies": "demo fact",
        }
    ]


def test_emit_report_empty_and_markdown():
    assert emit_report([], "json") == "[]"
    assert emit_report([], "markdown") == ""
    rep = CheckReport(check="demo", status="pass", certifies="a fact")
    md = emit_report([rep], "markdown")
    assert "| demo | pass | a fact |" in md
    with pytest.raises(ValueError):
        emit_report([rep], "yaml")


def test_a_float_never_reaches_a_report(monkeypatch):
    # a certificate is exact: the report refuses a float and names where
    # it sits, and the command line turns that into one JSON error line
    rep = CheckReport(check="demo", status="fail", params={"n": 3}, witness={"ratio": [1, 0.5]})
    message = "witness['ratio'][1] is the float 0.5; a report holds exact values only"
    with pytest.raises(DomainError) as exc:
        rep.to_dict()
    assert str(exc.value) == message
    with pytest.raises(DomainError, match=r"^params\['x'\] is the float 1.0"):
        CheckReport(check="demo", status="pass", params={"x": 1.0}).to_dict()
    monkeypatch.setattr(paperfold, "verify_self_similarity", lambda p, n: rep)
    assert _run_cli(["paperfold", "verify", "self-similarity", "--p", "0", "--n", "1"]) == (
        2, "", json.dumps({"error": f"DomainError: {message}"}) + "\n")


# the JSON of each record as its own to_json wrote it, before jsonable
# rendered every dataclass by its fields
CENSUS_COUNTS = '"max_length_checked": 8, "counts": {"2": 2, "4": 2, "6": 1, "8": 0}'
RECORD_JSON = {
    "saturated census": '{%s, "saturated": true}' % CENSUS_COUNTS,
    "unsaturated census": '{%s, "saturated": false}' % CENSUS_COUNTS,
    "freeness pass": '{"closure_checked_to": 8, "antipalindrome_sup": 6, "verdict": "pass", '
                     '"witnesses": {"antipalindrome_counts": {"2": 2, "4": 2, "6": 1, "8": 0}}}',
    "freeness fail": '{"closure_checked_to": 8, "antipalindrome_sup": 8, "verdict": "fail", '
                     '"witnesses": {"closure": "pass", "closure_witness": null, '
                     '"antipalindrome_counts": {"2": 2, "4": 2, "6": 2, "8": 2}, '
                     '"length_8_examples": ["11001100", "00110011"]}}',
    "dyadic pair": '{"pair": {"s": "3/2^5", "m": 7}}',
}


def test_a_record_renders_as_its_fields():
    records = {
        "saturated census": paperfold.antipalindrome_census(12, 8),
        "unsaturated census": paperfold.antipalindrome_census(5, 8),
        "freeness pass": dihedral.freeness_certificate(LanguageOracle.from_generation(14, 8)),
        # 11001100 is a length-8 anti-palindrome of the periodic word
        "freeness fail": dihedral.freeness_certificate(LanguageOracle(Word("1100" * 10), 8)),
        "dyadic pair": {"pair": dimgroup.DyadicPair(dimgroup.DyadicRational(3, 5), 7)},
    }
    assert records["freeness fail"].witnesses["antipalindrome_counts"] == {2: 2, 4: 2, 6: 2, 8: 2}
    for name, record in records.items():
        rep = CheckReport(check="demo", status="fail", witness=record)
        assert json.dumps(rep.to_dict()["witness"]) == RECORD_JSON[name], name
    # a census's counts may come in any order; the report lists them by length
    shuffled = paperfold.CensusResult(8, {8: 0, 4: 2, 2: 2, 6: 1}, True)
    assert json.dumps(jsonable(shuffled)) == RECORD_JSON["saturated census"]
    # a float in a field is refused by its path, as anywhere in a report
    rep = CheckReport(check="demo", status="fail",
                      witness=paperfold.CensusResult(2, {2: 0.5}, True))
    with pytest.raises(DomainError) as exc:
        rep.to_dict()
    assert str(exc.value) == "witness.counts['2'] is the float 0.5; a report holds exact values only"


def test_registry_shape():
    names = [name for name, _ in REGISTRY]
    assert len(names) == len(set(names))
    assert len(names) >= 12
    # the profiles differ only in the self-similarity budget; every other
    # check is a proof or reads a generation of its own
    assert PROFILES == {"quick": {"selfsim_budget": 10}, "full": {"selfsim_budget": 12}}


def test_exit_codes():
    ok = CheckReport(check="a", status="pass")
    bad = CheckReport(check="b", status="fail", witness="w")
    unk = CheckReport(check="c", status="inconclusive", witness="w")
    err = CheckReport(check="d", status="error", witness="boom")
    assert exit_code([ok]) == 0
    assert exit_code([ok, bad]) == 1
    assert exit_code([ok, unk]) == 1
    assert exit_code([ok, bad, err]) == 2


def test_cli_gen_text(capsys):
    assert main(["paperfold", "gen", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1101100"


def test_cli_gen_pfw(tmp_path):
    out = tmp_path / "t5.pfw"
    assert main(["paperfold", "gen", "--n", "5", "--format", "pfw", "--out", str(out)]) == 0
    word = read_pfw(out)
    assert len(word) == 63
    assert str(word).startswith("110110011100100")


def test_cli_census(capsys):
    assert main(["paperfold", "census", "--generation", "12", "--max-len", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "pass"
    assert payload["witness"]["counts"] == {"2": 2, "4": 2, "6": 1, "8": 0}


def test_cli_paperfold_verify(capsys):
    assert main(["paperfold", "verify", "self-similarity", "--p", "1", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert main(["paperfold", "verify", "recurrence", "--p", "2", "--generation", "10"]) == 0
    capsys.readouterr()
    assert (
        main(
            [
                "paperfold",
                "verify",
                "aperiodic",
                "--max-period",
                "64",
                "--preperiod",
                "64",
                "--prefix-len",
                "512",
            ]
        )
        == 0
    )


def test_cli_dihedral(capsys):
    assert main(["dihedral", "freeness", "--generation", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"]["antipalindrome_sup"] == 6
    assert main(["dihedral", "parity", "--k", "1000", "--generation", "12"]) == 0
    capsys.readouterr()
    assert main(["dihedral", "extend", "--seed", "1101100", "--steps", "4", "--horizon", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "pass"
    assert payload["witness"]["word"].endswith("1101100")
    assert len(payload["witness"]["word"]) == 11


def test_cli_subst(capsys, tmp_path):
    assert main(["subst", "info"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["witness"]["primitive_index"] == 3
    assert info["witness"]["left_proper_index"] == 2
    assert main(["subst", "fixed-prefix", "--len", "32"]) == 0
    assert capsys.readouterr().out.strip() == "31213021312030213121302031203021"
    assert main(["subst", "verify", "recode", "--len", "4096"]) == 0
    capsys.readouterr()
    assert main(["subst", "verify", "intertwine", "--len", "4096"]) == 0
    capsys.readouterr()
    rules = tmp_path / "rules.json"
    rules.write_text('{"alphabet": 4, "rules": {"0": "20", "1": "21", "2": "30", "3": "31"}}')
    assert main(["subst", "info", "--rules", str(rules)]) == 0


@pytest.mark.parametrize("rules, primitive_index", [
    ({"0": "1", "1": "2", "2": "3", "3": "01"}, 10), ({"0": "12", "1": "2", "2": "3", "3": "01"}, 9)])
def test_subst_info_searches_primitivity_to_wielandts_bound(tmp_path, capsys, rules, primitive_index):
    # primitive at 9 and 10, past any shorter search; the head maps cycle
    # through the four letters, so neither table is left-proper
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": rules}))
    assert main(["subst", "info", "--rules", str(path)]) == 0
    info = json.loads(capsys.readouterr().out)["witness"]
    assert info["primitive_index"] == primitive_index and info["left_proper_index"] is None


def test_cli_dimgroup(capsys):
    assert main(["dimgroup", "matpow", "--n", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"]["matrix"][1] == [4, 4, 4, 4]
    assert main(["dimgroup", "discrepancy", "--n-max", "8"]) == 0
    capsys.readouterr()
    assert main(["dimgroup", "verify", "--index-max", "3", "--samples", "50", "--seed", "1"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["check"] for r in reports] == [
        "dimgroup.lattice-properties",
        "dimgroup.cone-identity",
        "dimgroup.involution",
    ]
    assert all(r["seed"] == 1 for r in reports)


def test_run_all_quick_is_deterministic():
    a = [r.to_dict() for r in run_all("quick", seed=42)]
    b = [r.to_dict() for r in run_all("quick", seed=42)]
    assert strip_elapsed(a) == strip_elapsed(b)
    assert all(r["status"] == "pass" for r in a)
    assert all(r["seed"] == 42 for r in a)
    assert [r["check"] for r in a] == [name for name, _ in REGISTRY]
    assert report_digest(a) == QUICK_REPORT_DIGEST


def test_run_all_full_report_digest():
    assert report_digest([r.to_dict() for r in run_all("full", seed=42)]) == FULL_REPORT_DIGEST


def test_run_all_draws_nothing(monkeypatch):
    # the suite proves the lattice facts for every index, the twist
    # identities for every a, s and m, and the cone identity for every
    # dyadic pair; the seeded batteries, which all draw through _draws,
    # stay outside it
    def no_sampling(*args):
        raise AssertionError("the suite sampled")

    monkeypatch.setattr(dimgroup, "_draws", no_sampling)
    reports = run_all("full", seed=42)
    assert [(r.check, r.status) for r in reports] == [(name, "pass") for name, _ in REGISTRY]


PROOFS = {
    "paperfold.recurrence", "paperfold.aperiodicity", "dihedral.parity-separation",
    "subst.structure", "subst.recoding", "subst.intertwining", "dimgroup.matrix-closed-form",
    "dimgroup.lattice-properties", "dimgroup.cone-identity", "dimgroup.involution",
    "dimgroup.discrepancy-growth",
}


def test_proofs_read_no_symbols(monkeypatch, symbols):
    # with an empty symbol source every check that reads the word errors
    # out, or is gated on a premise that did; the proofs run alone, so no
    # premise of theirs is in the run to gate them, and they pass
    assert PROOFS < set(dict(REGISTRY))
    with symbols(np.empty(0, np.uint8)):
        reports = run_all("full", seed=42)
        assert {r.check: r.status for r in reports if r.check not in PROOFS} == {
            name: "inconclusive" if name in PREMISES else "error"
            for name, _ in REGISTRY if name not in PROOFS}
        monkeypatch.setattr(cli, "REGISTRY", tuple(e for e in REGISTRY if e[0] in PROOFS))
        reports = run_all("full", seed=42)
    assert [(r.check, r.status) for r in reports] == [(name, "pass") for name, _ in cli.REGISTRY]


def test_premises_are_earlier_registry_entries():
    order = [name for name, _ in REGISTRY]
    for name, premises in PREMISES.items():
        assert premises and name in order
        assert all(p in order[: order.index(name)] for p in premises), name


# the function whose docstring states each gated check's lemma
LEMMAS = {
    "paperfold.antipalindrome-census": paperfold.language_generation,
    "dihedral.antireversal-closure": paperfold.language_generation,
    "dihedral.freeness": paperfold.language_generation,
    "paperfold.recurrence": paperfold.verify_recurrence_blocks,
    "paperfold.aperiodicity": paperfold.verify_aperiodicity_witness,
    "dihedral.parity-separation": dihedral.verify_parity_residues,
    "subst.recoding": subst.verify_recoding_induction,
    "dimgroup.lattice-properties": dimgroup.verify_lattice_image,
    "dimgroup.discrepancy-growth": dimgroup.verify_discrepancy_recursion,
}


def test_each_lemma_names_its_premises():
    assert set(LEMMAS) == set(PREMISES)
    for name, fn in LEMMAS.items():
        line = re.search(r"Premises?: (.*?)\.(\s|$)", fn.__doc__, re.S)
        assert line, name
        assert set(re.findall(r"[a-z]+\.[a-z-]+", line.group(1))) == set(PREMISES[name]), name


def test_suite_reads_few_symbols(monkeypatch):
    # every check reads at most 2^13 - 1 symbols, the self-similarity
    # battery at budget 12
    read = []
    prefix = paperfold._prefix_array

    def record(length):
        read.append(length)
        return prefix(length)

    monkeypatch.setattr(paperfold, "_prefix_array", record)
    for entry in REGISTRY:
        monkeypatch.setattr(cli, "REGISTRY", (entry,))
        read.clear()
        (rep,) = run_all("full", seed=42)
        assert rep.status == "pass", entry[0]
        assert max(read, default=0) <= 2**13 - 1, entry[0]


def battery_by_pairs(budget):
    """The self-similarity battery as one comparison per (p, n) pair, the
    oracle of the one comparison per p that the suite makes."""
    chk = Check("paperfold.self-similarity", {"budget": budget},
                "block interleaving identity for all p+n+1 within budget")
    for p in range(budget):
        for n in range(budget - p):
            rep = paperfold.verify_self_similarity(p, n)
            if rep.status != "pass":
                return dataclasses.replace(rep, elapsed_ms=chk.ms)
    return chk.passed()


@settings(max_examples=60, deadline=None)
@given(flips=st.lists(st.integers(0, 2**13 - 2), min_size=1, max_size=2))
@example(flips=[0])
@example(flips=[2**11 - 2])
@example(flips=[2**11 - 1, 2**12 + 5])
def test_self_similarity_battery_matches_the_pair_loop(symbols, flips):
    # one or two flipped symbols of the 2^13 - 1 the battery reads at
    # budget 12; at budget 10, which reads 2^11 - 1, a flip may lie past
    # its reach
    arr = pf_word(12).to_array().copy()
    arr[flips] ^= 1
    with symbols(arr):
        for budget in (10, 12):
            got, want = cli._check_self_similarity_battery(budget), battery_by_pairs(budget)
            assert dataclasses.replace(got, elapsed_ms=0) == dataclasses.replace(want, elapsed_ms=0)


@st.composite
def self_similarity_sources(draw):
    """2^13 - 1 symbols, what the battery reads at budget 12: the word, its
    complement, either with 1-4 flipped symbols or one flipped run, a
    random word or a periodic one."""
    word = pf_word(12).to_array()
    size = word.size
    kind = draw(st.sampled_from(["word", "flips", "run", "random", "periodic"]))
    if kind == "random":
        return random_bits(draw(st.integers(0, 2**32 - 1)), size, draw(st.sampled_from([0.1, 0.5, 0.9])))
    if kind == "periodic":
        period = draw(st.lists(st.integers(0, 1), min_size=1, max_size=16))
        return np.resize(np.array(period, dtype=np.uint8), size)
    arr = draw(st.sampled_from([word, 1 - word])).copy()
    if kind == "flips":
        arr[draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4, unique=True))] ^= 1
    elif kind == "run":
        start = draw(st.integers(0, size - 1))
        arr[start : draw(st.integers(start + 1, size))] ^= 1
    return arr


@settings(max_examples=200, deadline=None)
@given(arr=self_similarity_sources())
def test_self_similarity_battery_matches_one_comparison_per_block_size(symbols, arr):
    # the comparison at p = 0 decides every block size: the battery gives
    # the report of the loop over p, first failing pair and all
    with symbols(arr):
        for budget in (1, 10, 12):
            got, want = cli._check_self_similarity_battery(budget), battery_by_block_size(budget)
            assert dataclasses.replace(got, elapsed_ms=0) == dataclasses.replace(want, elapsed_ms=0)


@pytest.mark.parametrize("budget", [1, 10, 12])
def test_self_similarity_battery_compares_once_per_block_size(monkeypatch, budget):
    # one comparison, at p = 0, decides every block size
    calls = []
    compare = paperfold.verify_self_similarity
    monkeypatch.setattr(paperfold, "verify_self_similarity",
                        lambda p, n: calls.append((p, n)) or compare(p, n))
    assert cli._check_self_similarity_battery(budget).status == "pass"
    assert calls == [(0, budget - 1)]


def test_suite_imports_no_numpy_module_lazily():
    # a numpy submodule that a check imports on its first call is paid by
    # every run: np.unique imports numpy.ma, some 26 ms, several times
    # the rest of the suite
    code = textwrap.dedent("""
        import json, sys
        import pfkit.cli
        from pfkit.report import emit_report

        def loaded():
            return {m for m in sys.modules if m.split(".")[0] == "numpy"}

        before = loaded()
        emit_report(pfkit.cli.run_all("full", 42), "json")
        print(json.dumps(sorted(loaded() - before)))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


class _ReadRecorder(dict):
    """A profile that records which of its keys are read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("profile", list(PROFILES))
def test_run_all_reads_every_profile_key(monkeypatch, profile):
    # a key no check reads is a dead knob, such as the sample count of a
    # check that became a proof
    params = _ReadRecorder(PROFILES[profile])
    monkeypatch.setitem(PROFILES, profile, params)
    run_all(profile, seed=42)
    assert params.read == set(params) == {"selfsim_budget"}


def test_run_all_error_isolation(monkeypatch):
    import pfkit.cli as cli_mod

    def boom(p):
        raise RuntimeError("synthetic failure")

    registry = tuple(
        (name, boom if name == "subst.structure" else fn) for name, fn in cli_mod.REGISTRY
    )
    monkeypatch.setattr(cli_mod, "REGISTRY", registry)
    reports = cli_mod.run_all("quick", seed=42)
    by_name = {r.check: r for r in reports}
    assert by_name["subst.structure"].status == "error"
    assert "synthetic failure" in by_name["subst.structure"].witness["exception"]
    assert exit_code(reports) == 2


def test_run_all_error_report_has_real_elapsed(monkeypatch):
    import pfkit.cli as cli_mod

    def slow_boom(p):
        time.sleep(0.05)
        raise RuntimeError("late failure")

    monkeypatch.setattr(cli_mod, "REGISTRY", (("slow.boom", slow_boom),))
    (rep,) = cli_mod.run_all("quick", seed=42)
    assert rep.status == "error"
    assert rep.elapsed_ms >= 50


def test_run_all_runs_every_check_on_the_calling_thread(monkeypatch):
    import pfkit.cli as cli_mod

    threads = []

    def record(name):
        def check(p):
            threads.append(threading.get_ident())
            return Check(name, {}, "").passed()
        return check

    monkeypatch.setattr(cli_mod, "REGISTRY", tuple((name, record(name)) for name, _ in REGISTRY))
    reports = cli_mod.run_all("full", seed=7)
    assert threads == [threading.get_ident()] * len(REGISTRY)
    assert [r.check for r in reports] == [name for name, _ in REGISTRY]
    assert all(r.seed == 7 for r in reports)


def _suite_census(symbols, arr):
    """The suite's census entry, run with ``arr`` as the symbol source."""
    entry = dict(REGISTRY)["paperfold.antipalindrome-census"]
    with symbols(arr):
        return entry(PROFILES["quick"])


def test_unsaturated_census_is_inconclusive_everywhere(capsys, symbols):
    # generation 5 has factors of length 6 and 8 that generation 4 lacks,
    # so its census is not saturated
    assert main(["paperfold", "census", "--generation", "5", "--max-len", "8"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "inconclusive"
    assert payload["witness"]["saturated"] is False
    # the suite censuses generation 6 against generation 5; a run of ones
    # after generation 5 adds the factor 1111, so it is not saturated
    # either, and the command gives the same verdict on the same symbols
    arr = np.concatenate([pf_word(5).to_array(), np.ones(64, dtype=np.uint8)])
    rep = _suite_census(symbols, arr)
    assert rep.status == "inconclusive"
    assert rep.params == {"generation": 6, "max_len": 8}
    with symbols(arr):
        assert main(["paperfold", "census", "--generation", "6", "--max-len", "8"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (rep.certifies, rep.witness) == (payload["certifies"], payload["witness"])


def test_census_negative_control(symbols):
    # a periodic word is saturated at once and has the length-8
    # anti-palindrome 11001100, so the census must fail
    rep = _suite_census(symbols, np.resize([1, 1, 0, 0], 127))
    assert rep.status == "fail"
    assert rep.witness["saturated"] is True
    assert rep.witness["counts"]["8"] >= 1


def test_run_all_reads_small_generations_for_the_language(monkeypatch):
    # the census and freeness read generation 6 and closure generation 7,
    # so no factor index of the full run codes more than 255 symbols; each
    # generation's index is built once, in one uint32 pass of width 32,
    # and the census and freeness share generation 6's
    builds = []
    build = words.FactorIndex._build

    def record(self, width):
        build(self, width)
        builds.append((self._arr.size, self._width))

    monkeypatch.setattr(words.FactorIndex, "_build", record)
    monkeypatch.setattr(paperfold, "_generation_indexes", {})
    reports = run_all("full", seed=42)
    assert all(r.status == "pass" for r in reports)
    assert sorted(builds) == [(127, 32), (255, 32)]


def test_oracle_build_failure_errors_only_its_readers(monkeypatch):
    def broken(generation, max_len):
        raise RuntimeError("oracle build failed")

    monkeypatch.setattr(LanguageOracle, "from_generation", broken)
    reports = run_all("quick", seed=42)
    readers = {"dihedral.antireversal-closure", "dihedral.freeness"}
    assert {r.check: r.status for r in reports} == {
        name: "error" if name in readers else "pass" for name, _ in REGISTRY}
    assert sum(r.status == "pass" for r in reports) == 14
    assert all("oracle build failed" in r.witness["exception"] for r in reports if r.check in readers)


_prefix_array = paperfold._prefix_array


def _capped_prefix(length, cap=MAX_PREFIX_LEN):
    # a missing cap fails here instead of allocating gigabytes
    assert length <= cap, f"prefix of {length} symbols requested"
    return _prefix_array(length)


@pytest.mark.parametrize(
    "argv",
    [
        ["subst", "fixed-prefix", "--len", str(MAX_PREFIX_LEN + 1)],
        ["dimgroup", "matpow", "--n", str(MAX_MATRIX_POWER + 1)],
        ["paperfold", "gen", "--n", "-1"],
        ["dimgroup", "verify", "--samples", "0"],
        ["dimgroup", "verify", "--samples", "-5"],
        ["dimgroup", "verify", "--samples", str(MAX_SAMPLES + 1)],
        ["dimgroup", "verify", "--index-max", str(MAX_MATRIX_POWER)],
        ["dimgroup", "verify", "--index-max", "5000"],
        ["dimgroup", "verify", "--index-max", str(MAX_MATRIX_POWER - 1), "--samples", str(MAX_SAMPLES)],
        ["paperfold", "census", "--generation", str(MAX_GENERATION + 1), "--max-len", "8"],
        ["paperfold", "verify", "aperiodic", "--prefix-len", str(2**40), "--max-period", "1",
         "--preperiod", "0"],
    ],
    ids=["fixed-prefix-cap", "matpow-cap", "negative-generation",
         "verify-zero-samples", "verify-negative-samples", "verify-samples-cap",
         "verify-index-max-cap", "verify-index-max-5000", "verify-total-work-cap",
         "census-generation-cap",
         "aperiodic-prefix-cap"],
)
def test_bad_input_exits_2_without_traceback(monkeypatch, capsys, argv):
    monkeypatch.setattr(paperfold, "_prefix_array", _capped_prefix)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])


@pytest.mark.parametrize("argv, producer", [
    (["paperfold", "gen", "--n", "30"], (paperfold, "_prefix_array")),
    (["subst", "fixed-prefix", "--len", str(MAX_PREFIX_LEN)], (subst, "_image")),
], ids=["gen", "fixed-prefix"])
def test_running_out_of_memory_exits_2_as_a_resource_error(monkeypatch, capsys, argv, producer):
    # numpy's failed allocation is a MemoryError; it ended the run with a
    # traceback and exit 1, which means that a check failed
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 4.00 GiB for an array")

    monkeypatch.setattr(*producer, out_of_memory)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    (line,) = err.strip().splitlines()
    assert out == "" and json.loads(line)["error"].startswith("ResourceError: out of memory")


def test_negative_seeds_are_refused_alike(capsys):
    # the suite echoes its seed and dimgroup verify draws from it; both
    # refuse a negative one before any check runs
    for argv in (["report", "--seed", "-5"], ["report", "--profile", "full", "--seed", "-1"],
                 ["dimgroup", "verify", "--seed", "-1"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        (line,) = err.strip().splitlines()
        assert out == "" and json.loads(line) == {"error": "DomainError: seed must be non-negative"}
    with pytest.raises(DomainError):
        run_all("quick", seed=-1)
    assert [r.seed for r in run_all("quick", seed=0)] == [0] * len(REGISTRY)


@pytest.mark.parametrize(
    "rules, out",
    [
        (b"{not json", None),
        (b"\xff\xfe{", None),
        (b'[["0", "20"]]', None),
        (b'{"alphabet": 4}', None),
        (b'{"rules": {"x": "20", "1": "21", "2": "30", "3": "31"}}', None),
        (b'{"rules": {"0": "20", "00": "21", "1": "21", "2": "30", "3": "31"}}', None),
        (None, None),
        (b'{"rules": {"0": "20", "1": "21", "2": "30", "3": "31"}}', "missing/info.json"),
    ],
    ids=["invalid-json", "not-utf8", "json-array", "no-rules-key", "non-integer-letter",
         "letter-named-twice", "missing-rules-file", "out-in-missing-directory"],
)
def test_bad_files_exit_2_without_traceback(tmp_path, capsys, rules, out):
    path = tmp_path / "rules.json"
    if rules is not None:
        path.write_bytes(rules)
    commands = [["subst", "info"]] if out else [["subst", "info"], ["subst", "fixed-prefix", "--len", "8"]]
    for command in commands:
        argv = command + ["--rules", str(path)] + (["--out", str(tmp_path / out)] if out else [])
        assert main(argv) == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        (line,) = err.strip().splitlines()
        assert "error" in json.loads(line)


def _run_cli(argv):
    """Exit code, stdout and stderr of one in-process CLI call; stdout has
    the binary buffer that ``paperfold gen --format pfw`` writes to, and
    its bytes are read as latin-1."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue().decode("latin-1"), err.getvalue()


def _assert_one_json_result(code, out, err):
    assert code in (0, 1, 2)
    if out:
        body = json.loads(out)  # one report, or a list of them for dimgroup verify
        assert all("status" in r for r in (body if isinstance(body, list) else [body]))
    else:
        assert code == 2
        (line,) = err.strip().splitlines()
        assert "error" in json.loads(line)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(-2, 14), st.integers(MAX_GENERATION + 1, 40)), st.integers(-2, 70))
def test_cli_census_arguments(generation, max_len):
    with mock.patch.object(paperfold, "_prefix_array", side_effect=_capped_prefix) as prefix:
        code, out, err = _run_cli(["paperfold", "census", "--generation", str(generation),
                                   "--max-len", str(max_len)])
    _assert_one_json_result(code, out, err)
    if generation > MAX_GENERATION:
        assert code == 2 and not prefix.called  # refused before any prefix is built


@pytest.mark.parametrize("max_len", [2, 4, 6])
def test_cli_census_refuses_a_max_len_below_8(max_len):
    # the census certifies that anti-palindromes stop at length 8, which
    # a shorter census never reads; its counts stay there at every length
    with mock.patch.object(paperfold, "_prefix_array") as prefix:
        code, out, err = _run_cli(["paperfold", "census", "--generation", "3",
                                   "--max-len", str(max_len)])
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": "DomainError: max_len must be at least 8"}) + "\n"
    assert not prefix.called
    counts = {ell: c for ell, c in {2: 2, 4: 2, 6: 1}.items() if ell <= max_len}
    assert paperfold.antipalindrome_census(12, max_len).counts == counts


@settings(max_examples=80, deadline=None)
@given(st.text("012x", max_size=12), st.integers(-2, 80), st.integers(-2, 80))
def test_cli_extend_arguments(seed, steps, horizon):
    code, out, err = _run_cli(["dihedral", "extend", "--seed", seed, "--steps", str(steps),
                               "--horizon", str(horizon)])
    _assert_one_json_result(code, out, err)


@pytest.mark.parametrize("steps, horizon", [(-1, 16), (4, 0), (-3, -1)])
def test_cli_extend_refuses_bad_steps_or_horizon_before_building_the_oracle(steps, horizon):
    with mock.patch.object(LanguageOracle, "from_generation") as build:
        code, out, err = _run_cli(["dihedral", "extend", "--seed", "1", "--steps", str(steps),
                                   "--horizon", str(horizon), "--generation", "24"])
    _assert_one_json_result(code, out, err)
    assert code == 2 and not build.called


def _ints(lo, hi, n=1):
    return st.tuples(*[st.integers(lo, hi)] * n)


# command -> (argument flags, small draws inside the caps, draws over a cap)
CAPPED_COMMANDS = {
    "paperfold verify self-similarity": (("--p", "--n"), _ints(-2, 8, 2), _ints(12, 40, 2)),
    "paperfold verify recurrence": (
        ("--p", "--generation"), st.tuples(st.integers(-2, 6), st.integers(-2, 14)),
        st.tuples(st.integers(-2, 6), st.integers(25, 40))),
    "paperfold verify aperiodic": (
        ("--prefix-len", "--max-period", "--preperiod"),
        st.tuples(st.integers(-2, 600), st.integers(-2, 64), st.integers(-2, 64)),
        st.tuples(st.integers(MAX_PREFIX_LEN + 1, 2**45), st.integers(-2, 64), st.integers(-2, 64))),
    "dihedral parity": (
        ("--k", "--generation"), st.tuples(st.integers(-2, 3000), st.integers(-2, 14)),
        st.one_of(st.tuples(st.integers(-2, 3000), st.integers(MAX_GENERATION + 1, 60)),
                  st.tuples(st.integers(MAX_PARITY_K + 1, 10**10), st.integers(-2, 60)))),
    "dihedral freeness": (("--generation",), _ints(-2, 14), _ints(MAX_GENERATION + 1, 60)),
    # at the default generation 16
    "dihedral extend": (
        ("--seed", "--steps", "--horizon"),
        st.tuples(st.sampled_from(["1", "1101100"]), st.integers(-2, 40), st.integers(-2, 40)),
        st.tuples(st.sampled_from(["1", "1101100"]), st.integers(MAX_EXTEND_STEPS + 1, 2**40),
                  st.integers(-2, 40))),
    # recoding reads 2L binary symbols
    "subst verify recode": (("--len",), _ints(-2, 5000), _ints(MAX_PREFIX_LEN // 2 + 1, 2**40)),
    "subst verify intertwine": (("--len",), _ints(-2, 5000), _ints(MAX_PREFIX_LEN + 1, 2**40)),
    "dimgroup matpow": (("--n",), _ints(-2, 200), _ints(MAX_MATRIX_POWER + 1, 10**5)),
    "dimgroup discrepancy": (("--n-max",), _ints(-2, 16), _ints(25, 60)),
    # (index-max - 1) * samples is at most MAX_SAMPLES, and the seed is not negative
    "dimgroup verify": (
        ("--index-max", "--samples", "--seed"),
        st.tuples(st.integers(-2, 4), st.integers(-2, 30), st.integers(-2, 2**64)),
        st.one_of(
            st.tuples(st.integers(12, MAX_MATRIX_POWER + 10), st.integers(MAX_SAMPLES // 11 + 1, MAX_SAMPLES),
                      st.integers(0, 2**64)),
            st.tuples(st.integers(2, 4), st.integers(1, 30), st.integers(-(2**64), -1)))),
}


@pytest.mark.parametrize("command", list(CAPPED_COMMANDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cli_capped_command_arguments(command, data):
    flags, inside, over = CAPPED_COMMANDS[command]
    over_cap = data.draw(st.booleans(), label="over_cap")
    values = data.draw(over if over_cap else inside, label="values")
    argv = command.split() + [x for pair in zip(flags, map(str, values)) for x in pair]
    with mock.patch.object(paperfold, "_prefix_array", side_effect=_capped_prefix) as prefix:
        code, out, err = _run_cli(argv)
    _assert_one_json_result(code, out, err)
    if over_cap:
        assert code == 2 and not prefix.called  # refused before any prefix is built


NON_INTEGERS = st.sampled_from(["abc", "1.5", "", "0x10", "1e3"])


def _int_values(lo, hi, cap=None):
    """Small values lo..hi, and other values: negatives, non-integers and
    the two values just past ``cap``; both as argument strings."""
    past = [st.integers(cap + 1, cap + 2)] if cap is not None else []
    return st.integers(lo, hi).map(str), st.one_of(st.integers(-3, -1), *past).map(str) | NON_INTEGERS


def _choices(valid, other):
    return st.sampled_from(valid), st.just(other)


TESTS = Path(__file__).resolve().parent
# a --rules path that is missing or a directory; the small value is none,
# which leaves the flag out and reads the built-in rules
BAD_RULES = (None, st.sampled_from([str(TESTS / "no-such-rules.json"), str(TESTS)]))

# command -> [(flag, (small values, other values), may be left out)]; no
# small value builds more than a generation-20 word, and only required
# flags and those with cheap defaults are left out
ARGV_FLAGS = {
    "paperfold gen": [("--n", _int_values(0, 12, MAX_GENERATION), False),
                      ("--format", _choices(["text", "pfw"], "yaml"), True)],
    "paperfold census": [("--generation", _int_values(1, 14, MAX_GENERATION), True),
                         ("--max-len", _int_values(2, 62), True)],
    # p + n + 1 is at most 24; 2^(p+n+2) - 1 symbols are read
    "paperfold verify self-similarity": [("--p", _int_values(0, 9, 23), True),
                                         ("--n", _int_values(0, 9, 23), True)],
    "paperfold verify recurrence": [("--p", _int_values(0, 6), True),
                                    ("--generation", _int_values(4, 14, 24), True)],
    "paperfold verify aperiodic": [("--prefix-len", _int_values(0, 600, MAX_PREFIX_LEN), True),
                                   ("--max-period", _int_values(1, 64), True),
                                   ("--preperiod", _int_values(0, 64), True)],
    "dihedral freeness": [("--generation", _int_values(1, 14, MAX_GENERATION), True)],
    "dihedral parity": [("--k", _int_values(0, 3000, MAX_PARITY_K), True),
                        ("--generation", _int_values(4, 14, MAX_GENERATION), True)],
    "dihedral extend": [("--seed", _choices(["1", "1101100"], "012x"), True),
                        ("--steps", _int_values(0, 40, MAX_EXTEND_STEPS), True),
                        ("--horizon", _int_values(1, 40), True),
                        ("--generation", _int_values(8, 16, MAX_GENERATION), True)],
    "subst info": [("--rules", BAD_RULES, True)],
    "subst fixed-prefix": [("--len", _int_values(0, 5000, MAX_PREFIX_LEN), True),
                           ("--rules", BAD_RULES, True)],
    "subst verify recode": [("--len", _int_values(0, 5000, MAX_PREFIX_LEN // 2), True)],
    "subst verify intertwine": [("--len", _int_values(0, 5000, MAX_PREFIX_LEN), True)],
    "dimgroup verify": [("--index-max", _int_values(2, 4, MAX_MATRIX_POWER - 1), True),
                        ("--samples", _int_values(1, 30, MAX_SAMPLES), False),
                        ("--seed", _int_values(0, 2**64), True)],
    "dimgroup matpow": [("--n", _int_values(0, 200, MAX_MATRIX_POWER), True)],
    "dimgroup discrepancy": [("--n-max", _int_values(1, 16, 24), False)],
    "report": [("--profile", _choices(["quick", "full"], "nope"), True),
               ("--format", _choices(["json", "markdown"], "yaml"), True),
               ("--seed", _int_values(0, 100), True)],
}


@pytest.mark.parametrize("command", list(ARGV_FLAGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_argument_vectors(command, data):
    # whatever the argument vector, the exit code is 0, 1 or 2 and nothing
    # prints a traceback; a rejected input prints one JSON error line and
    # nothing else, and a check that errors prints its report.  Half the
    # vectors are all small values; the other half mix in other values,
    # left-out flags and an unknown flag
    mixed = data.draw(st.booleans(), label="mixed")
    argv = command.split()
    for flag, (small, other), optional in ARGV_FLAGS[command]:
        if mixed and optional and data.draw(st.booleans(), label=f"leave out {flag}"):
            continue
        values = (other if small is None else small | other) if mixed else small
        if values is not None:
            argv += [flag, data.draw(values, label=flag)]
    if mixed and data.draw(st.booleans(), label="unknown flag"):
        argv += ["--bogus", "1"]
    with mock.patch.object(paperfold, "_prefix_array",
                           side_effect=lambda length: _capped_prefix(length, 2**21 - 1)):
        code, out, err = _run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if err:
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "error" in json.loads(err)
    elif code:
        body = json.loads(out)
        statuses = {r["status"] for r in (body if isinstance(body, list) else [body])}
        assert statuses & ({"error"} if code == 2 else {"fail", "inconclusive"})


def _help(argv):
    """The help text of ``pfkit <argv> --help``, which exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    return out.getvalue()


def test_help_states_the_contract_and_no_internals():
    text = " ".join(_help([]).split())
    assert "Exit code: 0" in text and 'one JSON "error" line' in text
    # no function or module attribute name, such as generation_index
    assert "generation_index" not in text and "language_generation" not in text
    assert not re.search(r"\w_\w", text)


@pytest.mark.parametrize("command", list(ARGV_FLAGS))
def test_every_report_command_lists_out_in_its_help(command):
    assert ("--out" in _help(command.split())) == (command != "subst fixed-prefix")


def readme_commands():
    """Every ``pfkit ...`` line of the README's shell blocks, comment cut."""
    lines, in_sh = [], False
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("pfkit "):
            lines.append(shlex.split(line, comments=True)[1:])
    return lines


def _timeless(out):
    """``out`` with no elapsed time in it: every elapsed_ms of a JSON
    report set to 0, the elapsed_ms column of a markdown table dropped."""
    if out.startswith("| check |"):
        return "".join(line.rsplit("|", 2)[0] + "|\n" for line in out.splitlines())
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 18
    digest = hashlib.sha256()
    for argv in commands:
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        digest.update(f"{shlex.join(argv)}\n{_timeless(out)}{err}".encode())
    for path in sorted(tmp_path.iterdir()):  # t20.pfw
        digest.update(path.name.encode() + path.read_bytes())
    assert digest.hexdigest() == README_OUTPUT_DIGEST


def test_every_command_has_a_readme_line():
    # test_readme_commands_exit_0 runs the lines there are; this notices a
    # command of the table that has none
    lines = readme_commands()
    assert len(cli.COMMANDS) == 16
    for command, *_ in cli.COMMANDS:
        assert any(argv[:len(command.split())] == command.split() for argv in lines), command


def test_readme_caps_table_matches_the_constants():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)\.(MAX_\w+)` \| (\d+) \|", text, re.M)
    table = {(mod, name): int(value) for mod, name, value in rows}
    constants = {(mod.__name__.rsplit(".", 1)[1], name): getattr(mod, name)
                 for mod in (words, paperfold, dihedral, subst, dimgroup)
                 for name in mod.__all__ if name.startswith("MAX_")}
    assert len(rows) == len(table) and table == constants


def test_the_parser_is_built_once_and_keeps_no_state_between_calls():
    assert cli.build_parser() is cli.build_parser()
    vectors = (["paperfold", "verify", "recurrence", "--p", "1.5", "--generation", "6"],
               ["paperfold", "verify", "recurrence", "--p", "1"],
               ["paperfold", "verify", "recurrence", "--p", "1", "--generation", "6"],
               ["report", "--profile", "nope"],
               ["dimgroup", "verify", "--samples", "3", "--seed", "x"],
               ["dimgroup", "verify", "--samples", "3"])

    def run_all_vectors():
        results = []
        for argv in vectors:
            code, out, err = _run_cli(argv)
            results.append((code, strip_elapsed(json.loads(out)) if out else out, err))
        return results

    cached = run_all_vectors()
    with mock.patch.object(cli, "build_parser", cli.build_parser.__wrapped__):
        fresh = run_all_vectors()
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 2, 0, 2, 2, 0]


def test_report_command_writes_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", "--profile", "quick", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert len(reports) == len(REGISTRY)
    assert all(r["status"] == "pass" for r in reports)
    md = tmp_path / "report.md"
    assert main(["report", "--profile", "quick", "--format", "markdown", "--out", str(md)]) == 0
    text = md.read_text()
    assert text.count("\n") >= len(REGISTRY)
    assert "| check | status | certifies | elapsed_ms |" in text

