"""The integer parameters of the library's public callables: one cheap
valid call of each callable, and the cap of each parameter, for
test_intake.py.

Run as a script, it calls each capped parameter at its cap + 1 under a
1 GiB address-space limit and prints, as one JSON object, the name of the
exception each call raised: a cap checked only after allocating ends in
MemoryError instead of ResourceError.
"""

import json
import resource
import sys

from pfkit import dihedral, dimgroup, paperfold, subst, words
from pfkit.dihedral import MAX_EXTEND_STEPS, MAX_PARITY_K, LanguageOracle
from pfkit.dimgroup import MAX_DYADIC_EXP, MAX_M_INDEX, MAX_MATRIX_POWER, MAX_SAMPLES
from pfkit.paperfold import MAX_GENERATION, MAX_PREFIX_LEN, MAX_SCAN_GENERATION
from pfkit.words import Word

MODULES = (words, paperfold, dihedral, subst, dimgroup)

# records that pfkit builds and hands out, not inputs
EXCLUDED = {
    "paperfold.CensusResult": "a census result that antipalindrome_census builds",
    "dihedral.FreenessCertificate": "a certificate that freeness_certificate builds",
}

ADDRESS_SPACE = 1 << 30


def cases():
    """``"module.name" -> (callable, valid keyword arguments, caps)``:
    ``caps`` maps each integer parameter to the largest value its cap
    allows, with the other arguments as given, or to None when the
    parameter has no cap (it is bounded by another argument, or its size
    costs nothing)."""
    word, s = Word("1101"), subst.PAPERFOLD_SUBSTITUTION
    oracle = LanguageOracle(paperfold.pf_word(5), 16)
    table = {
        words.Alphabet: (dict(size=2), {"size": None}),
        # bounded by the word
        words.segment: (dict(w=word, k=0, l=1), {"k": None, "l": None}),
        words.factor_set: (dict(w=word, n=2), {"n": None}),
        # window lengths are bounded by MAX_CODE_BITS, a DomainError
        words.window_codes: (dict(arr=word.to_array(), n=3, bits=1), {"n": None, "bits": None}),
        words.FactorIndex: (dict(arr=word.to_array(), bits=1, ref_len=None),
                            {"bits": None, "ref_len": None}),
        words.anti_reverse_codes: (dict(codes=[1], n=3), {"n": None}),
        words.anti_palindrome_codes: (dict(codes=[1], n=2), {"n": None}),
        paperfold.pf_word: (dict(n=3), {"n": MAX_GENERATION}),
        paperfold.pf_prefix: (dict(L=5), {"L": MAX_PREFIX_LEN}),
        # generation p + n + 1 is capped
        paperfold.verify_self_similarity: (dict(p=0, n=0), {"p": MAX_SCAN_GENERATION - 1,
                                                            "n": MAX_SCAN_GENERATION - 1}),
        # max_len is bounded by MAX_CODE_BITS, a DomainError
        paperfold.antipalindrome_census: (dict(generation=5, max_len=2),
                                          {"generation": MAX_GENERATION, "max_len": None}),
        paperfold.language_generation: (dict(n=4), {"n": None}),
        paperfold.generation_index: (dict(generation=3), {"generation": MAX_GENERATION}),
        paperfold.symbol: (dict(i=5), {"i": None}),
        # p is bounded by test_generation >= p + 4
        paperfold.verify_recurrence: (dict(p=0, test_generation=4),
                                      {"p": None, "test_generation": MAX_SCAN_GENERATION}),
        # max_period and preperiod are bounded by prefix_len
        paperfold.check_aperiodic: (dict(prefix_len=8, max_period=1, preperiod=0),
                                    {"prefix_len": MAX_PREFIX_LEN, "max_period": None, "preperiod": None}),
        # bounded by the source word
        dihedral.LanguageOracle: (dict(source=word, max_len=4, reference_len=None),
                                  {"max_len": None, "reference_len": None}),
        dihedral.check_closure_under_antireversal: (dict(oracle=oracle, n_max=2), {"n_max": None}),
        # horizon is bounded by the oracle's max_len
        dihedral.left_extend: (dict(oracle=oracle, seed=Word("1"), steps=0, horizon=1),
                               {"steps": MAX_EXTEND_STEPS, "horizon": None}),
        dihedral.parity_class_separation: (dict(K=0, generation=3),
                                           {"K": MAX_PARITY_K, "generation": MAX_GENERATION}),
        # the searches stop at their exhaustive bounds
        subst.is_primitive: (dict(s=s, n_max=1), {"n_max": None}),
        subst.is_left_proper: (dict(s=s, p_max=1), {"p_max": None}),
        subst.first_letters: (dict(s=s, p=1), {"p": None}),
        subst.fixed_prefix: (dict(s=s, L=4), {"L": MAX_PREFIX_LEN}),
        subst.block_code: (dict(x=Word("10"), offset=0), {"offset": None}),
        # recoding reads 2L binary symbols
        subst.verify_recoding: (dict(L=4), {"L": MAX_PREFIX_LEN // 2}),
        subst.verify_intertwining: (dict(L=4), {"L": MAX_PREFIX_LEN}),
        dimgroup.mat_pow: (dict(M=dimgroup.PAPERFOLD_MATRIX, n=2), {"n": MAX_MATRIX_POWER}),
        dimgroup.closed_form_power: (dict(n=2), {"n": MAX_MATRIX_POWER}),
        # the check reads the powers up to n_max + 2
        dimgroup.verify_matrix_closed_form: (dict(n_max=0), {"n_max": MAX_MATRIX_POWER - 2}),
        dimgroup.in_G: (dict(q=(1, 1, 1, 1), n=2), {"n": MAX_MATRIX_POWER}),
        dimgroup.in_H: (dict(q=(1, 1, 1, 1), n=2), {"n": MAX_MATRIX_POWER}),
        dimgroup.in_G_plus: (dict(q=(1, 1, 1, 1), n=2), {"n": MAX_MATRIX_POWER}),
        # stage n reads the power n + 2
        dimgroup.alpha: (dict(q=(1, 1, 1, 1), n=0), {"n": MAX_MATRIX_POWER - 2}),
        dimgroup.alpha_preimage: (dict(s=1, m=0), {"m": None}),
        # a dyadic's numerator and a pair's integer part cost their own
        # size; the exponent is a shift that every sum and comparison makes
        dimgroup.DyadicRational: (dict(num=1, exp=0), {"num": None, "exp": MAX_DYADIC_EXP}),
        dimgroup.DyadicPair: (dict(s=dimgroup.DyadicRational(1, 0), m=0), {"m": None}),
        # bounded by the prefix
        dimgroup.birkhoff_discrepancy: (dict(prefix=word, n=0), {"n": None}),
        dimgroup.coboundary_partial_sums: (dict(prefix=word, symbol=1), {"symbol": None}),
        dimgroup.m_sequence: (dict(n=3), {"n": MAX_M_INDEX}),
        dimgroup.verify_unbounded_discrepancy: (dict(N=2), {"N": MAX_SCAN_GENERATION}),
        dimgroup.verify_coboundary_bound: (dict(prefix_len=4), {"prefix_len": MAX_PREFIX_LEN}),
        # a seed is any non-negative integer
        dimgroup.verify_lattice_properties: (dict(index_max=2, samples=1, seed=0),
                                             {"index_max": MAX_MATRIX_POWER - 1, "samples": MAX_SAMPLES,
                                              "seed": None}),
        dimgroup.verify_cone_identity: (dict(samples=1, seed=0), {"samples": MAX_SAMPLES, "seed": None}),
        dimgroup.verify_involution_algebra: (dict(samples=1, seed=0), {"samples": MAX_SAMPLES, "seed": None}),
    }
    return {f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}": (fn, kwargs, caps)
            for fn, (kwargs, caps) in table.items()}


def over_cap_calls():
    """``"module.name param" -> the exception name`` of each call with a
    capped parameter at its cap + 1, or "returned"."""
    raised = {}
    for name, (fn, kwargs, caps) in cases().items():
        for param, cap in caps.items():
            if cap is not None:
                try:
                    fn(**{**kwargs, param: cap + 1})
                    raised[f"{name} {param}"] = "returned"
                except Exception as exc:  # noqa: BLE001 - reported to the test
                    raised[f"{name} {param}"] = type(exc).__name__
    return raised


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    json.dump(over_cap_calls(), sys.stdout)
