"""The package namespace: ``pfkit`` re-exports the ``__all__`` of each of
its modules, which is the one list of that module's public names."""

import inspect
import itertools
import types

import pytest

import pfkit
from pfkit import dihedral, dimgroup, errors, paperfold, report, subst, words

MODULES = (words, paperfold, dihedral, subst, dimgroup, report)
ERRORS = {"DomainError", "ExtensionError", "PfkitError", "ResourceError"}

# what ``pfkit`` exported when it kept its own list of names, by module
EXPORTED_BEFORE = {
    words: "BINARY QUATERNARY Alphabet Word anti_reverse concat count factor_set "
           "is_anti_palindrome segment",
    paperfold: "CensusResult antipalindrome_census check_aperiodic pf_prefix pf_word "
               "verify_recurrence verify_self_similarity",
    dihedral: "FreenessCertificate LanguageOracle check_closure_under_antireversal "
              "freeness_certificate left_extend parity_class_separation",
    subst: "PAPERFOLD_SUBSTITUTION AbelianMatrix Substitution abelianization apply block_code "
           "fixed_prefix is_left_proper is_primitive verify_intertwining verify_recoding",
    dimgroup: "PAPERFOLD_MATRIX DyadicInvolution DyadicPair DyadicRational alpha alpha_preimage "
              "birkhoff_discrepancy cone_membership in_G in_G_plus in_H involution_apply "
              "m_sequence mat_pow one_plus_sigma_image rescale_unit staged_cone_witness "
              "verify_unbounded_discrepancy",
    report: "CheckReport emit_report",
}


def test_pfkit_exports_the_error_types_and_every_module_list():
    public = {name for name, value in vars(pfkit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == ERRORS | {name for module in MODULES for name in module.__all__}
    assert all(getattr(pfkit, name) is getattr(errors, name) for name in ERRORS)


def test_names_exported_before_resolve_to_the_same_objects():
    assert sum(len(names.split()) for names in EXPORTED_BEFORE.values()) == 54
    star = {}
    exec("from pfkit import *", star)
    for module, names in EXPORTED_BEFORE.items():
        for name in names.split():
            assert getattr(pfkit, name) is getattr(module, name), name
            assert star[name] is getattr(module, name), name
    assert {"words", "paperfold", "dihedral", "subst", "dimgroup", "report", "errors"} | ERRORS <= set(star)


def test_no_name_is_in_two_module_lists():
    # a star re-export lets a later module shadow an earlier one's name
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_function_and_class_has_a_docstring(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isroutine(obj) or inspect.isclass(obj):
            doc = obj.__doc__ or ""
            # a dataclass without a docstring gets its signature as one
            assert doc.strip() and not doc.startswith(f"{name}("), f"{module.__name__}.{name}"


def test_only_types_whose_json_is_not_their_fields_define_to_json():
    # report.jsonable renders any other record by its fields; a to_json
    # that restates them would be a second way to write the same JSON
    hooks = {name for module in MODULES for name in module.__all__
             if inspect.isclass(getattr(module, name)) and hasattr(getattr(module, name), "to_json")}
    assert hooks == {"DyadicRational", "Substitution"}
