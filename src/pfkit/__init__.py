"""pfkit: verification toolkit for the paper-folding subshift.

Word combinatorics over a bit-packed word type, certificates for the
infinite dihedral action generated by the shift and anti-reversal, the
four-letter recoding substitution, and exact dimension-group arithmetic
on dyadic scaled ordered groups.
"""

from .errors import DomainError, ExtensionError, PfkitError, ResourceError
from .words import (
    BINARY,
    QUATERNARY,
    Alphabet,
    Word,
    anti_reverse,
    concat,
    count,
    factor_set,
    is_anti_palindrome,
    segment,
)
from .paperfold import (
    CensusResult,
    antipalindrome_census,
    check_aperiodic,
    pf_prefix,
    pf_word,
    verify_recurrence,
    verify_self_similarity,
)
from .dihedral import (
    FreenessCertificate,
    LanguageOracle,
    check_closure_under_antireversal,
    freeness_certificate,
    left_extend,
    parity_class_separation,
)
from .subst import (
    PAPERFOLD_SUBSTITUTION,
    AbelianMatrix,
    Substitution,
    abelianization,
    apply,
    block_code,
    fixed_prefix,
    is_left_proper,
    is_primitive,
    verify_intertwining,
    verify_recoding,
)
from .dimgroup import (
    PAPERFOLD_MATRIX,
    DyadicInvolution,
    DyadicPair,
    DyadicRational,
    alpha,
    alpha_preimage,
    birkhoff_discrepancy,
    cone_membership,
    in_G,
    in_G_plus,
    in_H,
    involution_apply,
    m_sequence,
    mat_pow,
    one_plus_sigma_image,
    rescale_unit,
    staged_cone_witness,
    verify_unbounded_discrepancy,
)
from .report import CheckReport, emit_report

__version__ = "0.1.0"
