"""pfkit: verification toolkit for the paper-folding subshift.

Word combinatorics over a word type that holds one byte per symbol (bits
are packed only in PFW files and word codes), certificates for the
infinite dihedral action generated by the shift and anti-reversal, the
four-letter recoding substitution, and exact dimension-group arithmetic
on dyadic scaled ordered groups.

The package re-exports every public name of its modules: a module's
``__all__`` is the one list of what it makes public.
"""

from .errors import DomainError, ExtensionError, PfkitError, ResourceError
from .words import *  # noqa: F403
from .paperfold import *  # noqa: F403
from .dihedral import *  # noqa: F403
from .subst import *  # noqa: F403
from .dimgroup import *  # noqa: F403
from .report import *  # noqa: F403

__version__ = "0.1.0"
