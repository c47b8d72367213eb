"""catwords: exact combinatorics of the Catalan word family.

Four layers: brute-force enumeration (words), counting arrays filled
bottom-up and closed forms (counting), an exact truncated-series kernel
(series), and generating-function identity verification (genfun), with a
batch CLI on top.
"""

from .counting import (
    a_desc,
    a_letter,
    a_zeros,
    a_zeros_closed,
    b_ones,
    b_ones_closed,
    b_ones_zeros,
    binomial,
    catalan_number,
    coeff_C_power,
    fine_number,
    letter_row,
    max_letter_count,
)
from .genfun import (
    StabilityError,
    VerificationReport,
    gf_A,
    gf_A0,
    gf_A4,
    gf_A_m,
    gf_A_via_lemma,
    gf_B,
    gf_fine,
    run_identity,
    verify_all,
)
from .series import (
    Caps,
    MultiSeries,
    NonInvertibleError,
    catalan_series,
    cheb_u,
    l_closed,
    l_family,
)
from .words import (
    CatalanWord,
    StatisticSpec,
    count_descents,
    enumerate_words,
    tally,
    validate,
)

__version__ = "0.1.0"
