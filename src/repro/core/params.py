"""Every constant of the D1LC algorithm, in one place.

The paper fixes a number of constants (``p_g = 1/10`` for slack generation,
``α = 1/12`` and ``β = 1/3`` inside MultiTrial, ``ℓ = log^{2.1} Δ`` for the
low-/high-slack threshold, the outlier fractions 1/3 and 1/6, the put-aside
sampling probability ``ℓ² / (48 Δ_C)``, ...).  Those that every run shares
are the module constants below, at the paper's values.

The paper's constants are tuned for asymptotic statements about graphs
whose minimum degree is ``log^7 n`` — astronomically large.  To run the *same*
algorithms on laptop-sized graphs, the values that must scale with the graph
are the fields of :class:`ColoringParameters`.  Their class defaults are not
all the paper's: :meth:`ColoringParameters.paper` overrides four of them (the
MultiTrial σ window and the EstimateSimilarity caps), and
:meth:`ColoringParameters.small` sets all seven for degrees of about 10–200
(both documented as simulation knobs in DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

#: ``p_g`` of GenerateSlack (Algorithm 10).
SLACK_PROBABILITY = 0.1
#: The ``α`` and ``β`` of Section 4.1.
MULTITRIAL_ALPHA = 1.0 / 12.0
MULTITRIAL_BETA = 1.0 / 3.0
#: The ``c > 3`` in ``ν_λ = max(n^{-c}, 12·exp(−αλ/45))``.
MULTITRIAL_NU_EXPONENT = 4.0
#: MultiTrial hashes into ``[λ]`` with ``λ`` this factor times the palette size.
MULTITRIAL_LAMBDA_FACTOR = 6
#: ``ε_sp`` used to classify sparse and uneven nodes.
SPARSITY_EPS = 0.1
#: Exponent in ``ℓ = log^{2.1} Δ`` separating low- and high-slack cliques.
ELL_EXPONENT = 2.1
#: The ``max(d_x, |C|)/3`` and ``|C|/6`` outlier fractions (Appendix E.2).
OUTLIER_COMMON_FRACTION = 1.0 / 3.0
OUTLIER_DEGREE_FRACTION = 1.0 / 6.0
#: The 48 in the put-aside sampling probability ``ℓ²/(48 Δ_C)``.
PUTASIDE_CONSTANT = 48.0
#: Number of plain random color trials at the top of SlackColor.
SLACK_COLOR_INITIAL_TRIALS = 2
#: ``ε̂`` used when identifying ``V_start`` after slack generation.
START_SLACK_FRACTION = 0.05
#: Most passes of the ACD, sparse and dense phases before the fallback.
MAX_PHASE_ITERATIONS = 8


@dataclass(frozen=True)
class ColoringParameters:
    """Parameters of the D1LC pipeline that a preset or caller varies.

    Attributes
    ----------
    multitrial_sigma_floor, multitrial_sigma_per_try:
        Lower bound and per-tried-color scaling of the observation window
        ``σ``.  The paper takes ``σ = Θ(β^{-2} α^{-1} log(1/ν)) = Θ(log n)``;
        the floor/per-try form produces the same ``Θ(log n)`` window while
        letting the ``small()`` preset shrink the constant.
    acd_eps:
        ``ε`` of the almost-clique decomposition (ε-friend / ε-buddy edges).
    low_degree_cutoff:
        Nodes of degree below this participate in the randomized pipeline but
        are allowed to fall through to the deterministic post-shattering
        fallback (the paper's shattering framework).
    slack_color_kappa:
        The ``κ ∈ (1/s_min, 1]`` parameter of SlackColor (Algorithm 15).
    uniform:
        Use the explicit/uniform implementations of Section 5 (pairwise
        independent hashing + averaging samplers) instead of representative
        hash families inside MultiTrial and the ACD buddy test.
    similarity_sigma_cap, similarity_max_scale:
        Simulation-scale caps forwarded to the embedded EstimateSimilarity
        calls (see :class:`repro.sampling.similarity.SimilarityParameters`).
    seed:
        Master seed for all randomness of a solver run.
    """

    # --- MultiTrial
    multitrial_sigma_floor: int = 96
    multitrial_sigma_per_try: int = 24
    # --- ACD
    acd_eps: float = 0.15
    # --- SlackColor
    slack_color_kappa: float = 0.25
    # --- phase structure
    low_degree_cutoff: int = 4
    # --- implementation selection
    uniform: bool = False
    similarity_sigma_cap: Optional[int] = 1024
    similarity_max_scale: Optional[int] = 4
    # --- randomness
    seed: int = 0

    # ------------------------------------------------------------------ presets
    @classmethod
    def paper(cls, seed: int = 0) -> "ColoringParameters":
        """The paper's constants, with only the σ window capped for tractability.

        The observation window of the embedded EstimateSimilarity calls is
        ``Θ(ε^{-4} log(1/ν))`` in the paper — millions of bits per edge for the
        ε used by the ACD, which a per-edge Python simulation cannot
        materialise.  The cap keeps the window very large (8192 bits, i.e.
        dozens of chunked CONGEST rounds) while every other constant matches
        the paper; use :meth:`small` for routine experimentation.
        """
        return cls(
            multitrial_sigma_floor=324,  # 3 · β^{-2} · α^{-1} with α=1/12, β=1/3
            multitrial_sigma_per_try=48,
            similarity_sigma_cap=8192,
            similarity_max_scale=32,
            seed=seed,
        )

    @classmethod
    def small(cls, seed: int = 0, uniform: bool = False) -> "ColoringParameters":
        """Constants scaled for laptop-sized graphs (degrees ~10–200)."""
        return cls(
            acd_eps=0.3,
            multitrial_sigma_floor=64,
            multitrial_sigma_per_try=16,
            slack_color_kappa=0.5,
            low_degree_cutoff=3,
            similarity_sigma_cap=512,
            similarity_max_scale=2,
            uniform=uniform,
            seed=seed,
        )

    def with_seed(self, seed: int) -> "ColoringParameters":
        return replace(self, seed=seed)

    # ------------------------------------------------------------ derived values
    def ell(self, delta: int) -> float:
        """``ℓ = log^{ELL_EXPONENT} Δ``, the low/high-slack threshold."""
        return math.log2(max(delta, 4)) ** ELL_EXPONENT

    def multitrial_nu(self, lam: int, n: int) -> float:
        """``ν_λ = max(n^{-c}, 12·exp(−αλ/45))`` of Section 4.1."""
        n = max(n, 2)
        from_n = n ** (-MULTITRIAL_NU_EXPONENT)
        from_lam = 12.0 * math.exp(-MULTITRIAL_ALPHA * lam / 45.0)
        return min(0.5, max(from_n, from_lam))

    def multitrial_sigma(self, lam: int, tries: int, n: int) -> int:
        """Observation window ``σ_λ`` for MultiTrial.

        ``Θ(β^{-2} α^{-1} log(1/ν))`` in the paper; here a floor plus a
        per-tried-color term, capped at ``λ`` (hash values cannot exceed the
        range).  Both forms are ``Θ(log n)`` for the paper's parameters.
        """
        nu = self.multitrial_nu(lam, n)
        from_nu = int(math.ceil(3.0 * math.log(1.0 / nu)
                                / (MULTITRIAL_BETA ** 2 * MULTITRIAL_ALPHA)))
        sigma = max(self.multitrial_sigma_floor,
                    self.multitrial_sigma_per_try * max(1, tries))
        sigma = max(sigma, min(from_nu, 4 * self.multitrial_sigma_floor))
        return max(1, min(sigma, lam))

    def putaside_probability(self, ell: float, clique_degree: int) -> float:
        """``p_s = ℓ² / (48 Δ_C)`` (Algorithm 13), clamped to [0, 1]."""
        if clique_degree <= 0:
            return 0.0
        return min(1.0, ell ** 2 / (PUTASIDE_CONSTANT * clique_degree))
