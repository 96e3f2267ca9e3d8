"""E4 + E5 + E16 — the privacy side: Lemma 3.3, Corollary 3.4, Appendix B.

* E4: exact worst-case publish ratio (dynamic program over evaluation
  patterns) against the ((1-p)/p)^4 bound, across key-space sizes, plus
  the rejection-constant ablation (E4b in ``python -m repro experiments``).
* E5: multi-sketch composition and the Corollary 3.4 p(eps, l) rule —
  paper's first-order formula vs this library's exact inversion.
* E16: the single-bit flipping privacy region of Appendix B.
"""

from __future__ import annotations

from repro.analysis import bit_flip_max_constant, bit_flip_ratio
from repro.core import PrivacyParams, epsilon_for_p, p_for_epsilon, worst_case_ratio
from repro.core.params import p_for_epsilon_corollary

from _harness import write_table


def test_e4_worst_case_ratio(benchmark):
    biases = (0.1, 0.25, 0.3, 0.4)

    def sweep():
        rows = []
        for p in biases:
            params = PrivacyParams(p)
            for bits in (2, 4, 6, 8):
                dist = benchmark_target(params, bits)
                rows.append(
                    (
                        p,
                        1 << bits,
                        f"{dist.worst_ratio:.3f}",
                        f"{params.privacy_ratio_bound():.3f}",
                        f"{dist.worst_ratio / params.privacy_ratio_bound():.3f}",
                    )
                )
        return rows

    def benchmark_target(params, bits):
        return worst_case_ratio(1 << bits, params.rejection_probability)

    rows = benchmark(sweep)
    write_table(
        "E4",
        "Lemma 3.3 — exact worst-case publish ratio vs ((1-p)/p)^4",
        ["p", "L", "exact worst ratio", "paper bound", "tightness"],
        rows,
        notes=(
            "Paper claim: for any profile pair and any fixed evaluation pattern the\n"
            "publish ratio stays below ((1-p)/p)^4.  Measured: the exact DP value is\n"
            "always below the bound and converges to it (tightness -> 1.0) as L\n"
            "grows — Lemma 3.3 is asymptotically tight."
        ),
    )
    for p, L, ratio, bound, _ in rows:
        assert float(ratio) <= float(bound) + 1e-9


def test_e4b_rejection_constant_ablation(benchmark):
    p = 0.25

    def ablate():
        rows = []
        for label, accept in [
            ("paper r=(p/(1-p))^2", (p / (1 - p)) ** 2),
            ("naive r=p/(1-p)", p / (1 - p)),
            ("r=1 (publish first)", 1.0),
        ]:
            dist = worst_case_ratio(64, accept)
            signal_bias = p / (p + (1 - p) * accept)
            rows.append(
                (
                    label,
                    f"{accept:.4f}",
                    f"{dist.worst_ratio:.2f}",
                    f"{signal_bias:.3f}",
                    f"{signal_bias - p:+.3f}",
                )
            )
        return rows

    rows = benchmark(ablate)
    write_table(
        "E4b",
        "Ablation — rejection constant r: privacy/signal dial (p = 0.25, L = 64)",
        ["variant", "r", "worst ratio", "P[f=1|published]", "signal gap"],
        rows,
        notes=(
            "The paper's squared constant is the unique choice making the published\n"
            "key exactly (1-p)-biased at the true value (signal gap 1-2p), which\n"
            "Algorithm 2's de-biasing assumes.  Smaller ratios are available (naive\n"
            "r, or r=1 = uniform key) but only by shrinking the signal gap to\n"
            "1/2 - p or 0."
        ),
    )


def test_e5_multi_sketch_composition(benchmark):
    def build():
        rows = []
        for epsilon in (0.1, 0.5, 1.0):
            for sketches in (1, 4, 16, 64):
                exact_p = p_for_epsilon(epsilon, sketches)
                paper_p = p_for_epsilon_corollary(epsilon, sketches)
                rows.append(
                    (
                        epsilon,
                        sketches,
                        f"{paper_p:.5f}",
                        f"{exact_p:.5f}",
                        f"{epsilon_for_p(paper_p, sketches):.4f}",
                        f"{epsilon_for_p(exact_p, sketches):.4f}",
                    )
                )
        return rows

    rows = benchmark(build)
    write_table(
        "E5",
        "Corollary 3.4 — p needed for (1 +/- eps)-privacy over l sketches",
        ["eps", "l", "paper p=1/2-eps/16l", "exact p", "eps @ paper p", "eps @ exact p"],
        rows,
        notes=(
            "Paper claim: p >= 1/2 - eps/(16 l) gives ratio within 1 +/- eps.  The\n"
            "first-order formula overshoots eps slightly (e.g. 0.1052 at eps=0.1,\n"
            "l=1); the exact inversion p = 1/(1+(1+eps)^(1/4l)) hits eps exactly."
        ),
    )
    for _, sketches, _, exact_p, _, achieved in rows:
        assert abs(float(achieved) - float(rows[0][0])) < 10  # sanity only


def test_e16_bit_flip_region(benchmark):
    def build():
        rows = []
        for epsilon in (0.01, 0.1, 0.5, 1.0):
            c_exact = bit_flip_max_constant(epsilon)
            p = 0.5 - c_exact * epsilon
            rows.append(
                (
                    epsilon,
                    "1/4",
                    f"{c_exact:.4f}",
                    f"{p:.4f}",
                    f"{bit_flip_ratio(p):.4f}",
                    f"{1 + epsilon:.4f}",
                )
            )
        return rows

    rows = benchmark(build)
    write_table(
        "E16",
        "Appendix B — eps-privacy region of single-bit flipping p = 1/2 - c*eps",
        ["eps", "paper c", "exact max c", "p", "ratio (1-p)/p", "target 1+eps"],
        rows,
        notes=(
            "Paper claim (Lemma B.1): c <= 1/4 suffices.  Exactly, the largest\n"
            "constant is c = 1/(2(2+eps)) -> 1/4 as eps -> 0; at the exact c the\n"
            "ratio equals 1+eps on the nose."
        ),
    )
    for epsilon, _, c, _, ratio, target in rows:
        assert float(c) <= 0.25
        assert abs(float(ratio) - float(target)) < 1e-6
