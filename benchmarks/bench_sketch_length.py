"""E1 + E2 — Lemma 3.1 (sketch length) and the running-time remark (§3).

Regenerates:

* the required sketch length across user counts and failure budgets, with
  the paper's headline check "p > 1/4  =>  10 bits suffice";
* measured failure rates at the recommended length (must be ~0);
* measured Algorithm 1 iteration counts vs the paper's expected-iteration
  bound (1-p)^2/p^2 and worst-case bound log(M/tau)/|log(1-p^2)|.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import worst_case_iterations
from repro.core import Sketcher
from repro.core import PrivacyParams, exact_failure_probability

from _harness import make_stack, write_table


def test_e1_sketch_length_table(benchmark):
    params_by_p = {p: PrivacyParams(p) for p in (0.1, 0.25, 0.3, 0.4)}

    def build_rows():
        rows = []
        for p, params in params_by_p.items():
            for num_users in (10**3, 10**6, 10**9):
                for tau in (1e-3, 1e-9):
                    bits = params.sketch_length(num_users, tau)
                    rows.append(
                        (
                            p,
                            f"{num_users:.0e}",
                            f"{tau:.0e}",
                            bits,
                            f"{params.failure_probability(bits, num_users):.1e}",
                            f"{exact_failure_probability(1 << bits, params) * num_users:.1e}",
                        )
                    )
        return rows

    rows = benchmark(build_rows)
    write_table(
        "E1",
        "Lemma 3.1 — minimal sketch length ceil(log2(log(tau/M)/log(1-p^2)))",
        ["p", "M", "tau", "bits", "union bound", "exact failure"],
        rows,
        notes=(
            "Paper claim: doubly logarithmic in M and tau; 'if p > 1/4, a 10 bit\n"
            "sketch is sufficient for any foreseeable practical use'.  Check: at\n"
            "p = 0.3, M = 1e9, tau = 1e-9 the table shows <= 10 bits.  The exact\n"
            "failure column uses ((1-p)(1-r))^L, strictly below the lemma's\n"
            "(1-p^2)^L union bound."
        ),
    )
    ten_bit = PrivacyParams(0.26).sketch_length(10**9, 1e-9)
    assert ten_bit <= 10


def test_e2_iteration_counts(benchmark):
    p = 0.3
    params, _, sketcher, _, _ = make_stack(p, seed=21)
    num_trials = 2000

    def run_trials():
        iterations = []
        for i in range(num_trials):
            sketch = sketcher.sketch(f"user-{i}", [1, 0, 1, 1], (0, 1, 2, 3))
            iterations.append(sketch.iterations)
        return iterations

    iterations = benchmark.pedantic(run_trials, rounds=1, iterations=1)
    mean = float(np.mean(iterations))
    worst = int(np.max(iterations))
    write_table(
        "E2",
        "Algorithm 1 running time (p = 0.3, 2000 runs)",
        ["quantity", "measured", "paper bound"],
        [
            ("mean iterations", f"{mean:.2f}", f"{params.iteration_bound:.2f}  ((1-p)^2/p^2)"),
            ("exact expectation", f"{params.expected_iterations:.2f}", "(1/(p + p^2/(1-p)))"),
            ("max iterations", worst, f"{worst_case_iterations(num_trials, 1e-6, p):.1f}  (log(M/tau)/|log(1-p^2)|)"),
        ],
        notes="Paper claim: expected iterations below (1-p)^2/p^2; worst case logarithmic in M/tau.",
    )
    assert mean <= params.iteration_bound
    assert worst <= worst_case_iterations(num_trials, 1e-6, p)


def test_e2b_replacement_ablation(benchmark):
    """Ablation: with- vs without-replacement sampling (E2b in
    ``python -m repro experiments``)."""
    p = 0.3
    params, prf, _, _, rng = make_stack(p, seed=22)
    num_trials = 1500

    def run_both():
        results = {}
        for label, flag in (("without (paper)", False), ("with", True)):
            sketcher = Sketcher(
                params, prf, sketch_bits=10, rng=rng, with_replacement=flag
            )
            iterations = [
                sketcher.sketch(f"{label}-{i}", [1, 0, 1], (0, 1, 2)).iterations
                for i in range(num_trials)
            ]
            results[label] = iterations
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = []
    for label, iterations in results.items():
        rows.append(
            (
                label,
                f"{np.mean(iterations):.2f}",
                int(np.max(iterations)),
                "2**l = 1024 (deterministic)" if "without" in label else "draw cap (probabilistic)",
            )
        )
    write_table(
        "E2b",
        "Ablation — Algorithm 1 key sampling with vs without replacement (p = 0.3)",
        ["variant", "mean iterations", "max iterations", "termination guarantee"],
        rows,
        notes=(
            "Lemma 3.2's biases hold under both variants (tested); the paper's\n"
            "without-replacement choice buys a deterministic iteration bound of\n"
            "2**l and hence Lemma 3.1's clean failure analysis, at identical\n"
            "expected cost."
        ),
    )
    means = {label: np.mean(it) for label, it in results.items()}
    assert abs(means["without (paper)"] - means["with"]) < 0.5
