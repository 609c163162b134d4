"""Write ``expected_answers.json``: the unique answers of every input the
benchmark can visit, computed by the library in ``src/`` of this checkout.

    python3 benchmarks/make_expected.py

Regenerate only when a change is meant to alter an answer; the benchmark
checks every run against this file.  Each answer's evidence is re-verified
before it is written.
"""

from __future__ import annotations

import json
import random
import sys

import run


def _answers(workloads, lib, items) -> dict[str, str]:
    out = {}
    for item in items:
        result = item.run()
        for evidence in item.evidence(result):
            if not workloads.verify_evidence(lib, evidence):
                raise SystemExit(f"{item.key}: {evidence[0]} evidence does not verify")
        out[item.key] = item.answer(result)
    return out


def main() -> int:
    workloads = run._import_library()
    lib = workloads.Library()
    seed = workloads.ACCEPTANCE_SEED
    answers: dict[str, dict[str, str]] = {}

    # Every corpus pair, although corpus-order runs only a prefix: the CLI
    # fixtures are drawn from further along the corpus.
    rng = random.Random(seed)
    answers["corpus-order"] = _answers(
        workloads,
        lib,
        [
            workloads._corpus_item(
                lib, index, pi, pi_prime, lib.generators.random_prior(rng, pi.n_states)
            )
            for index, (pi, _prior, pi_prime) in enumerate(workloads._corpus(lib))
        ],
    )
    # The whole problem menu of every ordered pair; each seed runs a subset.
    answers["value-bounds"] = _answers(
        workloads,
        lib,
        [
            workloads._value_item(
                lib,
                index,
                k,
                workloads._value_problem(lib, index, k, pi.n_states),
                pi,
                pi_prime,
                beta,
            )
            for index, pi, pi_prime, beta in workloads.value_universe(lib)
            for k in range(workloads.VALUE_MENU)
        ],
    )

    document = {
        "acceptance_seed": seed,
        "note": "unique answers per input key; written by benchmarks/make_expected.py",
        "answers": answers,
    }
    with open(run.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=0, sort_keys=True)
        handle.write("\n")
    sizes = {name: len(table) for name, table in answers.items()}
    print(f"wrote {run.EXPECTED.name}: {sizes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
