"""Ablation: test-vector compaction (the Table 4 #vect column).

Reverse-order fault-simulation compaction must preserve coverage while
shrinking the deterministic vector set substantially.
"""

from repro.api import AtpgConfig
from repro.atpg import run_atpg
from repro.digital import (
    collapse_faults,
    coverage,
    fault_universe,
    iscas85_like,
)


def test_compaction_ablation(benchmark, record_table):
    circuit = iscas85_like("c432")
    faults = collapse_faults(circuit, fault_universe(circuit))

    def run_both():
        compacted = run_atpg(
            circuit, faults=faults, config=AtpgConfig(compact=True)
        )
        raw = run_atpg(
            circuit, faults=faults, config=AtpgConfig(compact=False)
        )
        return compacted, raw

    compacted, raw = benchmark.pedantic(run_both, rounds=1, iterations=1)
    record_table(
        "ablation_compaction",
        f"c432 vectors: raw(dedup)={raw.n_vectors}, "
        f"compacted={compacted.n_vectors}",
    )
    assert compacted.n_vectors <= raw.n_vectors
    detected = [
        r.fault for r in compacted.results if r.vector is not None
    ]
    # Compaction must not lose coverage of the detected faults.
    assert coverage(circuit, compacted.vectors, detected) == 1.0
