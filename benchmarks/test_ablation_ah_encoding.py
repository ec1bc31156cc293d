"""Ablations — AH transformation overhead and symbol-encoding savings.

Two design choices the paper leans on:

* the **AH transformation** (§4) splits states per incoming action; it
  must cost only a small constant factor for the BV-STE budget of 48 per
  tile to make sense — measured here across all seven datasets, with the
  reduction pass off (``reduce_level=0``): it shrinks the AH-NBVA after
  the transformation, which is not what this ablation measures;
* the **symbol encoding** (§7 step 2, after CAMA) shrinks the CAM: the
  equivalence-class count of real rule sets is far below 256, which is
  why a 32-bit CAM row suffices.
"""

from repro.analysis.report import format_table
from repro.compiler import CompilerOptions, compile_pattern, compile_ruleset
from repro.workloads.datasets import DATASET_NAMES, load_dataset
from conftest import write_result


#: The AH transformation alone, without the reduction pass after it.
AH_ONLY = CompilerOptions(reduce_level=0)


def run_ah_overhead():
    rows = []
    for name in DATASET_NAMES:
        nbva_states = 0
        ah_states = 0
        bv_stes = 0
        for pattern in load_dataset(name, 20, seed=4):
            try:
                compiled = compile_pattern(pattern, options=AH_ONLY)
            except ValueError:
                continue
            nbva_states += compiled.nbva.num_states
            ah_states += compiled.ah.num_states
            bv_stes += compiled.ah.num_bv_stes()
        rows.append(
            (name, nbva_states, ah_states, ah_states / nbva_states, bv_stes)
        )
    return rows


def test_ablation_ah_overhead(benchmark):
    rows = benchmark.pedantic(run_ah_overhead, rounds=1, iterations=1)
    write_result(
        "ablation_ah_overhead",
        format_table(
            ["dataset", "NBVA states", "AH states", "blowup", "BV-STEs"],
            rows,
        ),
    )
    for name, nbva_states, ah_states, blowup, _ in rows:
        assert 1.0 <= blowup <= 1.6, (name, blowup)  # small constant factor


def run_encoding():
    rows = []
    for name in DATASET_NAMES:
        ruleset = compile_ruleset(load_dataset(name, 20, seed=4))
        schema = ruleset.encoding
        rows.append(
            (
                name,
                schema.num_codes,
                schema.code_bits,
                256 // max(1, 2 ** schema.code_bits),
            )
        )
    return rows


def test_ablation_symbol_encoding(benchmark):
    rows = benchmark.pedantic(run_encoding, rounds=1, iterations=1)
    write_result(
        "ablation_encoding",
        format_table(
            ["dataset", "codes", "bits/symbol", "CAM width saving"], rows
        ),
    )
    for name, codes, bits, _ in rows:
        # Far fewer equivalence classes than raw bytes on every dataset.
        assert codes < 128, (name, codes)
        assert bits <= 7
