#!/usr/bin/env python3
"""Write the stored per-chunk sums of the Monte Carlo chunk kernel.

``tests/golden/chunk_sums.json`` holds what ``montecarlo._chunk_sums``
returns for single chunks, reduced in a worker's chunk workspace: every
family's sum and its squared sum, each as the hex of its double.  It
covers primaries of 0, 12, 18, 24 and 60 dB at a 20 dB secondary, with
``rate_th`` 0, 2.5 and 6, on a full chunk and on a short last chunk, each
by a plain pass (the four plain protocols and the power scale) and a
boosted pass (pure SIC with the secondary's mean SNR doubled).  ``tests/test_golden.py`` holds the kernel
to this file bit for bit, so a rewrite of the kernel that claims to keep
its arithmetic shows it here.  A change that moves the sums regenerates the
file with this script and explains the diff:

    PYTHONPATH=src python scripts/chunk_sums_golden.py
"""

import json
from pathlib import Path

from crul import montecarlo
from crul.channel import ScenarioConfig
from crul.montecarlo import McConfig
from crul.protocols import ProtocolKind, Workspace

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "chunk_sums.json"
PRIMARIES_DB = (0.0, 12.0, 18.0, 24.0, 60.0)
SECONDARY_DB = 20.0
RATE_THRESHOLDS = (0.0, 2.5, 6.0)
#: Three chunks, the last one short; the first and the last are stored.
MC = McConfig(n_samples=250_001, seed=0)
BOOST = 2.0
PASSES = {
    "plain": (
        ProtocolKind.CR_RSMA,
        ProtocolKind.CR_SIC,
        ProtocolKind.BENCH_CSI,
        ProtocolKind.BENCH_QOS,
        montecarlo._POWER,
    ),
    "boosted": (ProtocolKind.CR_SIC,),
}


def _name(family) -> str:
    return family.value if isinstance(family, ProtocolKind) else family


def chunk_sums() -> dict:
    """The stored file's content, from the kernel as it is now."""
    counts = list(enumerate(MC.chunk_counts()))
    stored = (counts[0], counts[-1])
    logs = {index: montecarlo._standard_draw(MC.seed, index, count) for index, count in stored}
    workspace = Workspace(montecarlo.CHUNK_SIZE)
    entries = []
    for primary_db in PRIMARIES_DB:
        for rate_th in RATE_THRESHOLDS:
            scenario = ScenarioConfig.from_snr_db(primary_db, SECONDARY_DB, rate_threshold=rate_th)
            targets = {"plain": scenario, "boosted": scenario.with_secondary_snr_scaled(BOOST)}
            for index, count in stored:
                for name, families in PASSES.items():
                    sums = montecarlo._chunk_sums(targets[name], families, logs[index], workspace)
                    entries.append(
                        {
                            "primary_db": primary_db,
                            "rate_th": rate_th,
                            "chunk": index,
                            "count": count,
                            "pass": name,
                            "families": {
                                _name(family): {
                                    "sum": float(total).hex(),
                                    "square_sum": float(square).hex(),
                                }
                                for family, (total, square) in zip(families, sums)
                            },
                        }
                    )
    return {
        "secondary_db": SECONDARY_DB,
        "seed": MC.seed,
        "chunk_size": montecarlo.CHUNK_SIZE,
        "boost": BOOST,
        "entries": entries,
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(chunk_sums(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
