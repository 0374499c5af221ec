"""Generative differential testing for the integration engine.

The paper's guarantee is semantic: every evaluation strategy — the
conceptual one-sweep derivation (§3.2), compiled constraint guards
(§3.3), and the optimized decomposed/merged plans (§3.4) — must produce
the *same* DTD-conformant, constraint-checked document.  This package
turns that guarantee into an executable oracle over *generated* AIGs
instead of the single hand-built hospital grammar:

* :mod:`repro.fuzz.spec` — JSON-round-trippable scenario descriptions
  and ``build_scenario`` to turn one into live ``(AIG, sources)``.
* :mod:`repro.fuzz.generator` — seeded random scenarios (grammar +
  schemas + rules + constraint-satisfying or violation-injected data).
* :mod:`repro.fuzz.oracle` — the cross-configuration equivalence oracle
  (conceptual vs. middleware × merging × incremental ×
  fault refusal).
* :mod:`repro.fuzz.shrink` — minimizes a diverging scenario to a small
  repro file.

Typical use::

    python -m repro fuzz --seeds 50
    python -m repro fuzz --seed-file repro_fuzz_00042.json --shrink
"""

from repro.fuzz.spec import (
    ScenarioSpec,
    TableSpec,
    build_scenario,
    from_json,
    to_json,
)
from repro.fuzz.generator import (
    DEFAULT_PROFILE,
    FuzzGenerationError,
    FuzzProfile,
    generate_scenario,
)
from repro.fuzz.oracle import (
    ConfigResult,
    Divergence,
    OracleReport,
    run_oracle,
)
from repro.fuzz.shrink import shrink

__all__ = [
    "ScenarioSpec",
    "TableSpec",
    "build_scenario",
    "from_json",
    "to_json",
    "DEFAULT_PROFILE",
    "FuzzGenerationError",
    "FuzzProfile",
    "generate_scenario",
    "ConfigResult",
    "Divergence",
    "OracleReport",
    "run_oracle",
    "shrink",
]
