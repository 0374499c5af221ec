"""Static analyses of AIGs (Section 4).

"An advantage of using a limited specification language is the ability to
infer powerful static guarantees" — this example runs the decidable
analyses on σ0 (constraint-free, conjunctive queries):

* termination: σ0 may diverge on adversarial instances (a cyclic
  ``procedure`` table) — which is exactly why the middleware carries a
  recursion-depth cap and the runtime re-unrolling loop;
* reachability: which element types can / must appear in reports;
* CSR/QSR classification: how many rules are pure copies that copy
  elimination inlines away.

Run:  python examples/static_analysis.py
"""

from repro.analysis import (
    can_reach,
    can_terminate,
    classify_rules,
    divergent_cycles,
    may_diverge,
    must_reach,
    must_terminate,
)
from repro.hospital import build_hospital_aig


def main() -> None:
    aig = build_hospital_aig(with_constraints=False)

    print("== termination (conjunctive, constraint-free σ0) ==")
    print(f"  must terminate on all instances: {must_terminate(aig)}")
    print(f"  may diverge on some instance:    {may_diverge(aig)}")
    print(f"  can terminate on some instance:  {can_terminate(aig)}")
    for cycle in divergent_cycles(aig):
        print(f"  sustaining cycle: {' -> '.join(cycle + [cycle[0]])}")
    print("  (the middleware's unfold-depth cap guards exactly this case)")

    print("\n== reachability ==")
    for element_type in ("patient", "treatment", "procedure", "item",
                         "report"):
        print(f"  {element_type:>10s}: can-reach={can_reach(aig, element_type)!s:5s} "
              f"must-reach={must_reach(aig, element_type)}")

    print("\n== rule classification (Section 4's CSR/QSR) ==")
    flags = []
    for element_type, sites in classify_rules(aig).items():
        rendered = ", ".join(f"{site}={'CSR' if is_copy else 'QSR'}"
                             for site, is_copy in sites)
        print(f"  {element_type:>12s}: {rendered}")
        flags.extend(is_copy for _, is_copy in sites)
    print(f"  copy-rule fraction: {sum(flags) / len(flags):.0%} "
          f"(inlined by copy elimination — never materialized)")


if __name__ == "__main__":
    main()
