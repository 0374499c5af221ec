"""Constraint enforcement in action (Section 3.3).

Shows how the two XML constraints of Example 1.1,

    Key:  patient(item.trId -> item)
    IC:   patient(treatment.trId ⊆ item.trId)

are compiled into synthesized bag/set members and guards, and how an
evaluation whose guards fail is refused, naming every violated constraint
once, using datasets with injected violations.

Run:  python examples/constraint_enforcement.py
"""

from repro import ConceptualEvaluator, EvaluationAborted, Middleware, Network
from repro.compilation import compile_constraints
from repro.datagen import generate, load_dataset, make_loaded_sources
from repro.hospital import build_hospital_aig, make_sources


def show_compiled_guards() -> None:
    aig = build_hospital_aig()
    compiled = compile_constraints(aig)
    print("constraints compiled into synthesized members and guards:")
    for element_type, guards in sorted(compiled.guards.items()):
        for guard in guards:
            print(f"  at <{element_type}>: {guard}")
    members = [m for m in compiled.syn_schema("patient").members
               if m.startswith("__c")]
    print(f"  Syn(patient) gained members: {members}")
    bill_members = [m for m in compiled.syn_schema("bill").members
                    if m.startswith("__c")]
    print(f"  Syn(bill) gained members:    {bill_members}  "
          f"(only relevant types carry them)\n")


def run_expecting(description, evaluate) -> None:
    try:
        evaluate()
        print(f"  {description}: generated cleanly")
    except EvaluationAborted as aborted:
        print(f"  {description}: ABORTED -> {aborted}")


def refuse_first_violating_report(aig, **violations) -> None:
    bad = generate("tiny", seed=3, **violations)
    sources = make_sources()
    load_dataset(bad, sources, enforce_billing_key=False)
    for date in sorted({row[2] for row in bad.visit_info}):
        try:
            Middleware(aig, sources, Network.mbps(1.0)).evaluate(
                {"date": date})
        except EvaluationAborted as aborted:
            print(f"  report for {date}: ABORTED -> {aborted}")
            break
    else:
        print("  (violating rows never visited — all reports clean)")


def main() -> None:
    show_compiled_guards()
    aig = build_hospital_aig()

    print("clean data — every report generates:")
    sources, dataset = make_loaded_sources("tiny", seed=3)
    date = dataset.busiest_date()
    run_expecting("conceptual", lambda: ConceptualEvaluator(
        aig, list(sources.values())).evaluate({"date": date}))
    run_expecting("middleware", lambda: Middleware(
        aig, sources, Network.mbps(1.0)).evaluate({"date": date}))

    print("\ninclusion violation injected (a treatment with no bill entry):")
    refuse_first_violating_report(aig, violate_inclusion=True)

    print("\nkey violation injected (duplicate billing rows):")
    refuse_first_violating_report(aig, violate_key=True)

    print("\nboth injected: one refusal names both constraints")
    refuse_first_violating_report(aig, violate_inclusion=True,
                                  violate_key=True)


if __name__ == "__main__":
    main()
