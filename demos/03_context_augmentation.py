"""Closing knowledge gaps by injecting missed statements as context.

Takes two noisy baselines, collects the statements both answered wrongly,
prepends them to every prompt, and re-evaluates.
"""

import conceptcheck as cc

graph = cc.load_medical_graph()
closure = cc.deductive_closure(graph)
dataset = cc.generate_dataset(graph, cc.MEDICAL_GENERATION)
template = cc.load_default_prompt()

baselines = [
    cc.evaluate_dataset(dataset, cc.NoisyOracle(closure, dataset, flip_probability=0.3, seed=7), template),
    cc.evaluate_dataset(dataset, cc.NoisyOracle(closure, dataset, flip_probability=0.3, seed=8), template),
]
rows = {rs.backend_id: cc.compute_report(rs, dataset) for rs in baselines}

print("=== baselines ===")
print(cc.render_markdown(list(rows.values())))

context = cc.build_context(baselines, dataset)
print(f"=== context block: {len(context.statements)} statements missed by every baseline ===")
for statement in context.statements[:8]:
    print(f"  {statement}")
print("  ...")
print("\nEach entry is the missed question recast as a declarative, verbatim -")
print("including questions whose expected answer was no, which a baseline")
print("missed by affirming. The block records what was missed, not a vetted")
print("fact list; the re-evaluation shows whether seeing it helps.")

print("\nA prompt with context simply lists those statements above the question:\n")
sample = dataset.clusters[0].questions[0]
print(cc.prompt_with_prefix(cc.render_prefix(template, context.statements[:3]), sample))

print("\n=== re-evaluating the same noisy backends with the context ===")
augmented = [
    cc.evaluate_dataset(dataset, cc.NoisyOracle(closure, dataset, flip_probability=0.3, seed=7), template,
                        context=context),
    cc.evaluate_dataset(dataset, cc.NoisyOracle(closure, dataset, flip_probability=0.3, seed=8), template,
                        context=context),
]
augmented_rows = [cc.compute_report(rs, dataset) for rs in augmented]
print(cc.render_markdown(augmented_rows, baselines=rows))

print("The noisy oracle ignores its prompt, so its improvement column is 0 —")
print("a useful control. A backend that actually reads the context can fix")
print("every missed fact; the perfect oracle stands in for that best case:")

best = cc.evaluate_dataset(dataset, cc.PerfectOracle(closure, dataset), template, context=context)
best_row = cc.compute_report(best, dataset)
for backend_id, baseline_row in rows.items():
    gain = cc.improvement(
        baseline_row,
        cc.ReportRow(backend_id=backend_id, edges=best_row.edges, paths=best_row.paths,
                     property=best_row.property, all=best_row.all),
    )
    print(f"  best possible improvement over {backend_id}: {gain:.2f} points "
          f"(its whole all-inconsistent share of {baseline_row.pct_all_inconsistent:.2f})")
